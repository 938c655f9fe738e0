import random

import pytest

from pneq import Marking, ModelError
from pneq.multiset import MAX_MULTIPLICITY


def test_union_neutral_element():
    assert Marking() + Marking() == Marking()


def test_union_two_singletons():
    m = Marking(["s1"]) + Marking(["s2"])
    assert m.size == 2
    assert m["s1"] == 1 and m["s2"] == 1


def test_union_pointwise_sum():
    m = Marking({"s1": 2}) + Marking({"s1": 1, "s2": 1})
    assert m == Marking({"s1": 3, "s2": 1})


def test_diff_removes_matched_tokens():
    assert Marking(["s1", "s2"]) - Marking(["s2"]) == Marking(["s1"])


def test_diff_truncates_at_zero():
    assert Marking({"s1": 2}) - Marking({"s1": 3, "s2": 1}) == Marking()


def test_diff_by_empty_is_identity():
    m = Marking({"s1": 2, "s3": 1})
    assert m - Marking() == m


def _random_marking(rng):
    return Marking([rng.choice("abcde") for _ in range(rng.randint(0, 8))])


def test_union_laws_random():
    rng = random.Random(20240811)
    for _ in range(200):
        m1, m2, m3 = (_random_marking(rng) for _ in range(3))
        assert m1 + m2 == m2 + m1
        assert (m1 + m2) + m3 == m1 + (m2 + m3)
        assert m1 + Marking() == m1
        assert (m1 + m2).size == m1.size + m2.size


def test_scalar_and_covers():
    m = Marking({"s1": 1, "s2": 2})
    assert 3 * m == Marking({"s1": 3, "s2": 6})
    assert 0 * m == Marking()
    assert m.covers(Marking(["s2"]))
    assert not Marking(["s2"]).covers(m)
    assert Marking(["s2"]) <= m


def test_support_and_tokens():
    m = Marking({"s2": 2, "s1": 1})
    assert m.support() == {"s1", "s2"}
    assert m.tokens() == ("s1", "s2", "s2")
    assert m["missing"] == 0
    assert "missing" not in m


def test_zero_entries_not_stored():
    m = Marking({"s1": 0, "s2": 1})
    assert set(m) == {"s2"}
    assert len(m) == 1


def test_marking_is_immutable_and_hashable():
    m = Marking(["s1"])
    with pytest.raises(AttributeError):
        m.anything = 1
    assert len({m, Marking(["s1"]), Marking(["s2"])}) == 2


def test_negative_multiplicity_rejected():
    with pytest.raises(ModelError):
        Marking({"s1": -1})


def test_multiplicity_overflow_checked():
    Marking({"s1": MAX_MULTIPLICITY})
    with pytest.raises(ModelError):
        Marking({"s1": MAX_MULTIPLICITY}) + Marking({"s1": 1})
