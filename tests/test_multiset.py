import random
from collections.abc import ItemsView, KeysView, Set, ValuesView
from operator import and_, eq, ge, gt, le, lt, ne, or_, sub, xor

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


def test_views_read_as_the_mapping_views():
    # keys(), items() and values() are the count dict's views; they must
    # read as the collections.abc views built on the same marking.
    rng = random.Random(29)
    places = [f"s{i}" for i in range(6)]
    markings = [Marking()]
    for _ in range(200):
        chosen = rng.sample(places, rng.randint(0, len(places)))
        markings.append(Marking({p: rng.choice((1, 1, 2, 3, MAX_MULTIPLICITY)) for p in chosen}))
    for m, other in zip(markings, markings[1:] + markings[:1]):
        for view, mixin in ((m.keys(), KeysView(m)), (m.items(), ItemsView(m))):
            assert isinstance(view, Set) and list(view) == list(mixin)
            for theirs in (type(mixin)(other), set(mixin), set(type(mixin)(other))):
                for op in (eq, ne, le, lt, ge, gt, and_, or_, sub, xor):
                    assert op(view, theirs) == op(mixin, theirs), (m, other, op)
        assert list(m.values()) == list(ValuesView(m))
        views = (m.keys(), m.items(), m.values())
        for view, mixin in zip(views, (KeysView, ItemsView, ValuesView)):
            assert isinstance(view, mixin) and len(view) == len(mixin(m)) == len(m)
        for p in places + ["absent"]:
            assert (p in m.keys()) == (p in KeysView(m))
            for n in (1, 2, 3, MAX_MULTIPLICITY):
                assert ((p, n) in m.items()) == ((p, n) in ItemsView(m))
                assert (n in m.values()) == (n in ValuesView(m))
            # The mixin finds (p, 0) for an absent p through m[p] == 0, an
            # item it never yields; the dict view contains what it yields.
            assert (p, 0) not in m.items() and 0 not in m.values()
            assert ((p, 0) in ItemsView(m)) == (p not in m)
