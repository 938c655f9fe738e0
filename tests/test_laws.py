"""The equivalence laws of the four kinds, on seeded random queries.

The paper proves that branching place bisimilarity (`bplace`) and branching
d-place bisimilarity (`bdplace`) are equivalence relations; Gor21 proves it
for place and d-place bisimilarity (`place`, `dplace`). So for each kind, in
exhaustive mode:

* reflexivity: `decide(m, m)` is related;
* symmetry: `decide(m1, m2)` and `decide(m2, m1)` have the same status,
  and their minimal witnesses the same pair count, since the inverse of a
  witness is a witness;
* transitivity: m1 ~ m2 and m2 ~ m3 give m1 ~ m3, and the composition of
  the two witnesses passes `check_relation`.

`bdplace` breaks transitivity on two chains of these queries, one net
pinned in `test_bdplace_transitivity_counterexample`.
"""
import functools
import itertools
import random

import pytest

from pneq import KINDS, TAU, THETA, Marking, Net, Transition, check_relation, decide
from relation_algebra import compose
from test_crosscheck import _random_net


@functools.cache
def _triples():
    """300 small nets, each with three markings of 1-3 tokens."""
    rng = random.Random(5)
    out = []
    for _ in range(300):
        net = _random_net(rng, rng.randint(2, 3))
        markings = [
            Marking([rng.choice(net.places) for _ in range(rng.randint(1, 3))])
            for _ in range(3)
        ]
        out.append((net, markings))
    return out


@functools.cache
def _verdicts(kind):
    """Per triple, the exhaustive verdict of each ordered pair of its markings."""
    return [
        {
            (i, j): decide(net, ms[i], ms[j], kind, "exhaustive")
            for i, j in itertools.permutations(range(3), 2)
        }
        for net, ms in _triples()
    ]


@pytest.mark.parametrize("kind", KINDS)
def test_reflexivity(kind):
    checked = 0
    for net, markings in _triples():
        for m in markings:
            assert decide(net, m, m, kind, "exhaustive").status == "related", (net, m)
            checked += 1
    assert checked == 900


@pytest.mark.parametrize("kind", KINDS)
def test_symmetry(kind):
    checked = related = 0
    for (net, ms), verdicts in zip(_triples(), _verdicts(kind)):
        for (i, j), there in verdicts.items():
            back = verdicts[j, i]
            assert there.status == back.status, (net, ms[i], ms[j])
            if there.status == "related":
                assert len(there.witness) == len(back.witness), (net, ms[i], ms[j])
                related += 1
            checked += 1
    assert checked == 1800 and related >= 100


CHAIN_FLOORS = {"place": 15, "dplace": 40, "bplace": 20, "bdplace": 50}


@pytest.mark.parametrize("kind", [
    *KINDS[:3],
    pytest.param("bdplace", marks=pytest.mark.xfail(
        strict=True, reason="two chains fail; see the counterexample test")),
])
def test_transitivity(kind):
    chains = 0
    broken = []
    for (net, ms), verdicts in zip(_triples(), _verdicts(kind)):
        for i, j, k in itertools.permutations(range(3)):
            first, second = verdicts[i, j], verdicts[j, k]
            if first.status != "related" or second.status != "related":
                continue
            chains += 1
            composed = compose(first.witness, second.witness)
            if verdicts[i, k].status != "related" or not check_relation(net, composed, kind).ok:
                broken.append((net.transitions, ms[i], ms[j], ms[k]))
    assert chains >= CHAIN_FLOORS[kind]
    assert broken == []


@pytest.mark.xfail(strict=True, reason="bdplace: 2*p2 ~ p1+p2 ~ p2, but not 2*p2 ~ p2")
def test_bdplace_transitivity_counterexample():
    net = Net("chain", ["p0", "p1", "p2"], [
        Transition("t0", Marking(["p0", "p2"]), "b", Marking(["p0", "p1"])),
        Transition("t1", Marking(["p2"]), TAU, Marking(["p2"])),
        Transition("t2", Marking(["p0", "p2"]), TAU, Marking(["p0", "p2"])),
    ])
    m1, m2, m3 = Marking(["p2", "p2"]), Marking(["p1", "p2"]), Marking(["p2"])
    first = decide(net, m1, m2, "bdplace", "exhaustive")
    second = decide(net, m2, m3, "bdplace", "exhaustive")
    assert first.status == second.status == "related"
    assert first.witness.pairs == {("p2", "p1"), ("p2", "p2")}
    assert second.witness.pairs == {("p1", THETA), ("p2", "p2")}
    # the composition {(p2, theta), (p2, p2)} fails a closure-failure
    # condition on the tau-sequential t1
    report = check_relation(net, compose(first.witness, second.witness), "bdplace")
    assert [(v.transition, v.reason) for v in report.violations] == [
        ("t1", "closure-failure")
    ]
    assert decide(net, m1, m3, "bdplace", "exhaustive").status == "related"
