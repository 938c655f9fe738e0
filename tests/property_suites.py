"""Randomized algebraic suites shared by test_properties and acceptance.

All randomness is seeded so failures are reproducible.
"""
import itertools
import random

from pneq import (
    Marking,
    PlaceRelation,
    additive_member,
    check_relation,
    d_additive_member,
    parse_marking,
    verify,
)
from bruteforce import random_instance
from relation_algebra import compose, inverse, validates
from silent_replay import silent_witnesses


def closure_law_suite(seed=20240815, rounds=200):
    """Monotonicity, additivity, inverse and composition of the closures."""
    rng = random.Random(seed)
    for _ in range(rounds):
        pairs, m1, m2 = random_instance(rng)
        rel = PlaceRelation.of(pairs)
        # monotonicity
        sub = PlaceRelation.of({p for p in pairs if rng.random() < 0.5})
        if additive_member(sub, m1, m2) is not None:
            assert additive_member(rel, m1, m2) is not None
        # additivity
        pairs2, m3, m4 = random_instance(rng)
        both = PlaceRelation.of(pairs | pairs2)
        if (
            additive_member(both, m1, m2) is not None
            and additive_member(both, m3, m4) is not None
        ):
            assert additive_member(both, m1 + m3, m2 + m4) is not None
        # inverse law, for both closures
        assert (additive_member(rel, m1, m2) is not None) == (
            additive_member(inverse(rel), m2, m1) is not None
        )
        assert (d_additive_member(rel, m1, m2) is not None) == (
            d_additive_member(inverse(rel), m2, m1) is not None
        )
        # witness validity
        w = additive_member(rel, m1, m2)
        if w is not None:
            assert validates(w, rel, m1, m2)
    # sampled composition law on a small alphabet
    rng = random.Random(seed + 1)
    mids = ["m0", "m1", "m2"]
    for _ in range(rounds // 2):
        left = {(f"a{i}", rng.choice(mids)) for i in range(3) if rng.random() < 0.7}
        right = {(rng.choice(mids), f"b{i}") for i in range(3) if rng.random() < 0.7}
        r1, r2 = PlaceRelation.of(left), PlaceRelation.of(right)
        k = rng.randint(0, 3)
        m1 = Marking([f"a{rng.randint(0, 2)}" for _ in range(k)])
        m3 = Marking([f"b{rng.randint(0, 2)}" for _ in range(k)])
        composed = additive_member(compose(r1, r2), m1, m3) is not None
        brute = any(
            additive_member(r1, m1, Marking(mid)) is not None
            and additive_member(r2, Marking(mid), m3) is not None
            for mid in itertools.product(mids, repeat=k)
        )
        assert composed == brute


def _related_corpus_cases(nets, relations):
    return [
        ("tau_loops", relations["tau_loops_r1"], "bplace", "s1+s2", "s3+s5"),
        ("tau_loops", relations["tau_loops_r2"], "bplace", "s1+s2", "s6+s8"),
        ("producer_consumer", relations["producer_consumer"], "bplace", "P1+C", "P1'+C'"),
        ("spawn_deadlock", relations["spawn_deadlock"], "dplace", "s1", "s4"),
        ("tau_chain", relations["tau_chain"], "bdplace", "s1", "s4+s5"),
    ]


def witness_law_suite(nets, relations):
    """Witness symmetry under inverse; composed witnesses still check."""
    for name, rel, kind, e1, e2 in _related_corpus_cases(nets, relations):
        net = nets[name]
        m1, m2 = parse_marking(e1, net), parse_marking(e2, net)
        assert verify(net, rel, kind, m1, m2).status == "related"
        assert verify(net, inverse(rel), kind, m2, m1).status == "related"
        assert check_relation(net, compose(rel, inverse(rel)), kind).ok
        assert check_relation(net, compose(inverse(rel), rel), kind).ok


def _scaled(m, n):
    return Marking({p: n * k for p, k in m.items()})


def scaling_suite(nets, relations):
    """A witness for (m1, m2) also justifies (n*m1, n*m2)."""
    for name, rel, kind, e1, e2 in _related_corpus_cases(nets, relations):
        net = nets[name]
        m1, m2 = parse_marking(e1, net), parse_marking(e2, net)
        for n in (2, 3):
            assert verify(net, rel, kind, _scaled(m1, n), _scaled(m2, n)).status == "related"


def weak_stuttering_suite(nets, relations):
    """Markings traversed by accepted silent responses are pairwise related."""
    cases = [
        ("tau_loops", relations["tau_loops_r1"]),
        ("tau_loops", relations["tau_loops_r2"]),
        ("producer_consumer", relations["producer_consumer"]),
    ]
    checked = 0
    for name, rel in cases:
        net = nets[name]
        assert check_relation(net, rel, "bplace").ok
        witnesses = silent_witnesses(net, rel, "bplace")
        assert witnesses
        left_pairs = compose(rel, inverse(rel))
        right_pairs = compose(inverse(rel), rel)
        for anchor, direction, trace in witnesses:
            stutter = right_pairs if direction == "psi" else left_pairs
            for ma, mb in itertools.combinations(trace, 2):
                assert additive_member(stutter, ma, mb) is not None
                checked += 1
    assert checked > 0
