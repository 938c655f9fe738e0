"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import functools
import random
import time

from pneq import (
    Marking,
    Net,
    PlaceRelation,
    additive_member,
    check_relation,
    decide,
    decide_interleaving,
    parse_marking,
    verify,
)
from pneq import corpus
from bruteforce import perm_member, random_instance
from property_suites import (
    closure_law_suite,
    scaling_suite,
    weak_stuttering_suite,
    witness_law_suite,
)
from relation_algebra import identity, validates


def criterion(number, summary):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number:2d}: {summary}")
                raise
            print(f"PASS criterion {number:2d}: {summary}")

        return wrapper

    return decorate


@criterion(1, "closure agrees with the permutation oracle on 1000 instances")
def test_criterion_01_closure_oracle():
    rng = random.Random(987654321)
    t0 = time.perf_counter()
    disagreements = 0
    for _ in range(1000):
        pairs, m1, m2 = random_instance(rng)
        got = additive_member(PlaceRelation.of(pairs), m1, m2) is not None
        if got != perm_member(pairs, m1, m2):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 10.0, f"{elapsed:.1f}s"


@criterion(2, "the permuted two-token membership with its exact witness")
def test_criterion_02_exact_witness(nets, relations):
    net = nets["bare_places"]
    m1 = parse_marking("s1+s2", net)
    m2 = parse_marking("s4+s3", net)
    w = additive_member(relations["permute"], m1, m2)
    assert w is not None
    assert set(w.pairs) == {("s1", "s3"), ("s2", "s4")}
    assert validates(w, relations["permute"], m1, m2)


@criterion(3, "handshake: both maximal relations pass, the union fails, tokens swap")
def test_criterion_03_handshake_suite(nets):
    net = nets["handshake"]
    swap = PlaceRelation.of({("s1", "s2"), ("s2", "s1"), ("s3", "s3")})
    assert check_relation(net, identity(net), "place").ok
    assert check_relation(net, swap, "place").ok
    union = PlaceRelation.of(identity(net).pairs | swap.pairs)
    report = check_relation(net, union, "place")
    assert not report.ok
    sizes = {
        (net.transition_index[v.transition].pre.size, v.marking.size)
        for v in report.violations
    }
    assert (2, 2) in sizes
    v = decide(net, Marking(["s1"]), Marking(["s2"]), "place", "exhaustive")
    assert v.status == "related"


@criterion(4, "triple-sync decided not-related over the 9-pair universe")
def test_criterion_04_triple_sync(nets):
    net = nets["triple_sync"]
    t0 = time.perf_counter()
    v = decide(
        net,
        parse_marking("s1+s2+s3", net),
        parse_marking("r1+r2+r3", net),
        "place",
        "exhaustive",
    )
    elapsed = time.perf_counter() - t0
    assert v.status == "not-related"
    assert v.stats["universe"] == 9
    assert v.stats["relations_examined"] == 512
    assert elapsed < 1.0, f"{elapsed:.2f}s"


@criterion(5, "silent-cells branching suite, each verdict under a second")
def test_criterion_05_silent_cells(nets):
    net = nets["silent_cells"]
    expected = {
        ("s1", "s2"): "related",
        ("s1", "s4"): "related",
        ("s2", "s5"): "not-related",
        ("s2", "s6"): "not-related",
    }
    for (a, b), want in expected.items():
        t0 = time.perf_counter()
        v = decide(net, Marking([a]), Marking([b]), "bplace", "exhaustive")
        elapsed = time.perf_counter() - t0
        assert v.status == want, (a, b)
        assert elapsed < 1.0, f"{a},{b}: {elapsed:.2f}s"


@criterion(6, "tau-loops: both relations verify, the identity union fails")
def test_criterion_06_tau_loops(nets, relations):
    net = nets["tau_loops"]
    assert (
        verify(net, relations["tau_loops_r1"], "bplace",
               parse_marking("s1+s2", net), parse_marking("s3+s5", net)).status
        == "related"
    )
    assert (
        verify(net, relations["tau_loops_r2"], "bplace",
               parse_marking("s1+s2", net), parse_marking("s6+s8", net)).status
        == "related"
    )
    union = PlaceRelation.of(relations["tau_loops_r1"].pairs | identity(net).pairs)
    assert not check_relation(net, union, "bplace").ok


@criterion(7, "producer-consumer verifies and guided search finds a witness")
def test_criterion_07_producer_consumer(nets, relations):
    net = nets["producer_consumer"]
    m1 = parse_marking("P1+C", net)
    m2 = parse_marking("P1'+C'", net)
    rel = relations["producer_consumer"]
    assert len(rel) == 13
    t0 = time.perf_counter()
    v = verify(net, rel, "bplace", m1, m2)
    elapsed = time.perf_counter() - t0
    assert v.status == "related"
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    g = decide(net, m1, m2, "bplace", "guided")
    assert g.status == "related"
    assert check_relation(net, g.witness, "bplace").ok


@criterion(8, "theta-extended suite: dead partner, spawned deadlocks, tau chain")
def test_criterion_08_d_variants(nets, relations):
    dp = nets["dead_partner"]
    v = decide(dp, Marking(["s1"]), parse_marking("s3+s4", dp), "dplace", "exhaustive")
    assert v.status == "not-related"
    sd = nets["spawn_deadlock"]
    assert verify(sd, relations["spawn_deadlock"], "dplace",
                  Marking(["s1"]), Marking(["s4"])).status == "related"
    ss = nets["stuck_sync"]
    assert check_relation(ss, relations["stuck_sync"], "dplace").ok
    assert verify(ss, relations["stuck_sync"], "dplace",
                  Marking(["s1"]), parse_marking("s2+s3", ss)).status == "related"
    tc = nets["tau_chain"]
    assert verify(tc, relations["tau_chain"], "bdplace",
                  Marking(["s1"]), parse_marking("s4+s5", tc)).status == "related"


@criterion(9, "token-pump decided not-related over the 24-pair theta universe")
def test_criterion_09_token_pump(nets):
    net = nets["token_pump"]
    t0 = time.perf_counter()
    v = decide(net, Marking(["s1"]), Marking(["s3"]), "bdplace", "exhaustive")
    elapsed = time.perf_counter() - t0
    assert v.status == "not-related"
    assert v.stats["universe"] == 24
    assert elapsed < 1800.0, f"{elapsed:.1f}s"


@criterion(10, "silent-sync decided not-related over the 20-pair universe")
def test_criterion_10_silent_sync(nets):
    net = nets["silent_sync"]
    t0 = time.perf_counter()
    v = decide(
        net,
        parse_marking("s1+s3", net),
        parse_marking("s5+s6", net),
        "bplace",
        "exhaustive",
    )
    elapsed = time.perf_counter() - t0
    assert v.status == "not-related"
    assert v.stats["universe"] == 20
    assert elapsed < 60.0, f"{elapsed:.1f}s"


@criterion(11, "graph-level oracle agrees on latent-sync and on every bounded case")
def test_criterion_11_oracle_cross_checks(nets):
    net = nets["latent_sync"]
    assert decide_interleaving(net, Marking(["s1"]), Marking(["s4"]), False)[0]
    m1, m2 = parse_marking("2*s1", net), parse_marking("2*s4", net)
    assert not decide_interleaving(net, m1, m2, False)[0]
    results = corpus.run_corpus(include_slow=False)
    assert results
    for r in results:
        assert r.oracle != "failed", r.name
        if r.verdict == "related" and r.oracle not in ("", "skipped"):
            assert r.oracle == "ok", r.name


@criterion(12, "algebraic law suites with fixed seeds")
def test_criterion_12_property_suites(nets, relations):
    t0 = time.perf_counter()
    closure_law_suite()
    witness_law_suite(nets, relations)
    scaling_suite(nets, relations)
    weak_stuttering_suite(nets, relations)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s"


@criterion(13, "thousand-token membership stays under a second")
def test_criterion_13_complexity_smoke():
    left = [f"a{i}" for i in range(10)]
    right = [f"b{i}" for i in range(10)]
    net = Net("wide", left + right, [])
    rel = PlaceRelation.of({(a, b) for a in left for b in right})
    m1 = Marking({p: 100 for p in left})
    m2 = Marking({p: 100 for p in right})
    assert m1.size == m2.size == 1000
    t0 = time.perf_counter()
    w = additive_member(rel, m1, m2)
    elapsed = time.perf_counter() - t0
    assert w is not None and len(w.pairs) == 1000
    assert validates(w, rel, m1, m2)
    assert elapsed < 1.0, f"{elapsed:.3f}s"
