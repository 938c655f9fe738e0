"""The branch-and-bound relation search of exhaustive `decide`.

It is compared against the power-set scan it replaced
(`scan_reference.py`): the same status, witness, `relations_examined` and
`pruned_pairs` on random nets, and the same budget errors. Its static
pruning is compared bit for bit against the old pruning pass, and guided
and auto verdicts against exhaustive ones. The up-front association cut
must refute every association of the silent-sync family.
"""
import random
import time

import pytest

from pneq import (
    KINDS,
    DecideCaps,
    Marking,
    check_relation,
    corpus,
    decide,
    parse_marking,
    parse_net,
)
from pneq.checkers import _decide_exhaustive, _Engine, pair_universe
from pneq.errors import SearchBudgetError
from scan_reference import scan_decide, static_bad_mask
from test_crosscheck import _random_net

COUNTERS = ("relations_examined", "pruned_pairs")
CUTS = ("cuts_association", "cuts_theta", "cuts_response")


def _random_query(rng, kind):
    net = _random_net(rng, n_places=rng.randint(2, 3))
    m1 = Marking([rng.choice(net.places) for _ in range(rng.randint(0, 3))])
    roll = rng.random()
    if roll < 0.3:
        m2 = m1
    elif roll < 0.7 or kind in ("place", "bplace"):
        # the same size, so that the plain kinds have an association
        m2 = Marking([rng.choice(net.places) for _ in range(m1.size)])
    else:
        m2 = Marking([rng.choice(net.places) for _ in range(rng.randint(0, 3))])
    return net, m1, m2


def _outcome(fn, *args):
    try:
        v = fn(*args)
    except SearchBudgetError:
        return "budget"
    return v.status, v.witness, tuple(v.stats.get(k, 0) for k in COUNTERS)


def test_search_matches_the_scan_reference():
    rng = random.Random(20240)
    outcomes = {}
    refuting = 0  # queries on which the up-front association cut dropped a mask

    def exhaustive(*args):
        nonlocal refuting
        v = decide(*args, "exhaustive")
        refuting += v.stats["associations_refuted"] > 0
        return v

    for i in range(2000):
        kind = KINDS[i % len(KINDS)]
        net, m1, m2 = _random_query(rng, kind)
        got = _outcome(exhaustive, net, m1, m2, kind)
        want = _outcome(scan_decide, net, m1, m2, kind)
        assert got == want, (kind, net.transitions, m1, m2)
        depth = "deep" if got[2][0] > 16 else "shallow"
        outcomes[kind, got[0], depth] = outcomes.get((kind, got[0], depth), 0) + 1
    for kind in KINDS:
        for status in ("related", "not-related"):
            assert outcomes.get((kind, status, "deep"), 0) >= 2, outcomes
            assert outcomes.get((kind, status, "shallow"), 0) >= 50, outcomes
    assert refuting >= 100, refuting  # 114 when written


def test_node_budget_errors_only_where_the_scan_raises():
    # The search runs fewer response searches than the scan, so it can
    # decide a query on which the scan meets the node budget; it must never
    # raise where the scan answers, nor answer otherwise than without a cap.
    rng = random.Random(47)
    outcomes = {"both": 0, "search only": 0, "neither": 0}
    for i in range(1000):
        kind = KINDS[i % len(KINDS)]
        net, m1, m2 = _random_query(rng, kind)
        caps = DecideCaps(node_budget=rng.choice([2, 3, 4, 6, 10]))
        got = _outcome(decide, net, m1, m2, kind, "exhaustive", caps)
        want = _outcome(scan_decide, net, m1, m2, kind, caps)
        if want != "budget":
            assert got == want, (kind, net.transitions, m1, m2, caps)
            outcomes["neither"] += 1
        elif got == "budget":
            outcomes["both"] += 1
        else:
            assert got == _outcome(decide, net, m1, m2, kind, "exhaustive")
            outcomes["search only"] += 1
    assert outcomes["both"] >= 20 and outcomes["neither"] >= 500, outcomes


def test_the_response_cache_is_transparent():
    # `respond` keys its cache by the bits of `resp_mask`; a key that misses
    # a bit the response reads would hand back an answer computed under
    # another relation. On one warm engine per query, every condition of
    # random (lower, upper) pairs must get the answer computed afresh.
    rng = random.Random(61)
    conditions = 0
    for i in range(600):
        kind = KINDS[i % len(KINDS)]
        net, m1, m2 = _random_query(rng, kind)
        engine = _Engine(net, pair_universe(net, m1, m2, kind), kind, DecideCaps().node_budget)
        n = len(engine.pairs)
        for _ in range(20):
            upper = rng.getrandbits(n)
            lower = upper & rng.getrandbits(n)
            bar = lower & engine.core_mask if engine.d else lower
            for ti, tok in enumerate(engine.pre_tok):
                for side in (1, 2):
                    for m in engine.images(tok, bar, side):
                        got = engine.respond(ti, m, side, upper)
                        want = engine._respond_compute(ti, m, side, upper)
                        assert got == want, (kind, net.transitions, ti, m, side, upper)
                        conditions += 1
    assert conditions >= 30_000, conditions  # 33,546 when written


def _pruned(net, m1, m2, kind):
    """(mask, matchings solved) of the reference pruning pass and of the
    depth-one walk of `_Engine.failures` that `_decide_exhaustive` runs,
    each on a fresh engine. The walk's bit count reaches `pruned_pairs`,
    which the scan comparison above checks."""
    universe = pair_universe(net, m1, m2, kind)
    reference = _Engine(net, universe, kind, DecideCaps().node_budget)
    walk = _Engine(net, universe, kind, DecideCaps().node_budget)
    full = walk.universe_mask
    mask = 0
    for b in walk.bit.values():
        if next(walk.failures(b, full), None) is not None:
            mask |= b
    return (
        (static_bad_mask(reference), reference.matchings_solved),
        (mask, walk.matchings_solved),
    )


def _corpus_queries():
    for case in corpus.load_cases():
        if case.query["eq"] in KINDS:
            net = corpus.load_net(case.net)
            m1 = parse_marking(case.query["m1"], net)
            m2 = parse_marking(case.query["m2"], net)
            for kind in KINDS:
                yield net, m1, m2, kind


def test_depth_one_walk_prunes_the_reference_bits():
    rng = random.Random(5)
    queries = []
    for i in range(1000):
        kind = KINDS[i % len(KINDS)]
        queries.append((*_random_query(rng, kind), kind))
    corpus_queries = list(_corpus_queries())
    assert len(corpus_queries) >= 68
    pruned = 0
    for net, m1, m2, kind in queries + corpus_queries:
        want, got = _pruned(net, m1, m2, kind)
        assert got == want, (kind, net.transitions, m1, m2)
        pruned += want[0] != 0
    assert pruned >= 600, pruned


def test_bdplace_silent_sync_is_decided(nets):
    # The scan would examine all 2**28 candidates here, one by one.
    net = nets["silent_sync"]
    t0 = time.perf_counter()
    v = decide(
        net,
        parse_marking("s1+s3", net),
        parse_marking("s5+s6", net),
        "bdplace",
        "exhaustive",
    )
    elapsed = time.perf_counter() - t0
    assert v.status == "not-related"
    assert v.stats["relations_examined"] == 2**28
    assert v.stats["pruned_pairs"] == 1
    assert elapsed < 10.0, f"{elapsed:.1f}s"


def _silent_sync(n_right):
    """A local silent step feeding an a-synchronization (l1..l4), against a
    silent two-party synchronization feeding the same a (r1..rn): the shape
    of the benchmark's silent-sync family, not-related under every kind."""
    left = ["l1", "l2", "l3", "l4"]
    right = [f"r{i}" for i in range(1, n_right + 1)]
    text = "\n".join([
        "net ssync",
        "place " + " ".join(left + right),
        "trans tl1 : l1 -> tau -> l2",
        "trans tl2 : l2+l3 -> a -> l4",
        "trans tr1 : r1+r2 -> tau -> r3+r4",
        "trans tr2 : r3+r4 -> a -> " + ("+".join(right[4:]) or "0"),
    ])
    return parse_net(text + "\n")


@pytest.mark.parametrize(
    "kind,n_right,universe",
    [("bplace", n, 4 * n) for n in (4, 8, 12, 16, 20)]
    + [("bdplace", n, 5 * n + 4) for n in (4, 8, 12, 16, 20)],
)
def test_every_silent_sync_association_is_refuted(kind, n_right, universe):
    # Every association fails on its own, so the search examines all
    # 2**n candidates over the unpruned bits in one cut per pair count.
    net = _silent_sync(n_right)
    t0 = time.perf_counter()
    v = decide(net, parse_marking("l1+l3", net), parse_marking("r1+r2", net), kind, "exhaustive")
    elapsed = time.perf_counter() - t0
    assert v.status == "not-related"
    assert v.stats["universe"] == universe
    assert v.stats["relations_examined"] == 2 ** (universe - v.stats["pruned_pairs"])
    assert v.stats["associations_refuted"] == v.stats["associations"] > 0
    assert v.stats["reason"] == "every association fails a condition"
    assert elapsed < 1.0, f"{elapsed:.2f}s"


@pytest.mark.parametrize(
    "net_name,m1,m2,kind",
    [
        ("silent_sync", "s1+s3", "s5+s6", "bplace"),
        ("triple_sync", "s1+s2+s3", "r1+r2+r3", "place"),
        ("tau_loops", "s1+s2", "s3+s5", "bplace"),
    ],
)
def test_phase_stats_are_flat_and_repeatable(nets, net_name, m1, m2, kind):
    net = nets[net_name]
    runs = [
        decide(net, parse_marking(m1, net), parse_marking(m2, net), kind, "exhaustive")
        for _ in range(2)
    ]
    for v in runs:
        for key in ("compile_s", "search_s", "reverify_s"):
            assert isinstance(v.stats[key], float) and v.stats[key] >= 0.0
        assert sum(v.stats[k] for k in CUTS) <= v.stats["search_nodes"]
        assert v.stats["relations_checked"] <= v.stats["relations_examined"]
    counters = [{k: x for k, x in v.stats.items() if not k.endswith("_s")} for v in runs]
    assert counters[0] == counters[1]
    assert counters[0]["search_nodes"] > 0


def test_guided_agrees_with_exhaustive_on_random_queries():
    rng = random.Random(61)
    outcomes = {}
    for i in range(400):
        kind = KINDS[i % len(KINDS)]
        net, m1, m2 = _random_query(rng, kind)
        guided = decide(net, m1, m2, kind, "guided")
        exhaustive = decide(net, m1, m2, kind, "exhaustive")
        assert guided.status in ("related", "unknown")
        if guided.status == "related":
            assert check_relation(net, guided.witness, kind).ok
            assert exhaustive.status == "related", (kind, net.transitions, m1, m2)
        if exhaustive.status == "not-related":
            assert guided.status == "unknown"
        key = kind, exhaustive.status
        outcomes[key] = outcomes.get(key, 0) + 1
    for kind in KINDS:
        for status in ("related", "not-related"):
            assert outcomes.get((kind, status), 0) >= 20, outcomes


def test_auto_matches_exhaustive_on_random_queries():
    # Below the node cap, auto is the exhaustive search: every verdict and
    # counter is the same.
    rng = random.Random(73)
    statuses = set()
    for i in range(400):
        kind = KINDS[i % len(KINDS)]
        net, m1, m2 = _random_query(rng, kind)
        got, want = (
            (v.status, v.witness, v.mode_used,
             {k: x for k, x in v.stats.items() if not k.endswith("_s")})
            for v in (decide(net, m1, m2, kind, mode) for mode in ("auto", "exhaustive"))
        )
        assert got == want, (kind, net.transitions, m1, m2)
        statuses.add((kind, got[0]))
    assert len(statuses) == 2 * len(KINDS), statuses


def test_node_cap_error_counts_the_nodes(nets):
    net = nets["latent_sync"]
    m1, m2 = Marking(["s1"]), Marking(["s4"])
    engine = _Engine(net, pair_universe(net, m1, m2, "place"), "place", 1_000)
    stats = {}
    with pytest.raises(SearchBudgetError, match="relation search exceeded 10 nodes") as exc:
        _decide_exhaustive(engine, m1, m2, time.perf_counter(), 10, stats)
    assert exc.value.count == 11
    # the attempt keeps its counters and timings up to the error
    assert stats["search_nodes"] == 11 and stats["associations"] == 1
    assert stats["compile_s"] >= 0.0 and stats["search_s"] >= 0.0
