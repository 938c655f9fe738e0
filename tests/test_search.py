"""The demand-driven relation search of exhaustive `decide`.

It is compared against the power-set scan (`scan_reference.py`) and the
branch-and-bound (`bnb_reference.py`) it replaced: the same status,
witness, `relations_examined` and `pruned_pairs` on random nets, and the
same budget errors; its node counts on copy nets that the
branch-and-bound takes millions of nodes to decide are pinned. Its depth-one
cut is compared bit for bit against the per-bit `failures` walk it
replaced and the old pruning pass, the engine's tables and answer rule
against the build and the rule they replaced (`engine_reference.py`), its
image sets against
`related_markings`, and guided and auto verdicts against exhaustive ones.
The up-front association cut must refute every association of the
silent-sync family.
"""
import functools
import importlib.util
import itertools
import random
import sys
import time
from collections import Counter
from pathlib import Path
from types import MappingProxyType

import pytest

from pneq import (
    KINDS,
    THETA,
    DecideCaps,
    Marking,
    PlaceRelation,
    StateSpaceLimitError,
    check_relation,
    corpus,
    decide,
    parse_marking,
    parse_net,
    reach_lts,
    related_markings,
)
import pneq.net
from pneq import checkers
from pneq.checkers import SMALL_MATCH, _decide_search, _Engine, _is_branching, pair_universe
from pneq.errors import SearchBudgetError
from pneq.ltsbisim import branching_relation, strong_partition
from pneq.silent import silent_reachable
from bnb_reference import bnb_decide
from engine_reference import engine_tables, frozen, net_tables, repair_options, respond_compute
from scan_reference import scan_decide, single_place_presets, static_bad_mask
from test_crosscheck import _random_net

COUNTERS = ("relations_examined", "pruned_pairs")


def _random_query(rng, kind):
    net = _random_net(rng, n_places=rng.randint(2, 3))
    return (net, *_random_markings(rng, net, kind))


def _random_markings(rng, net, kind):
    m1 = Marking([rng.choice(net.places) for _ in range(rng.randint(0, 3))])
    roll = rng.random()
    if roll < 0.3:
        m2 = m1
    elif roll < 0.7 or kind in ("place", "bplace"):
        # the same size, so that the plain kinds have an association
        m2 = Marking([rng.choice(net.places) for _ in range(m1.size)])
    else:
        m2 = Marking([rng.choice(net.places) for _ in range(rng.randint(0, 3))])
    return m1, m2


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


def test_search_matches_the_branch_and_bound_reference():
    # The demand search against the branch-and-bound it replaced, over all
    # four kinds: the same status, witness, `relations_examined` and
    # `pruned_pairs`, with witnesses that hold a theta pair and witnesses
    # of more than one pair among them.
    rng = random.Random(9001)
    seen = Counter()
    for i in range(4000):
        kind = KINDS[i % len(KINDS)]
        net, m1, m2 = _random_query(rng, kind)
        got = _outcome(decide, net, m1, m2, kind, "exhaustive")
        assert got == _outcome(bnb_decide, net, m1, m2, kind), (kind, net.transitions, m1, m2)
        pairs = got[1].pairs if got[1] else ()
        seen[kind, got[0]] += 1
        seen["theta"] += any(THETA in pair for pair in pairs)
        seen["several"] += len(pairs) > 1
    for kind in KINDS:
        assert seen[kind, "related"] >= 300 and seen[kind, "not-related"] >= 300, seen
    assert seen["theta"] >= 40 and seen["several"] >= 800, seen  # 54, 1,032 when written


def test_node_budget_errors_only_where_the_scan_raises():
    # The search runs fewer response searches than the scan, so it can
    # decide a query on which the scan meets the node budget; it must never
    # raise where the scan answers, nor answer otherwise than without a cap.
    rng = random.Random(47)
    outcomes = {"both": 0, "search only": 0, "neither": 0}
    for i in range(3000):
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
    # 27 both, 19 search only and 2,954 neither when written: the depth-one
    # cut runs no silent search, and an exact goal drops dead states, so the
    # search meets fewer budgets per query
    assert outcomes["both"] >= 20 and outcomes["neither"] >= 500, outcomes


def test_the_response_cache_is_transparent():
    # `respond` keys its cache by the bits of `resp_mask`; a key that misses
    # a bit the response reads would hand back an answer computed under
    # another relation. On one warm engine per query, every condition of
    # random (lower, upper) pairs must get the trace computed afresh.
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
            for ti, items in enumerate(engine.compiled.pre_items):
                for side in (1, 2):
                    for m in engine.images(items, bar, side):
                        got = engine.respond(ti, m, side, upper)
                        want = engine._respond_compute(ti, m, side, upper)
                        assert got == want, (kind, net.transitions, ti, m, side, upper)
                        conditions += 1
    assert conditions >= 30_000, conditions  # 33,546 when written


def test_the_member_memo_is_transparent():
    # `member` memoises each answer on its engine, keyed by (m1, m2, rbits,
    # d). On one warm engine per query, every question, asked again from a
    # small pool, must get the answer a fresh engine gives: random masks,
    # both closures, token tuples on both sides of SMALL_MATCH. A matching
    # counts only on its question's first asking.
    rng = random.Random(67)
    seen = Counter()  # (small, d, answer, asked before)
    for i in range(300):
        kind = KINDS[i % len(KINDS)]
        net, m1, m2 = _random_query(rng, kind)
        universe = pair_universe(net, m1, m2, kind)
        engine = _Engine(net, universe, kind, DecideCaps().node_budget)
        left = sorted({a for a, _ in universe if a is not THETA})
        right = sorted({c for _, c in universe if c is not THETA})
        if not (left and right):
            continue  # two empty markings: no pairs to ask about
        pool = []
        for _ in range(8):
            n1 = rng.randint(0, 5)
            n2 = n1 if rng.random() < 0.6 else rng.randint(0, 5)
            pool.append((tuple(sorted(rng.choices(left, k=n1))),
                         tuple(sorted(rng.choices(right, k=n2))),
                         rng.getrandbits(len(engine.pairs)), rng.random() < 0.5))
        asked = set()
        for _ in range(24):
            question = rng.choice(pool)
            m1, m2, rbits, d = question
            before = engine.matchings_solved
            got = engine.member(*question)
            fresh = _Engine(net, universe, kind, DecideCaps().node_budget)
            assert got == fresh.member(*question), (kind, net.transitions, question)
            matching = d or len(m1) == len(m2) > 0
            again = question in asked
            assert engine.matchings_solved == before + (matching and not again)
            asked.add(question)
            if matching:
                seen[len(m1) + len(m2) <= SMALL_MATCH, d, got, again] += 1
    assert min(seen.values()) >= 30 and len(seen) == 16, seen  # 44 least when written


def test_images_are_the_related_markings():
    # `images` against `related_markings` on the same relation, as sorted
    # token tuples: random relations (theta pairs under the d kinds, which
    # neither reads), 0-6 tokens on each place of a random marking, both
    # sides, on one warm engine per net.
    rng = random.Random(73)
    crowded = 0  # cases with a place of 2 or more tokens and 2 or more images
    for i in range(200):
        kind = KINDS[i % len(KINDS)]
        net = _random_net(rng, n_places=rng.randint(2, 3))
        places = list(net.places)
        universe = [(a, c) for a in places for c in places]
        if kind in ("dplace", "bdplace"):
            universe += [(a, THETA) for a in places] + [(THETA, c) for c in places]
        engine = _Engine(net, universe, kind, DecideCaps().node_budget)
        for _ in range(5):
            density = rng.random()
            rbits = sum(b for b in engine.bit.values() if rng.random() < density)
            rel = PlaceRelation.of(pair for pair, b in engine.bit.items() if rbits & b)
            m = Marking({p: rng.randint(0, 6) for p in places})
            for side, direction, table in ((1, "left", engine.row), (2, "right", engine.col)):
                got = engine.images(m.sorted_items(), rbits, side)
                want = tuple(sorted(mk.tokens() for mk in related_markings(rel, m, direction)))
                assert got == want, (kind, rel, m, side)
                if any(n >= 2 and sum(1 for _, b in table.get(p, ()) if rbits & b) >= 2
                       for p, n in m.items()):
                    crowded += 1
    assert crowded >= 900, crowded  # 994 when written


def _failures_walk(engine) -> int:
    """The depth-one cut as `_decide_exhaustive` ran it before
    `_Engine.depth_one_cut`: a full `failures` walk per universe bit."""
    full = engine.universe_mask
    mask = 0
    for b in engine.bit.values():
        if next(engine.failures(b, full), None) is not None:
            mask |= b
    return mask


def _pruned(net, m1, m2, kind):
    """(mask, matchings solved) of `_Engine.depth_one_cut`, of the per-bit
    `failures` walk it replaced and of the reference pruning pass, each on
    a fresh engine, and the cut's engine. The cut's bit count reaches
    `pruned_pairs`, which the scan comparison above checks."""
    universe = pair_universe(net, m1, m2, kind)
    engines = [_Engine(net, universe, kind, DecideCaps().node_budget) for _ in range(3)]
    prunes = (_Engine.depth_one_cut, _failures_walk, static_bad_mask)
    return [(prune(e), e.matchings_solved) for prune, e in zip(prunes, engines)], engines[0]


def _corpus_queries():
    for case in corpus.load_cases():
        if case.query["eq"] in KINDS:
            net = corpus.load_net(case.net)
            m1 = parse_marking(case.query["m1"], net)
            m2 = parse_marking(case.query["m2"], net)
            for kind in KINDS:
                yield net, m1, m2, kind


def _lone_sides(engine, a, q):
    """The depth-one conditions of the core pair (a, q): (ti, p) for a
    transition whose pre-set holds just one of the two places and the
    other place p, whose tokens must answer it."""
    lone = engine.compiled.lone
    return [(ti, q) for ti in lone.get(a, ())] + [(ti, a) for ti in lone.get(q, ())]


def test_depth_one_walk_prunes_the_reference_bits(monkeypatch):
    # The closed-form cut, the per-bit walk and the reference pass agree on
    # the bits, and the cut asks no response: no matching, no `respond`,
    # no silent search.
    rng = random.Random(5)
    queries = []
    for i in range(1000):
        kind = KINDS[i % len(KINDS)]
        queries.append((*_random_query(rng, kind), kind))
    corpus_queries = list(_corpus_queries())
    assert len(corpus_queries) >= 68
    asked = Counter()  # responses and silent searches asked within the cut
    cutting = False

    def spy(name, fn):
        def counted(*args):
            if cutting:
                asked[name] += 1
            return fn(*args)
        return counted

    def cut_spy(self):
        nonlocal cutting
        cutting = True
        try:
            return cut(self)
        finally:
            cutting = False

    cut = _Engine.depth_one_cut
    monkeypatch.setattr(_Engine, "depth_one_cut", cut_spy)
    monkeypatch.setattr(_Engine, "respond", spy("respond", _Engine.respond))
    monkeypatch.setattr(checkers, "run_search", spy("run_search", checkers.run_search))
    pruned = theta = multiple = unreached = stepped = 0
    for net, m1, m2, kind in queries + corpus_queries:
        ((cut_mask, solved), walk, reference), engine = _pruned(net, m1, m2, kind)
        assert walk == reference and cut_mask == walk[0], (kind, net.transitions, m1, m2)
        assert solved == 0 and not asked, (kind, net.transitions, m1, m2, asked)
        pruned += cut_mask != 0
        c = engine.compiled
        for (a, q), b in engine.bit.items():
            if THETA in (a, q):
                theta += bool(cut_mask & b)
                continue
            sides = _lone_sides(engine, a, q)
            if cut_mask & b and any(len(c.pre_tok[ti]) > 1 for ti, _ in sides):
                multiple += 1  # a lone pre-set of two or more tokens
            if not engine.branching:
                continue
            unreached_here = stepped_here = False
            for ti, p in sides:
                if c.tau_seq[ti]:
                    continue
                reach = silent_reachable(net.silent_moves, (p,))
                sized = [cj for cj in c.answerers[ti]
                         if engine.d or len(c.post_tok[cj]) == len(c.post_tok[ti])]
                # answerers of the right size, none of them within silent reach
                unreached_here |= bool(sized) and not any(
                    reach.issuperset(c.pre_tok[cj]) for cj in sized)
                # no answerer of the right size on p's own tokens
                stepped_here |= not any(c.pre_tok[cj] == (p,) * len(c.pre_tok[ti])
                                        for cj in sized)
            unreached += bool(cut_mask & b) and unreached_here
            stepped += not cut_mask & b and stepped_here  # kept by a silent step
    assert pruned >= 600, pruned  # 770 when written
    assert theta >= 1000, theta  # 1,232 when written
    assert multiple >= 800, multiple  # 1,033 when written
    assert unreached >= 1000, unreached  # 1,354 when written
    assert stepped >= 20, stepped  # 31 when written


def test_a_budget_the_cut_met_no_longer_ends_the_decide():
    # The depth-one cut runs no silent search, so a node budget that its
    # responses met before (the per-bit walk still meets it) leaves the
    # search to answer: as without a cap. Each net's walk searches for an
    # answerer's pre-set from a marking with a live first step.
    related = 0
    for text, m1, m2, kind in (
            ("trans t0 : p0+p2 -> b -> 0\ntrans t1 : 2*p2 -> b -> 0\n",
             "2*p0", "2*p0", "bplace"),
            ("trans t0 : p0+p1 -> tau -> p0+p1\ntrans t1 : 2*p1 -> tau -> p0+p1\n",
             "2*p1", "p0+2*p1", "bdplace"),
            ("trans t0 : p0+p1 -> tau -> p1\ntrans t1 : 2*p0 -> tau -> p0\n"
             "trans t2 : p1 -> a -> 2*p2\n", "2*p2", "p1+p2", "bplace")):
        net = parse_net("net walk\nplace p0 p1 p2\n" + text)
        m1, m2 = parse_marking(m1, net), parse_marking(m2, net)
        engine = _Engine(net, pair_universe(net, m1, m2, kind), kind, 1)
        with pytest.raises(SearchBudgetError):
            _failures_walk(engine)
        got = decide(net, m1, m2, kind, "exhaustive", DecideCaps(node_budget=1))
        want = decide(net, m1, m2, kind, "exhaustive")
        assert (got.status, got.witness) == (want.status, want.witness), (text, kind)
        related += got.status == "related"
    assert related == 1


def test_the_depth_one_cut_walks_no_condition(monkeypatch):
    # Before the demand search starts, `failures` runs once per
    # association, for the up-front refutation, and never for the
    # depth-one cut. Calls counted by the caller's code object.
    walk = _Engine.failures
    search = checkers._demand_search
    callers = Counter()
    searching = False

    def failures_spy(self, *args):
        if not searching:
            callers[sys._getframe(1).f_code] += 1
        return walk(self, *args)

    def search_spy(*args):
        nonlocal searching
        searching = True
        return search(*args)

    monkeypatch.setattr(_Engine, "failures", failures_spy)
    monkeypatch.setattr(checkers, "_demand_search", search_spy)
    rng = random.Random(11)
    queries = [(*_random_query(rng, KINDS[i % len(KINDS)]), KINDS[i % len(KINDS)])
               for i in range(400)]
    refuting = 0  # decides that ran the refutation
    for net, m1, m2, kind in queries + list(_corpus_queries()):
        callers.clear()
        searching = False
        try:
            v = decide(net, m1, m2, kind, "exhaustive")
        except SearchBudgetError:
            continue
        assert sum(callers.values()) == v.stats["associations"], (kind, net.transitions, m1, m2)
        assert set(callers) <= {_decide_search.__code__}, callers
        refuting += v.stats["associations"] > 0
    assert refuting >= 250, refuting  # 300 when written


def test_engine_tables_match_the_reference_build():
    # The compiled view and the engine's own tables against the per-table
    # build they replaced, on random universes with theta pairs under the d
    # kinds. The view's tables are shared by every engine over the net, so
    # they must be tuples and read-only mappings, down to their values.
    rng = random.Random(97)
    theta_conds = lone = 0
    for i in range(600):
        kind = KINDS[i % len(KINDS)]
        net = _random_net(rng)
        places = list(net.places)
        universe = [(a, c) for a in places for c in places if rng.random() < 0.4]
        if kind in ("dplace", "bdplace"):
            universe += [(a, THETA) for a in places if rng.random() < 0.4]
            universe += [(THETA, c) for c in places if rng.random() < 0.4]
        rng.shuffle(universe)
        engine = _Engine(net, universe, kind, DecideCaps().node_budget)
        compiled = engine.compiled
        for name, want in net_tables(net).items():
            got = getattr(compiled, name)
            assert isinstance(got, (tuple, MappingProxyType)), name
            if name == "touched":  # the view keeps a transition's places in set order
                got = [set(places) for places in got]
                assert all(isinstance(places, tuple) for places in compiled.touched)
            else:
                want = frozen(want)
            assert got == want, (name, kind, net.transitions)
        for name, want in engine_tables(engine).items():
            got = getattr(engine, name)
            if name == "theta_conds":  # the reference's covers follow set order
                got, want = ([(ti, side, Counter(covers), theta)
                              for ti, side, covers, theta in conds] for conds in (got, want))
            assert got == want, (name, kind, net.transitions, universe)
        assert isinstance(compiled.lone, MappingProxyType)
        assert compiled.lone == single_place_presets(engine)
        # engines with a theta condition on a two-place pre-set, and with
        # a single-place pre-set
        theta_conds += any(len(covers) > 1 for _, _, covers, _ in engine.theta_conds)
        lone += bool(compiled.lone)
    assert theta_conds >= 150 and lone >= 500, (theta_conds, lone)  # 210, 571 when written


def _random_universe(rng, net, kind, density):
    """Random pairs over the net's places, with theta pairs under the d kinds."""
    places = net.places
    universe = [(a, c) for a in places for c in places if rng.random() < density]
    if kind in ("dplace", "bdplace"):
        universe += [(a, THETA) for a in places if rng.random() < 0.4]
        universe += [(THETA, c) for c in places if rng.random() < 0.4]
    return universe


def test_one_answer_loop_matches_the_old_answer_rule():
    # `_respond_compute` and `_repair_options` walk `answerers` in one loop
    # shape for all four kinds; the reference runs the old rule, a strong
    # block over `by_pre` and a branching block over `by_label`, with label
    # indices of its own. Every image of every pre-set, on both sides, gets
    # a response exactly where the old rule gave one and the same exact
    # repair options: from every silent trace and every association, less
    # the answers that need all another needs. A strong answer now idles on
    # every token where it was `(m,)`, so only the branching kinds compare
    # traces.
    rng = random.Random(2718)
    strong = silent = repairs = crowded = 0
    for i in range(1000):
        kind = KINDS[i % len(KINDS)]
        net = _random_net(rng, n_places=rng.randint(2, 3))
        universe = _random_universe(rng, net, kind, 0.8)
        engine = _Engine(net, universe, kind, DecideCaps().node_budget)
        for _ in range(4):
            rbits = rng.getrandbits(len(universe))
            for ti, items in enumerate(engine.compiled.pre_items):
                for side in (1, 2):
                    for m in engine.images(items, rbits & engine.core_mask, side):
                        case = (kind, net.transitions, universe, rbits, ti, m, side)
                        got = engine._respond_compute(ti, m, side, rbits)
                        want = respond_compute(engine, ti, m, side, rbits)
                        assert (got is None) == (want is None), case
                        if engine.branching:
                            assert got == want, case
                            silent += got is not None and len(set(got)) > 1
                        else:
                            strong += got is not None
                        options = checkers._repair_options(
                            engine, ti, m, side, rbits, engine.universe_mask)
                        assert options == repair_options(engine, ti, m, side, rbits), case
                        repairs += bool(options)
                        crowded += len(set(m)) < len(m)
    # strong answers, silent answers that move a token, repairs, and images
    # with a count above 1
    assert strong >= 3500 and silent >= 100 and repairs >= 2000 and crowded >= 7000, (
        strong, silent, repairs, crowded)  # 4397, 136, 2728, 9187 when written


def test_the_universe_order_does_not_reach_the_violations():
    # `check_relation` orders its universe by printed pairs. Violations
    # follow the theta conditions, then the sides, the transitions and the
    # sorted images, so an engine over a shuffled universe fails the same
    # conditions in the same order.
    rng = random.Random(1618)
    failing = theta = crowded = 0
    for i in range(400):
        kind = KINDS[i % len(KINDS)]
        net = _random_net(rng)
        rel = PlaceRelation.of(_random_universe(rng, net, kind, 0.3))
        shuffled = rel.sorted_pairs()
        rng.shuffle(shuffled)
        walks = []
        for universe in (rel.sorted_pairs(), shuffled):
            engine = _Engine(net, universe, kind, DecideCaps().node_budget)
            full = engine.universe_mask
            walks.append([engine.violation(*f) for f in engine.failures(full, full)])
        assert walks[0] == walks[1], (kind, net.transitions, rel)
        assert check_relation(net, rel, kind).violations == tuple(walks[1])
        failing += bool(walks[0])
        theta += any(v.reason == "closure-failure" for v in walks[0])
        crowded += any(n > 1 for v in walks[0] for n in v.marking.values())
    assert failing >= 300 and theta >= 120 and crowded >= 180, (
        failing, theta, crowded)  # 389, 187, 258 when written


def _net_text(net) -> str:
    """The net in the text format, for a freshly parsed copy of it."""
    lines = [f"net {net.name}", "place " + " ".join(net.places)]
    lines += [f"trans {t.tid} : {net.format_marking(t.pre)} -> {t.label} -> "
              f"{net.format_marking(t.post)}" for t in net.transitions]
    return "\n".join(lines)


def _answer(net, m1, m2, kind, mode):
    try:
        v = decide(net, m1, m2, kind, mode)
    except SearchBudgetError:
        return "budget"
    return v.status, v.witness, {k: x for k, x in v.stats.items() if not k.endswith("_s")}


def _graph(net, m1, m2):
    try:
        lts = reach_lts(net, [m1, m2], state_cap=300)
    except StateSpaceLimitError as exc:
        return "cap", exc.count
    return list(lts.states), list(lts.edges), lts.initials


def test_warm_and_cold_answers_are_identical():
    # A net's compiled tables are built by its first query and shared by
    # every later one. Each query runs on a freshly parsed copy of its net
    # (cold) and on one copy that every query on that net reuses (warm):
    # status, witness, every stat but the timings, and the graphs agree.
    rng = random.Random(5150)
    decides = multiplied = theta = graphs = 0
    for _ in range(80):
        text = _net_text(_random_query(rng, "place")[0])
        warm = parse_net(text)
        for kind in KINDS:
            for mode in ("exhaustive", "guided"):
                m1, m2 = _random_markings(rng, warm, kind)
                cold = parse_net(text)
                assert "compiled" not in vars(cold)
                answer = _answer(cold, m1, m2, kind, mode)
                assert _answer(warm, m1, m2, kind, mode) == answer, (text, m1, m2, kind, mode)
                decides += 1
                multiplied += any(n > 1 for m in (m1, m2) for _, n in m.sorted_items())
                witness = answer[1] if answer != "budget" else None
                theta += bool(witness) and any(THETA in pair for pair in witness.pairs)
                graph = _graph(parse_net(text), m1, m2)
                assert _graph(warm, m1, m2) == graph, (text, m1, m2)
                graphs += graph[0] != "cap"
    # with token multiplicities, theta pairs in witnesses and full graphs
    # minimal guided witnesses hold fewer theta pairs: 30 nets gave 7, so
    # 80 nets keep the floor
    assert decides == 640 and multiplied >= 60 and theta >= 10 and graphs >= 150, (
        multiplied, theta, graphs)  # 270, 16, 477 when written


def test_the_compiled_net_is_built_once_on_first_use(monkeypatch):
    built = []
    compile_net = pneq.net.CompiledNet
    monkeypatch.setattr(pneq.net, "CompiledNet", lambda *tables: built.append(tables)
                        or compile_net(*tables))
    moves_built = []  # the nets whose silent moves were built, once each
    build_moves = pneq.net.Net.silent_moves.func
    silent_moves = functools.cached_property(
        lambda net: moves_built.append(net) or build_moves(net))
    silent_moves.__set_name__(pneq.net.Net, "silent_moves")
    monkeypatch.setattr(pneq.net.Net, "silent_moves", silent_moves)
    reverified = []
    check = checkers.check_relation
    monkeypatch.setattr(checkers, "check_relation", lambda *args, **kwargs: reverified.append(
        args[0]) or check(*args, **kwargs))
    text = "\n".join([
        "net pair",
        "place a b c",
        "trans ta : a -> x -> c",
        "trans tb : b -> x -> c",
        "trans tc : c -> tau -> a",
    ])
    # parsing builds no tables, so the set-up of a query does not move
    net = parse_net(text)
    assert not {"compiled", "silent_moves", "by_first"} & vars(net).keys() and built == []
    # a graph and the silent moves read the count-only tables, and build
    # no token tuple, so heavy arcs cost them nothing
    lts = reach_lts(net, [Marking(["a"]), Marking(["b"])])
    assert len(lts.states) == 3 and "by_first" in vars(net)
    assert net.silent_moves == {"c": (("a", "tc"),)} and moves_built == [net]
    assert "compiled" not in vars(net) and built == []
    # engines over one net read one view, built once, and the branching
    # ones search the silent moves already built; tc answers itself by
    # idling, strong kinds included
    engines = [_Engine(net, [("a", "a"), ("a", "b"), ("c", "c")], kind,
                       DecideCaps().node_budget)
               for kind in ("place", "bplace", "bdplace")]
    assert len(built) == 1
    assert all(engine.compiled is net.compiled for engine in engines)
    for engine in engines:
        full = engine.universe_mask
        assert engine.respond(2, ("c",), 1, full) == (("c",), ("c",))
    assert moves_built == [net]
    # the engine that re-verifies a witness builds no table either
    net = parse_net(text)
    v = decide(net, Marking(["a"]), Marking(["b"]), "bplace", "exhaustive")
    assert v.status == "related" and reverified == [net]
    assert len(built) == 2 and moves_built[1:] == [net]


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
        for key in ("compile_s", "prune_s", "search_s", "reverify_s"):
            assert isinstance(v.stats[key], float) and v.stats[key] >= 0.0
        assert v.stats["prune_s"] <= v.stats["compile_s"]
        assert v.stats["relations_checked"] <= v.stats["relations_examined"]
    counters = [{k: x for k, x in v.stats.items() if not k.endswith("_s")} for v in runs]
    assert counters[0] == counters[1]
    assert counters[0]["relations_examined"] > 0


def test_guided_agrees_with_exhaustive_on_random_queries():
    rng = random.Random(61)
    outcomes = {}
    for i in range(400):
        kind = KINDS[i % len(KINDS)]
        net, m1, m2 = _random_query(rng, kind)
        guided = decide(net, m1, m2, kind, "guided")
        exhaustive = decide(net, m1, m2, kind, "exhaustive")
        assert guided.status == ("unknown" if exhaustive.status == "not-related"
                                 else "related"), (kind, net.transitions, m1, m2)
        if guided.status == "related":
            assert check_relation(net, guided.witness, kind).ok
            assert exhaustive.status == "related", (kind, net.transitions, m1, m2)
            # the one search: guided mode's witness is the minimal one
            assert guided.witness == exhaustive.witness, (kind, net.transitions, m1, m2)
        key = kind, exhaustive.status
        outcomes[key] = outcomes.get(key, 0) + 1
    for kind in KINDS:
        for status in ("related", "not-related"):
            assert outcomes.get((kind, status), 0) >= 20, outcomes


def test_guided_repair_searches_each_silent_response_once(monkeypatch):
    # Repair's needs do not depend on the relation: a failed condition's
    # requirement table is built once per engine, its silent trace walks
    # are shared by (start, goal) across conditions, and each requirement's
    # associations are enumerated once. Over guided decides of random nets
    # and the corpus guided case, repair never runs the same walk or
    # enumeration twice within one decide (one engine), and only a table's
    # first request asks for traces, while conditions fail again and walks
    # are asked again.
    searches = []  # (start, goal) of each repair walk in the current decide
    enumerations = []  # the arguments of each repair enumeration
    tables = Counter()  # (ti, m, side) -> its requirement-table requests
    building = []  # the condition whose table request is running
    asked = []  # (start, goal) of each repair-trace request
    silent_traces = checkers.silent_traces
    associations = _Engine.associations
    requirements = _Engine.requirements
    repair_traces = _Engine.repair_traces

    def walk_spy(adj, start, goal, node_budget):
        searches.append((start, goal if isinstance(goal, tuple) else None))
        return silent_traces(adj, start, goal, node_budget)

    def associations_spy(self, left, right, allowed, d):
        if sys._getframe(1).f_code.co_name == "repair_choices":
            enumerations.append((tuple(left), tuple(right), allowed, d))
        return associations(self, left, right, allowed, d)

    def requirements_spy(self, *key):
        tables[key] += 1
        building.append(key)
        try:
            return requirements(self, *key)
        finally:
            building.pop()

    def traces_spy(self, *key):
        assert tables[building[-1]] == 1, building
        asked.append(key)
        return repair_traces(self, *key)

    monkeypatch.setattr(checkers, "silent_traces", walk_spy)
    monkeypatch.setattr(_Engine, "associations", associations_spy)
    monkeypatch.setattr(_Engine, "requirements", requirements_spy)
    monkeypatch.setattr(_Engine, "repair_traces", traces_spy)
    queries = []
    rng = random.Random(907)
    for i in range(2000):
        kind = KINDS[i % len(KINDS)]
        queries.append((*_random_query(rng, kind), kind))
    case = next(c for c in corpus.load_cases() if c.name == "producer-consumer-guided")
    net = corpus.load_net(case.net)
    queries.append((net, parse_marking(case.query["m1"], net),
                    parse_marking(case.query["m2"], net), case.query["eq"]))
    totals = Counter()
    for net, m1, m2, kind in queries:
        searches.clear()
        enumerations.clear()
        tables.clear()
        asked.clear()
        decide(net, m1, m2, kind, "guided")
        query = (kind, net.transitions, m1, m2)
        assert len(set(searches)) == len(searches), query
        assert len(set(enumerations)) == len(enumerations), query
        totals["searches"] += len(searches)
        totals["enumerations"] += len(enumerations)
        totals["table_reuses"] += sum(tables.values()) - len(tables)
        totals["search_reuses"] += len(asked) - len(searches)
    # 831 walks, 561 enumerations, 182 and 139 reuses when written
    assert totals["searches"] >= 600 and totals["enumerations"] >= 400, totals
    assert totals["table_reuses"] >= 150 and totals["search_reuses"] >= 100, totals


def test_a_trace_search_past_the_budget_runs_once(monkeypatch):
    # A repair trace walk that meets the node budget is kept per key, as
    # its traces would be: asking it again raises the same error, with the
    # same count, and does not walk again.
    calls = Counter()
    walk = checkers.silent_traces

    def spy(*args):
        calls[args[1]] += 1
        return walk(*args)

    monkeypatch.setattr(checkers, "silent_traces", spy)
    text = "net chain\nplace " + " ".join(f"p{i}" for i in range(10)) + "\n" + "".join(
        f"trans t{i} : p{i} -> tau -> p{i + 1}\n" for i in range(9))
    net = parse_net(text)
    engine = _Engine(net, [("p0", "p0")], "bplace", 3)
    for _ in range(3):
        with pytest.raises(SearchBudgetError) as exc:
            engine.repair_traces(("p0",), ("p9",))
        assert exc.value.count == 4
    assert calls == {("p0",): 1}


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


def test_node_cap_error_counts_the_nodes(nets, monkeypatch):
    # Without a cap, the exhaustive search checks 17 relations here. Past
    # its cap the demand search raises, counting the check it did not make;
    # auto mode answers unknown instead, its message the reason, and keeps
    # the search's counters and timings up to the cap.
    net = nets["producer_consumer"]
    m1, m2 = parse_marking("P1+C", net), parse_marking("P1'+C'", net)
    engine = _Engine(net, pair_universe(net, m1, m2, "bplace"), "bplace", 1_000)
    masks = set(engine.associations(
        m1.sorted_items(), m2.sorted_items(), engine.universe_mask, engine.d))
    with pytest.raises(SearchBudgetError, match="relation search exceeded 10 nodes") as exc:
        checkers._demand_search(engine, list(engine.bit.values()), masks, 10, {})
    assert exc.value.count == 11
    monkeypatch.setattr(checkers, "SEARCH_CAP", 10)
    v = _decide_search(engine, masks, time.perf_counter(), "auto")
    stats = v.stats
    assert (v.status, v.witness, v.mode_used) == ("unknown", None, "exhaustive")
    assert stats["reason"] == "relation search exceeded 10 nodes"
    assert stats["relations_checked"] == 10 and stats["associations"] == 1
    assert 0 < stats["relations_examined"] < 701_786_173  # the uncapped count
    assert stats["compile_s"] >= 0.0 and stats["search_s"] >= 0.0


GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def _copy_query(i, n_places, relabel=False):
    """Copy net i at `n_places` places from the benchmark's generator (which
    this only reads), queried on its marking against the renamed image;
    with `relabel`, its last copied transition gets a fresh label."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    c = gen.Copy(gen._shape(gen._COPY, i), gen._rng(1, gen._COPY, i), n_places, n_places + 1,
                 2, ("a", "b", "tau"))
    trans = c.copied()
    if relabel:
        tid, pre, _, post = trans[-1]
        trans[-1] = (tid, pre, "zfresh", post)
    net = parse_net(gen._net_text(f"copy{i}", c.left + c.right, trans))
    return net, parse_marking(gen._mexpr(c.m), net), parse_marking(gen._mexpr(c.m_copy), net)


def test_the_demand_search_decides_the_copy_nets():
    # Copy net 1 at 12 places is related under every kind by an 8-pair
    # witness, and copy net 2 at 10 places, relabelled, under none; the
    # branch-and-bound took 1.2 million nodes on the first under `place`
    # and 32 million under `bdplace`. Auto mode decides each exhaustively.
    t0 = time.perf_counter()
    net, m1, m2 = _copy_query(1, 12)
    witness = {("p113", "q75"), ("p116", "q50"), ("p117", "q120"), ("p4", "q87"),
               ("p47", "q73"), ("p65", "q68"), ("p68", "q17"), ("p95", "q15")}
    for kind, checked, examined in (("place", 6, 133_931_577), ("dplace", 17, 657_782_291),
                                    ("bplace", 22, 8_924_907_561),
                                    ("bdplace", 58, 22_171_530_867)):
        for mode in ("exhaustive", "auto"):
            v = decide(net, m1, m2, kind, mode)
            assert v.status == "related" and v.mode_used == "exhaustive", (kind, mode)
            assert (v.stats["relations_checked"], v.stats["relations_examined"]) == (
                checked, examined), (kind, mode)
            assert v.witness.pairs == witness, (kind, mode)
    net, m1, m2 = _copy_query(2, 10, relabel=True)
    for kind, checked, universe in (("place", 5, 32), ("dplace", 19, 42), ("bplace", 5, 34),
                                    ("bdplace", 19, 44)):
        for mode in ("exhaustive", "auto"):
            v = decide(net, m1, m2, kind, mode)
            assert v.status == "not-related" and v.mode_used == "exhaustive", (kind, mode)
            assert v.stats["relations_checked"] == checked, (kind, mode)
            assert v.stats["relations_examined"] == 2 ** universe, (kind, mode)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"{elapsed:.2f}s"


def _dense_silent_net(n):
    """A complete tau graph on n places per side, a0.. and b0.., with a
    two-token synchronization `x0+x1 -go-> x2` on each side."""
    lines = ["net dense", "place " + " ".join(f"{s}{i}" for s in "ab" for i in range(n))]
    for s in "ab":
        lines += [f"trans {s}{i}_{j} : {s}{i} -> tau -> {s}{j}"
                  for i in range(n) for j in range(n) if i != j]
        lines.append(f"trans {s}go : {s}0+{s}1 -> go -> {s}2")
    return parse_net("\n".join(lines))


def test_guided_decides_the_dense_silent_net():
    # Guided mode runs the exact search with no up-front cut: on the dense
    # silent net at n = 7 under `bplace` it finds exhaustive mode's minimal
    # witness after the same 11,671 checks, within the node cap.
    net = _dense_silent_net(7)
    m1, m2 = parse_marking("a0+a1", net), parse_marking("b0+b1", net)
    v = decide(net, m1, m2, "bplace", "guided")
    assert (v.status, v.mode_used) == ("related", "guided")
    assert v.stats["relations_checked"] == 11_671 < checkers.SEARCH_CAP
    assert v.stats["relations_examined"] == 24_342_768  # as exhaustive mode counts it
    assert v.stats["pruned_pairs"] == 0 and len(v.witness) == 7
    assert check_relation(net, v.witness, "bplace").ok


def test_related_under_a_finer_kind_is_related_under_a_coarser_one():
    """On random queries, each arrow (finer, coarser) of `order` holds:
    `related` under the finer kind implies `related` under the coarser.

    ~p ⊆ ~d is stated in Gor21, which introduces d-place bisimilarity as a
    coarser variant of place bisimilarity. The other three are stated in
    the paper (Gorrieri, "Branching Place Bisimilarity", arXiv 2305.04222):
    ≈p ⊆ ≈d, as it introduces branching d-place bisimilarity as a slightly
    coarser variant of branching place bisimilarity; and ~p ⊆ ≈p and
    ~d ⊆ ≈d, as its branching games extend the strong ones to silent moves,
    where a strong answer to a move is also a branching answer.
    """
    order = (("place", "dplace"), ("place", "bplace"),
             ("bplace", "bdplace"), ("dplace", "bdplace"))
    rng = random.Random(11)
    implied = {arrow: 0 for arrow in order}
    distinct = dict(implied)  # of those, on two different markings
    for i in range(1000):
        net, m1, m2 = _random_query(rng, KINDS[i % len(KINDS)])
        status = {kind: decide(net, m1, m2, kind, "exhaustive").status for kind in KINDS}
        for finer, coarser in order:
            if status[finer] == "related":
                assert status[coarser] == "related", (finer, coarser, net.transitions, m1, m2)
                implied[finer, coarser] += 1
                distinct[finer, coarser] += m1 != m2
    # 589 to 601 related, 11 to 23 of them on different markings, when written
    assert all(n >= 550 for n in implied.values()), implied
    assert all(n >= 10 for n in distinct.values()), distinct


def test_every_closure_pair_of_a_witness_is_graph_equivalent():
    """On random queries, the additive closure of each witness R relates
    only graph-equivalent markings. With θ read as the empty marking, for
    all pairs (a, b) and (c, d) of R, a ~ b and a+c ~ b+d must hold: under
    interleaving bisimilarity (`int`) for `place` and `dplace`, and under
    branching bisimilarity (`bint`) for `bplace` and `bdplace`. This is the
    claim that R⊕ is an interleaving or branching bisimulation, which the
    contract that a place-based `related` implies graph-level equivalence
    rests on.

    For the strong kinds, R⊕ is a strong bisimulation: ABS91 for place
    bisimulations, Gor21 for d-place ones. For the branching kinds, the
    paper (Gorrieri, "Branching Place Bisimilarity", arXiv 2305.04222)
    proves ≈p ⊆ ≈d and that ≈d is finer than branching fully-concurrent
    bisimilarity, which is finer than branching interleaving bisimilarity.

    All the closure markings of one witness share one joint graph. A graph
    that raises StateSpaceLimitError, or passes 3,000 states, is skipped
    and counted.
    """
    rng = random.Random(11)
    related = pairs_checked = graphs = skipped = 0
    for i in range(1500):
        kind = KINDS[i % len(KINDS)]
        net, m1, m2 = _random_query(rng, kind)
        v = decide(net, m1, m2, kind, "exhaustive")
        if v.status != "related":
            continue
        related += 1
        singles = [
            (Marking() if a is THETA else Marking([a]), Marking() if b is THETA else Marking([b]))
            for a, b in sorted(v.witness.pairs, key=repr)
        ]
        closure = singles + [
            (a + c, b + d)
            for (a, b), (c, d) in itertools.combinations_with_replacement(singles, 2)
        ]
        markings = list(dict.fromkeys(m for pair in closure for m in pair))
        try:
            lts = reach_lts(net, markings, state_cap=3_000)
        except StateSpaceLimitError:
            skipped += 1
            continue
        graphs += 1
        partition = (branching_relation if _is_branching(kind) else strong_partition)(lts)
        state = dict(zip(markings, lts.initials))
        for a, b in closure:
            assert partition[state[a]] == partition[state[b]], (
                kind, net.transitions, v.witness, a, b)
            pairs_checked += 1
    # 918 related, 759 graphs checked, 159 skipped, 1,845 pairs when written
    assert related >= 850 and graphs >= 700 and pairs_checked >= 1_700, (
        related, graphs, skipped, pairs_checked)
