"""Cross-check the compiled checker against a naive reimplementation.

The naive checker recomputes the finite game conditions from scratch:
related markings by enumerating all same-size multisets, closure
memberships by the permutation oracle, and silent responses by exhaustive
enumeration of block orders and acyclic per-token walks. Any divergence
from check_relation on randomized nets is a bug in one of them.
"""
import itertools
import random

import pytest

from pneq import (
    KINDS,
    Marking,
    Net,
    PlaceRelation,
    THETA,
    TAU,
    Transition,
    check_relation,
    decide,
)
from pneq.checkers import SMALL_MATCH, _Engine
from pneq.relations import _match
from bruteforce import d_perm_member, perm_member
from relations_reference import iter_matchings


def _acyclic_walks(adj, start, limit):
    """All acyclic single-token walks from start (position lists)."""
    walks = [[start]]  # the one-step idle block is handled by the caller

    def extend(path):
        for nxt in adj.get(path[-1], ()):
            if nxt in path[1:]:
                continue
            walks.append(path + [nxt])
            if nxt != path[0]:
                extend(path + [nxt])

    extend([start])
    return [w for w in walks if len(w) <= limit + 1]


def _responses(net, start: Marking):
    """Every acyclic silent response from start: (trace markings, final)."""
    adj = {}
    for t in net.transitions:
        if t.label == TAU and t.pre.size == 1 and t.post.size == 1:
            adj.setdefault(next(iter(t.pre)), []).append(next(iter(t.post)))
    tokens = list(start.tokens())
    limit = len(net.places)
    out = []
    for order in set(itertools.permutations(range(len(tokens)))):
        walk_options = [_acyclic_walks(adj, tokens[i], limit) for i in order]
        for combo in itertools.product(*walk_options):
            positions = list(tokens)
            trace = [Marking(positions)]
            for slot, walk in zip(order, combo):
                if len(walk) == 1:  # idle block: one step, same marking
                    trace.append(Marking(positions))
                    continue
                idx = positions.index(tokens[slot])
                for nxt in walk[1:]:
                    positions[idx] = nxt
                    trace.append(Marking(positions))
            out.append((trace, Marking(positions)))
    return out


def _related_markings_brute(pairs, m: Marking, places, side, d=False):
    member = d_perm_member if d else perm_member
    out = []
    sizes = [m.size] if not d else range(0, m.size + len(places) + 1)
    for k in sizes:
        for combo in itertools.combinations_with_replacement(sorted(places), k):
            cand = Marking(combo)
            hit = member(pairs, m, cand) if side == 1 else member(pairs, cand, m)
            if hit:
                out.append(cand)
    return out


def _brute_check(net, pairs, kind) -> bool:
    d = kind in ("dplace", "bdplace")
    branching = kind in ("bplace", "bdplace")
    core = {p for p in pairs if THETA not in p}
    member_pre = perm_member
    member_post = d_perm_member if d else perm_member
    places = net.places

    if d:
        lefts = {a for a, _ in pairs}
        rights = {b for _, b in pairs}
        for t in net.transitions:
            dom = set(t.pre)
            if dom <= lefts and any((p, THETA) in pairs for p in dom):
                return False
            if dom <= rights and any((THETA, p) in pairs for p in dom):
                return False

    for side in (1, 2):
        for t in net.transitions:
            rel_markings = _related_markings_brute(core, t.pre, places, side)
            for m in rel_markings:
                answered = False
                tau_seq = t.label == TAU and t.pre.size == 1 and t.post.size == 1
                if branching:
                    for trace, final in _responses(net, m):
                        psi = all(
                            member_pre(core, t.pre, mk)
                            if side == 1
                            else member_pre(core, mk, t.pre)
                            for mk in trace[:-1]
                        )
                        if not psi:
                            continue
                        if tau_seq:
                            if side == 1:
                                okf = member_pre(core, t.pre, final) and member_pre(
                                    core, t.post, final
                                )
                            else:
                                okf = member_pre(core, final, t.pre) and member_pre(
                                    core, final, t.post
                                )
                            if okf:
                                answered = True
                                break
                        for t2 in net.transitions:
                            if t2.label != t.label or t2.pre != final:
                                continue
                            if side == 1:
                                okp = member_pre(core, t.pre, t2.pre) and member_post(
                                    pairs, t.post, t2.post
                                )
                            else:
                                okp = member_pre(core, t2.pre, t.pre) and member_post(
                                    pairs, t2.post, t.post
                                )
                            if okp:
                                answered = True
                                break
                        if answered:
                            break
                else:
                    for t2 in net.transitions:
                        if t2.label != t.label or t2.pre != m:
                            continue
                        if side == 1:
                            okp = member_post(pairs, t.post, t2.post)
                        else:
                            okp = member_post(pairs, t2.post, t.post)
                        if okp:
                            answered = True
                            break
                if not answered:
                    return False
    return True


def _random_net(rng, n_places=None) -> Net:
    n = n_places or rng.randint(3, 5)
    places = [f"p{i}" for i in range(n)]
    transitions = []
    for i in range(rng.randint(2, 5)):
        label = rng.choice(["a", "a", "b", TAU, TAU])
        pre = Marking([rng.choice(places) for _ in range(rng.randint(1, 2))])
        post = Marking([rng.choice(places) for _ in range(rng.randint(0, 2))])
        transitions.append(Transition(f"t{i}", pre, label, post))
    return Net("rand", places, transitions)


def _random_relation(rng, net, d) -> PlaceRelation:
    pairs = set()
    for a in net.places:
        for b in net.places:
            if rng.random() < 0.25:
                pairs.add((a, b))
    if d:
        for a in net.places:
            if rng.random() < 0.15:
                pairs.add((a, THETA))
            if rng.random() < 0.15:
                pairs.add((THETA, a))
    return PlaceRelation.of(pairs)


@pytest.mark.parametrize("kind", ["place", "bplace", "dplace", "bdplace"])
def test_check_relation_matches_the_naive_checker(kind):
    rng = random.Random(KINDS.index(kind) + 31337)
    d = kind in ("dplace", "bdplace")
    agree = 0
    for _ in range(120):
        net = _random_net(rng)
        rel = _random_relation(rng, net, d)
        expected = _brute_check(net, rel.pairs, kind)
        got = check_relation(net, rel, kind).ok
        assert got == expected, (kind, net.transitions, sorted(rel.pairs, key=str))
        agree += 1
    assert agree == 120


# One a-move to four tokens on each side: its post-sets, eight tokens in all,
# take the engine's general closure path, the max-flow `_match`, past the
# backtracking for small token counts.
FAN_OUT = Net("fan_out", [f"{s}{i}" for s in "sr" for i in range(5)], [
    Transition("t", Marking(["s0"]), "a", Marking(["s1", "s2", "s3", "s4"])),
    Transition("u", Marking(["r0"]), "a", Marking(["r1", "r2", "r3", "r4"])),
])


@pytest.mark.parametrize("kind", KINDS)
def test_fan_out_runs_the_general_matcher(kind, monkeypatch):
    calls = []

    def spy(pairs, m1, m2, d):
        calls.append(d)
        return _match(pairs, m1, m2, d)

    monkeypatch.setattr("pneq.checkers._match", spy)
    v = decide(FAN_OUT, Marking(["s0"]), Marking(["r0"]), kind)
    assert v.status == "related"
    witness = {(f"s{i}", f"r{i}") for i in range(5)}
    assert v.witness.pairs == witness
    d = kind in ("dplace", "bdplace")
    assert calls and set(calls) == {d}  # post-sets: the plain closure, or the d one
    if kind == "place":
        assert len(calls) == 4
    # the naive checker agrees on the witness and on each pair dropped from it;
    # only dropping (s0,r0) leaves a relation that passes
    for pr in [None] + sorted(witness):
        pairs = witness - {pr}
        got = check_relation(FAN_OUT, PlaceRelation.of(pairs), kind).ok
        assert got == _brute_check(FAN_OUT, pairs, kind) == (pr in (None, ("s0", "r0")))


def test_member_matches_the_max_flow_matcher():
    """`_Engine.member` against `_match` on random relations over a universe
    with theta pairs, 0-4 tokens per side with repeated places, under both
    closures, on each side of its switch to max-flow past SMALL_MATCH
    tokens; `matchings_solved` counts every d call and the plain ones with
    equal, non-zero sizes."""
    rng = random.Random(4242)
    seen = {(small, d, ans): 0 for small in (True, False) for d in (False, True)
            for ans in (False, True)}
    for _ in range(60):
        net = _random_net(rng)
        places = net.places
        universe = [(a, b) for a in places for b in places]
        universe += [(a, THETA) for a in places] + [(THETA, b) for b in places]
        engine = _Engine(net, universe, "dplace", 1_000)
        for _ in range(50):
            density = rng.choice((0.3, 0.6, 0.9))
            rbits = sum(b for b in engine.bit.values() if rng.random() < density)
            allowed = [pr for pr, b in engine.bit.items() if rbits & b]
            pool = rng.sample(places, rng.randint(1, len(places)))
            m1, m2 = (tuple(sorted(rng.choice(pool) for _ in range(rng.randint(0, 4))))
                      for _ in range(2))
            for d in (False, True):
                before = engine.matchings_solved
                got = engine.member(m1, m2, rbits, d)
                assert got == (_match(allowed, Marking(m1), Marking(m2), d) is not None), (
                    m1, m2, sorted(allowed, key=str), d)
                counted = d or (len(m1) == len(m2) > 0)
                assert engine.matchings_solved == before + counted
                seen[len(m1) + len(m2) <= SMALL_MATCH, d, got] += 1
    assert min(seen.values()) >= 30, seen


def test_associations_match_the_token_walk():
    """`_Engine.associations` against the token-level `iter_matchings`:
    the same masks in the same order, one per distinct association, on
    random allowed pair sets with 0-6 tokens per side, under both closures.
    Floors: associations that put leftover right tokens on theta, and left
    places with two or more tokens split over two or more partners."""
    rng = random.Random(5150)
    cases = theta_leftover = split_places = 0
    for _ in range(200):
        net = _random_net(rng, n_places=rng.randint(2, 3))
        places = net.places
        universe = [(a, b) for a in places for b in places]
        universe += [(a, THETA) for a in places] + [(THETA, b) for b in places]
        engine = _Engine(net, universe, "dplace", 1_000)
        theta_cols = sum(engine.theta_col.values())
        for _ in range(25):
            density = rng.choice((0.4, 0.7, 1.0))
            allowed = sum(b for b in engine.bit.values() if rng.random() < density)
            pairs = [pr for pr, b in engine.bit.items() if allowed & b]
            most = rng.choice((3, 6))
            m1 = Marking(rng.choice(places) for _ in range(rng.randint(0, most)))
            size = m1.size if rng.random() < 0.5 else rng.randint(0, most)
            m2 = Marking(rng.choice(places) for _ in range(size))
            for d in (False, True):
                got = list(engine.associations(m1.sorted_items(), m2.sorted_items(), allowed, d))
                want = [sum(engine.bit[pr] for pr in set(q))
                        for q in iter_matchings(pairs, m1, m2, d)]
                assert got == want, (m1, m2, sorted(pairs, key=str), d)
                cases += 1
                theta_leftover += any(mask & theta_cols for mask in got)
                split_places += len(got) > 1 and any(
                    n > 1 and sum(allowed & engine.bit[a, q] != 0 for q in m2) > 1
                    for a, n in m1.items()
                )
    assert cases >= 10_000, cases
    # 2,321 and 1,180 when written
    assert theta_leftover >= 1_500 and split_places >= 800, (theta_leftover, split_places)


def _brute_decide(net, m1, m2, kind):
    """Reference decision: scan every subset of the full pair universe."""
    d = kind in ("dplace", "bdplace")
    places = list(net.places)
    universe = [(a, b) for a in places for b in places]
    if d:
        universe += [(a, THETA) for a in places] + [(THETA, b) for b in places]
    n = len(places)
    idx = net.place_index

    def pair_key(pr):
        return (
            n if pr[0] is THETA else idx[pr[0]],
            n if pr[1] is THETA else idx[pr[1]],
        )

    universe.sort(key=pair_key)
    member = d_perm_member if d else perm_member
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            pairs = set(combo)
            if not member(pairs, m1, m2):
                continue
            if _brute_check(net, pairs, kind):
                return "related", frozenset(pairs)
    return "not-related", None


def _random_marking(rng, net, max_tokens=2):
    return Marking([rng.choice(net.places) for _ in range(rng.randint(0, max_tokens))])


@pytest.mark.parametrize("kind", ["place", "bplace"])
def test_decide_matches_the_brute_force_scan(kind):
    # 3-place nets keep the 2^9 reference scan affordable
    rng = random.Random(KINDS.index(kind) + 2718)
    verdicts = {"related": 0, "not-related": 0}
    for i in range(40):
        net = _random_net(rng, n_places=3)
        m1 = _random_marking(rng, net)
        # bias towards equal or permuted markings so both verdicts occur
        if i % 3 == 0:
            m2 = m1
        elif i % 3 == 1:
            swap = dict(zip(net.places, net.places[1:] + net.places[:1]))
            m2 = Marking([swap[p] for p in m1.tokens()])
        else:
            m2 = _random_marking(rng, net)
        expected, witness = _brute_decide(net, m1, m2, kind)
        got = decide(net, m1, m2, kind, "exhaustive")
        assert got.status == expected, (net.transitions, m1, m2)
        if expected == "related":
            assert got.witness.pairs == witness
        verdicts[expected] += 1
    assert verdicts["related"] >= 10 and verdicts["not-related"] >= 5


@pytest.mark.parametrize("kind", ["dplace", "bdplace"])
def test_decide_matches_the_brute_force_scan_theta(kind):
    # 2 places plus theta rows/columns: an 8-pair reference universe
    rng = random.Random(KINDS.index(kind) + 1414)
    verdicts = {"related": 0, "not-related": 0}
    for i in range(25):
        net = _random_net(rng, n_places=2)
        m1 = _random_marking(rng, net)
        m2 = m1 if i % 3 == 0 else _random_marking(rng, net)
        expected, witness = _brute_decide(net, m1, m2, kind)
        got = decide(net, m1, m2, kind, "exhaustive")
        assert got.status == expected, (net.transitions, m1, m2)
        if expected == "related":
            assert got.witness.pairs == witness
        verdicts[expected] += 1
    assert verdicts["related"] >= 6 and verdicts["not-related"] >= 4
