"""The power-set scan that exhaustive `decide` ran before its branch-and-bound.

`_decide_exhaustive` below is that loop: every combination of the
statically feasible pair bits, by size and then lexicographically, each
one that contains an association checked in full. It is the reference the
branch-and-bound is compared against: same status, same witness, same
`relations_examined` and `pruned_pairs`.

`static_bad_mask` is the static pruning pass the engine ran before
pruning became the search's own cut at depth one. It derives the bad
pairs from the single-place pre-sets (`singleton_dom`), as
`_Engine.depth_one_cut` does, but builds its own index from the token
tuples. `tests/test_search.py` checks it against that cut and against
the per-bit `_Engine.failures` walk the cut replaced.
"""
import itertools
import time

from pneq import DecideCaps, Verdict
from pneq.checkers import THETA, _Engine, _is_d, _witness_verdict, pair_universe
from relations_reference import iter_matchings


def scan_decide(net, m1, m2, kind, caps=None) -> Verdict:
    """`decide(net, m1, m2, kind, "exhaustive", caps)`, by the scan."""
    caps = caps or DecideCaps()
    universe = pair_universe(net, m1, m2, kind)
    engine = _Engine(net, universe, kind, caps.node_budget)
    t0 = time.perf_counter()
    verdict = _decide_exhaustive(engine, net, m1, m2, kind, universe)
    verdict.stats["wall_time_s"] = time.perf_counter() - t0
    return verdict


def _decide_exhaustive(engine, net, m1, m2, kind, universe) -> Verdict:
    d = _is_d(kind)
    match_masks = []
    for q in iter_matchings(universe, m1, m2, d):
        mask = 0
        for pr in q:
            if pr[0] is THETA and pr[1] is THETA:
                continue
            mask |= engine.bit[pr]
        match_masks.append(mask)
    match_masks = sorted(set(match_masks))
    stats = {"relations_examined": 0, "relations_checked": 0, "pruned_pairs": 0}
    if not match_masks:
        stats["reason"] = "no association over the pair universe"
        return Verdict("not-related", None, "exhaustive", stats)
    bad = static_bad_mask(engine)
    stats["pruned_pairs"] = bin(bad).count("1")
    match_masks = [mm for mm in match_masks if not (mm & bad)]
    if not match_masks:
        stats["reason"] = "every association uses a statically infeasible pair"
        return Verdict("not-related", None, "exhaustive", stats)
    good_bits = [
        engine.bit[pair] for pair in engine.pairs if not (engine.bit[pair] & bad)
    ]
    candidates = itertools.chain.from_iterable(
        itertools.combinations(good_bits, size) for size in range(len(good_bits) + 1)
    )
    examined = checked = 0
    found = None
    for combo in candidates:
        examined += 1
        rbits = 0
        for b in combo:
            rbits |= b
        if not any(rbits & mm == mm for mm in match_masks):
            continue
        checked += 1
        if next(engine.failures(rbits, rbits), None) is None:
            found = rbits
            break
    stats["relations_examined"] = examined
    stats["relations_checked"] = checked
    if found is None:
        return Verdict("not-related", None, "exhaustive", stats)
    return _witness_verdict(engine, found, "exhaustive", stats)


def static_bad_mask(engine) -> int:
    """Bits whose pairs kill every relation containing them.

    A pair is statically bad when one of the finite conditions it
    induces fails even under the full universe (response feasibility
    is monotone in the relation, so no candidate can rescue it).
    """
    singleton_dom = single_place_presets(engine)
    bad = 0
    full = engine.universe_mask
    for pair, b in engine.bit.items():
        a, c = pair
        if a is THETA:
            if c in singleton_dom:
                bad |= b
        elif c is THETA:
            if a in singleton_dom:
                bad |= b
        else:
            for ti in singleton_dom.get(a, ()):
                m = (c,) * len(engine.compiled.pre_tok[ti])
                if not engine.respond(ti, m, 1, full):
                    bad |= b
                    break
            if not bad & b:
                for ti in singleton_dom.get(c, ()):
                    m = (a,) * len(engine.compiled.pre_tok[ti])
                    if not engine.respond(ti, m, 2, full):
                        bad |= b
                        break
    return bad


def single_place_presets(engine) -> dict:
    """Place -> the transitions whose pre-set holds only that place, in net
    order, as a tuple (the type of `CompiledNet.lone`'s values)."""
    singleton_dom = {}
    for ti in range(len(engine.compiled.pre_tok)):
        dom = set(engine.compiled.pre_tok[ti])
        if len(dom) == 1:
            singleton_dom.setdefault(next(iter(dom)), []).append(ti)
    return {p: tuple(tis) for p, tis in singleton_dom.items()}
