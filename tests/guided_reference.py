"""Guided mode as it ran on sets of pairs, before it kept its candidates as
pair masks.

`guided_decide` is `decide(net, m1, m2, kind, "guided", caps)` with the
old representation: candidates are frozensets of pairs ordered by their
printed names, and repair options come from the token-level
`iter_matchings`. `_Engine` still checks each candidate, and
`_witness_verdict` now takes the candidate's mask. Repair reads the
transitions by label and by pre-set from `engine_reference.label_indices`,
not from the engine's table of answerers. The tests compare the status,
witness and `relations_examined` of the two.
"""
import itertools
from collections import deque

from pneq import DecideCaps, Marking, Verdict
from pneq.checkers import (
    GUIDED_NODES,
    GUIDED_WIDTH,
    THETA,
    _Engine,
    _witness_verdict,
    pair_universe,
)
from pneq.relations import format_side
from engine_reference import label_indices
from relations_reference import iter_matchings
from silent_reference import run_search


def guided_decide(net, m1, m2, kind, caps=None) -> Verdict:
    caps = caps or DecideCaps()
    engine = _Engine(net, pair_universe(net, m1, m2, kind), kind, caps.node_budget)
    return _decide_guided(engine, m1, m2)


def _decide_guided(engine, m1, m2) -> Verdict:
    universe_set = set(engine.pairs)
    core_universe = {pr for pr in universe_set if THETA not in pr}
    stats = {"relations_examined": 0, "relations_checked": 0}

    def pairs_key(pairs):
        return tuple(sorted((format_side(a), format_side(b)) for a, b in pairs))

    seeds = sorted(
        (frozenset(q) for q in iter_matchings(engine.pairs, m1, m2, engine.d)),
        key=pairs_key,
    )
    queue = deque(seeds)
    seen = set()
    while queue and stats["relations_examined"] < GUIDED_NODES:
        rel_pairs = queue.popleft()
        if rel_pairs in seen:
            continue
        seen.add(rel_pairs)
        stats["relations_examined"] += 1
        stats["relations_checked"] += 1
        rbits = 0
        for pr in rel_pairs:
            rbits |= engine.bit[pr]
        failure = next(engine.failures(rbits, rbits), None)
        if failure is None:
            return _witness_verdict(engine, rbits, "guided", stats)
        ti, m, side = failure
        if m is None:
            continue  # theta viability cannot be repaired by adding pairs
        options = _repair_options(
            engine, ti, m, side, rbits, rel_pairs, universe_set, core_universe
        )
        for additions in options[:GUIDED_WIDTH]:
            queue.append(rel_pairs | additions)
    stats["reason"] = "guided search exhausted without finding a witness"
    return Verdict("unknown", None, "guided", stats)


def _repair_options(engine, ti, m, side, rbits, rel_pairs, universe_set, core_universe):
    """Pair additions that could discharge the failed condition (ti, m, side)."""
    t = engine.net.transitions[ti]
    by_label, by_pre = label_indices(engine.net)
    adj = engine.net.silent_moves
    anchor = engine.compiled.pre_tok[ti]
    post = engine.compiled.post_tok[ti]
    d = engine.d
    bar = rbits & engine.core_mask if d else rbits

    def oriented(x, y):
        return (x, y) if side == 1 else (y, x)

    requirements_sets = []
    always_true = lambda mk: True
    if engine.branching:
        sigma_limit = 4
        if engine.compiled.tau_seq[ti]:
            for _blocks, trace in run_search(
                adj, m, always_true, always_true, engine.node_budget, sigma_limit
            ):
                final = trace[-1]
                reqs = [(oriented(anchor, mk), "core") for mk in trace[:-1]]
                reqs.append((oriented(anchor, final), "core"))
                reqs.append((oriented(post, final), "core"))
                requirements_sets.append(reqs)
        for cj in by_label.get(t.label, ()):
            cpre = engine.compiled.pre_tok[cj]
            if len(cpre) != len(m):
                continue
            cpost = engine.compiled.post_tok[cj]
            for _blocks, trace in run_search(
                adj, m, always_true, cpre.__eq__, engine.node_budget, sigma_limit
            ):
                reqs = [(oriented(anchor, mk), "core") for mk in trace[:-1]]
                reqs.append((oriented(anchor, cpre), "core"))
                reqs.append((oriented(post, cpost), "post"))
                requirements_sets.append(reqs)
    else:
        for cj in by_pre.get((t.label, m), ()):
            cpost = engine.compiled.post_tok[cj]
            requirements_sets.append([(oriented(post, cpost), "post")])

    options = []
    seen = set()
    for reqs in requirements_sets:
        choice_lists = []
        for (left, right), closure in reqs:
            use_d = d and closure == "post"
            if engine.member(left, right, rbits if use_d else bar, use_d):
                continue
            allowed = universe_set if use_d else core_universe
            choices = [
                frozenset(q) - rel_pairs
                for q in itertools.islice(
                    iter_matchings(
                        allowed, Marking(left), Marking(right), use_d
                    ),
                    GUIDED_WIDTH,
                )
            ]
            if not choices:
                break  # a requirement no addition can meet
            choice_lists.append(choices)
        else:
            # with no choice lists, the one empty addition is dropped below
            for combo in itertools.islice(
                itertools.product(*choice_lists), GUIDED_WIDTH * 4
            ):
                additions = frozenset().union(*combo)
                if additions and additions not in seen:
                    seen.add(additions)
                    options.append(additions)
    options.sort(
        key=lambda s: (len(s), sorted((format_side(a), format_side(b)) for a, b in s))
    )
    return options
