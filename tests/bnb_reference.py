"""The branch-and-bound that exhaustive `decide` ran before its demand search.

`_branch_and_bound` below is that search, as it was, and `bnb_decide` the
exhaustive `decide` around it: the depth-one cut, the up-front refutation
of the associations, then the search over the good bits. It is the
reference the demand search is compared against: same status, same
witness, same `relations_examined` and `pruned_pairs`. It visits a node
per subtree it decides, so on larger universes it takes millions of
nodes where the demand search takes tens.
"""
from math import comb

from pneq import DecideCaps, Verdict
from pneq.checkers import _Engine, _witness_verdict, pair_universe
from pneq.errors import SearchBudgetError


def bnb_decide(net, m1, m2, kind, caps=None) -> Verdict:
    """`decide(net, m1, m2, kind, "exhaustive", caps)`, by the
    branch-and-bound; its stats add `search_nodes` and the cuts by reason."""
    caps = caps or DecideCaps()
    engine = _Engine(net, pair_universe(net, m1, m2, kind), kind, caps.node_budget)
    masks = set(engine.associations(
        m1.sorted_items(), m2.sorted_items(), engine.universe_mask, engine.d))
    stats = dict.fromkeys(("relations_examined", "relations_checked", "pruned_pairs",
                           "search_nodes", "cuts_association", "cuts_theta", "cuts_response",
                           "associations", "associations_refuted"), 0)
    bad = 0
    if masks:
        bad = engine.depth_one_cut()
        stats["pruned_pairs"] = bad.bit_count()
        masks = [mm for mm in masks if not mm & bad]
    allowed = engine.universe_mask & ~bad
    kept = []
    for mm in masks:
        try:
            failure = next(engine.failures(mm, allowed), None)
        except SearchBudgetError:
            failure = None
        if failure is None:
            kept.append(mm)
    stats["associations"] = len(masks)
    stats["associations_refuted"] = len(masks) - len(kept)
    if not masks:
        return Verdict("not-related", None, "exhaustive", stats)
    bits = [engine.bit[pair] for pair in engine.pairs if not engine.bit[pair] & bad]
    found = _branch_and_bound(engine, bits, kept, None, stats)
    if found is None:
        return Verdict("not-related", None, "exhaustive", stats)
    return _witness_verdict(engine, found, "exhaustive", stats)


def _branch_and_bound(engine, bits, masks, node_cap, stats):
    """The first relation over `bits` that contains an association mask and
    passes the full check, by pair count and then lexicographically; None
    when there is none. `masks` holds the associations left after the
    up-front cut of `_decide_exhaustive`; when it is empty, the root of
    each pair count is one association cut.

    For each pair count k, a depth-first search decides the bits in order,
    including a bit before excluding it: that visits the candidates of k
    pairs in lexicographic order of their bit positions. A node has the
    included bits `rel`, and `upper` adds the undecided ones. Its subtree is
    cut when no association mask fits inside `upper` within k pairs, or,
    where `rel` has just grown, when a condition fails between `rel` and
    `upper` (see `_Engine.failures`). A leaf is the full check of `rel`. A
    cut adds the candidates it rules out to `relations_examined`, so that
    count is that of a scan of them all.
    More than `node_cap` nodes, unless it is None, raise SearchBudgetError.
    The counters reach `stats` even when a budget error ends the search.
    """
    n = len(bits)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | bits[i]
    examined = checked = nodes = 0

    def rule_out(count, cut):
        nonlocal examined
        examined += count
        if cut:
            stats[cut] += 1

    def visit(i, rel, need, grew):
        nonlocal checked, nodes
        nodes += 1
        if node_cap is not None and nodes > node_cap:
            raise SearchBudgetError(f"relation search exceeded {node_cap} nodes", nodes)
        upper = rel | suffix[i] if need else rel
        if not any(mm & upper == mm and (rel | mm).bit_count() <= k for mm in masks):
            rule_out(comb(n - i, need), "cuts_association")
            return None
        if not need:
            rule_out(1, None)
            checked += 1
            return rel if next(engine.failures(rel, rel), None) is None else None
        if grew and need < n - i:  # else the subtree is one leaf
            try:
                failure = next(engine.failures(rel, upper), None)
            except SearchBudgetError:
                failure = None  # undecided under `upper`: leave it to the leaves
            if failure is not None:
                cut = "cuts_theta" if failure[1] is None else "cuts_response"
                rule_out(comb(n - i, need), cut)
                return None
        found = visit(i + 1, rel | bits[i], need - 1, True)
        if found is None and need < n - i:
            found = visit(i + 1, rel, need, False)
        return found

    found = None
    try:
        for k in range(n + 1):
            found = visit(0, 0, k, True)
            if found is not None:
                break
    finally:
        stats["relations_examined"] = examined
        stats["relations_checked"] = checked
        stats["search_nodes"] = nodes
    return found
