"""Reference graph oracles: the greatest-fixpoint branching bisimulation.

This is the pair-set computation that `pneq.ltsbisim` used before it moved
to signature refinement. It is quadratic in the number of states and
cubic per sweep, so it only serves to cross-check the partitions on small
graphs. With no silent edges branching bisimilarity is strong
bisimilarity, which gives the strong reference too.
"""
from __future__ import annotations

from collections import deque

from pneq import TAU
from pneq.net import Lts


def _eps_reach(lts: Lts) -> list:
    """Per-state silent reachability (reflexive-transitive tau closure)."""
    n = len(lts.states)
    tau_succ = [[] for _ in range(n)]
    for src, label, dst in lts.edges:
        if label == TAU:
            tau_succ[src].append(dst)
    out = []
    for s in range(n):
        seen = {s}
        queue = deque([s])
        while queue:
            cur = queue.popleft()
            for nxt in tau_succ[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        out.append(tuple(sorted(seen)))
    return out


def branching_relation(lts: Lts) -> frozenset:
    """Greatest branching bisimulation, as a set of state pairs.

    Greatest-fixpoint computation: start from all pairs and delete every
    pair with an unanswerable move until stable. A silent move may be
    answered by a silent path whose endpoint matches both before and after;
    a visible move by a silent path followed by an equally-labelled step,
    with the intermediate state related to the source.
    """
    n = len(lts.states)
    succ = [[] for _ in range(n)]
    for src, label, dst in lts.edges:
        succ[src].append((label, dst))
    eps = _eps_reach(lts)
    rel = {(i, j) for i in range(n) for j in range(n)}

    def answered(mover, other, left_moved, rel):
        # left_moved orients the membership tests (left, right) correctly.
        def related(a, b):
            return (a, b) in rel if left_moved else (b, a) in rel

        for label, i2 in succ[mover]:
            ok = False
            if label == TAU:
                for j2 in eps[other]:
                    if related(mover, j2) and related(i2, j2):
                        ok = True
                        break
            if not ok:
                for jmid in eps[other]:
                    for lab2, j2 in succ[jmid]:
                        if lab2 == label and related(mover, jmid) and related(i2, j2):
                            ok = True
                            break
                    if ok:
                        break
            if not ok:
                return False
        return True

    changed = True
    while changed:
        changed = False
        for (i, j) in sorted(rel):
            if not answered(i, j, True, rel) or not answered(j, i, False, rel):
                rel.discard((i, j))
                changed = True
    return frozenset(rel)


def strong_relation(lts: Lts) -> frozenset:
    """Greatest strong bisimulation: the branching one with tau made visible."""
    visible = [(src, "visible-" + label, dst) for src, label, dst in lts.edges]
    return branching_relation(Lts(states=lts.states, edges=visible))
