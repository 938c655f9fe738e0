"""Reference graph oracles and the reachability graph they start from.

`branching_relation` is the pair-set computation that `pneq.ltsbisim` used
before it moved to signature refinement. It is quadratic in the number of
states and cubic per sweep, so it only serves to cross-check the partitions
on small graphs. With no silent edges branching bisimilarity is strong
bisimilarity, which gives the strong reference too.

`reference_reach_lts` is the construction `pneq.net.reach_lts` used before
it moved to compiled count vectors: it fires transitions by Marking
arithmetic, two Markings per edge.
"""
from __future__ import annotations

from collections import deque
from typing import Sequence

from pneq import TAU, Marking, ModelError, Net, StateSpaceLimitError
from pneq.net import Lts


def reference_reach_lts(
    net: Net,
    initials: Sequence[Marking],
    state_cap: int = 10_000,
    edge_cap: int = 100_000,
) -> Lts:
    """Breadth-first closure of the initial markings under firing, with the
    numbering, caps and errors of `pneq.net.reach_lts`."""
    if state_cap <= 0 or edge_cap <= 0:
        raise ModelError("state and edge caps must be positive")
    lts = Lts()
    index: dict[Marking, int] = {}
    queue: deque[int] = deque()

    def intern(m: Marking) -> int:
        if m in index:
            return index[m]
        if len(lts.states) >= state_cap:
            raise StateSpaceLimitError(
                f"state space too large or unbounded (cap {state_cap})",
                count=len(lts.states),
            )
        index[m] = len(lts.states)
        lts.states.append(m)
        queue.append(index[m])
        return index[m]

    for m in initials:
        net.check_marking(m)
        lts.initials.append(intern(m))
    while queue:
        src = queue.popleft()
        m = lts.states[src]
        successors = []
        for t in net.transitions:
            if m.covers(t.pre):
                successors.append(((m - t.pre) + t.post, t.label))
        successors.sort(key=lambda pair: (net.marking_key(pair[0]), pair[1]))
        for m2, label in successors:
            dst = intern(m2)
            if len(lts.edges) >= edge_cap:
                raise StateSpaceLimitError(
                    f"edge count exceeded cap {edge_cap}", count=len(lts.edges)
                )
            lts.edges.append((src, label, dst))
    return lts


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
