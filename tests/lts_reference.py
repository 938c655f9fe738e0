"""Reference graph oracles and the reachability graph they start from.

`branching_relation` is the pair-set computation that `pneq.ltsbisim` used
before it moved to signature refinement. It is quadratic in the number of
states and cubic per sweep, so it only serves to cross-check the partitions
on small graphs. With no silent edges branching bisimilarity is strong
bisimilarity, which gives the strong reference too.

`reference_reach_lts` is the construction `pneq.net.reach_lts` used before
it moved to compiled count vectors: it fires transitions by Marking
arithmetic, two Markings per edge.

`signature_strong_partition` and `signature_branching_partition` are the
partition refinement `pneq.ltsbisim` used before it moved to integer
signatures and the early stop: signatures are sets of (label string, block)
tuples, and refinement always runs to the fixpoint. The block lists of
`pneq.ltsbisim` without `pair=` must equal theirs.
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
    states, edges, numbers = [], [], []
    index: dict[Marking, int] = {}
    queue: deque[int] = deque()

    def intern(m: Marking) -> int:
        if m in index:
            return index[m]
        if len(states) >= state_cap:
            raise StateSpaceLimitError(
                f"state space too large or unbounded (cap {state_cap})",
                count=len(states),
            )
        index[m] = len(states)
        states.append(m)
        queue.append(index[m])
        return index[m]

    for m in initials:
        net.check_marking(m)
        numbers.append(intern(m))
    while queue:
        src = queue.popleft()
        m = states[src]
        successors = []
        for t in net.transitions:
            if m.covers(t.pre):
                successors.append(((m - t.pre) + t.post, t.label))
        successors.sort(key=lambda pair: (net.marking_key(pair[0]), pair[1]))
        for m2, label in successors:
            dst = intern(m2)
            if len(edges) >= edge_cap:
                raise StateSpaceLimitError(
                    f"edge count exceeded cap {edge_cap}", count=len(edges)
                )
            edges.append((src, label, dst))
    return Lts(states, edges, numbers)


def _label_successors(lts: Lts) -> list:
    succ = [[] for _ in lts.states]
    for src, label, dst in lts.edges:
        succ[src].append((label, dst))
    return succ


def _refine_to_fixpoint(n: int, signatures) -> list:
    """Coarsest stable partition, as a block id per state.

    Starting from one block, split blocks by (old block, signatures(block))
    until no block splits. Block ids number blocks by their first state.
    """
    block, count = [0] * n, 1
    while True:
        ids: dict = {}
        block = [ids.setdefault(key, len(ids)) for key in zip(block, signatures(block))]
        if len(ids) == count:
            return block
        count = len(ids)


def signature_strong_partition(lts: Lts) -> list:
    """Greatest strong bisimulation as a block id per state.

    A state's signature is the set of (label, target block) of its moves.
    """
    succ = _label_successors(lts)
    return _refine_to_fixpoint(
        len(succ),
        lambda block: [frozenset((label, block[d]) for label, d in moves) for moves in succ],
    )


def signature_branching_partition(lts: Lts) -> list:
    """Greatest branching bisimulation as a block id per state.

    A state's signature is the set of (label, target block) of every move it
    can make after silent steps that stay inside its block, leaving out the
    silent moves that themselves stay inside the block (Blom & Orzan).
    """
    succ = _label_successors(lts)
    n = len(succ)

    def signatures(block):
        sig = [set() for _ in range(n)]
        inert = [[] for _ in range(n)]
        for s, moves in enumerate(succ):
            for label, d in moves:
                if label == TAU and block[d] == block[s]:
                    inert[s].append(d)
                else:
                    sig[s].add((label, block[d]))
        changed = True
        while changed:
            changed = False
            for s in reversed(range(n)):
                for d in inert[s]:
                    if not sig[d] <= sig[s]:
                        sig[s] |= sig[d]
                        changed = True
        return [frozenset(x) for x in sig]

    return _refine_to_fixpoint(n, signatures)


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
