"""Interleaving-style bisimilarity oracles on bounded reachability graphs.

These ignore all token structure and work purely on the labelled graph, so
they serve as independent cross-checks: place-based verdicts must imply
the corresponding graph-level ones on bounded nets.

Both oracles are one partition-refinement loop that differs only in the
signature (strong moves, or Blom & Orzan's branching signatures), so `bint`,
like `int`, scales to the corpus's cap of 5,000 states.
"""
from __future__ import annotations

import time

from .errors import ModelError
from .multiset import Marking
from .net import TAU, Lts, Net, reach_lts


def _successors(lts: Lts) -> list:
    succ = [[] for _ in lts.states]
    for src, label, dst in lts.edges:
        succ[src].append((label, dst))
    return succ


def _refine(n: int, signatures) -> list:
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


def strong_partition(lts: Lts) -> list:
    """Greatest strong bisimulation as a block id per state.

    A state's signature is the set of (label, target block) of its moves.
    """
    succ = _successors(lts)
    return _refine(
        len(succ),
        lambda block: [frozenset((label, block[d]) for label, d in moves) for moves in succ],
    )


def _same_block(partition, lts: Lts, i: int, j: int) -> bool:
    for s in (i, j):
        if not (0 <= s < len(lts.states)):
            raise ModelError(f"state index {s} out of range")
    part = partition(lts)
    return part[i] == part[j]


def strong_bisim(lts: Lts, i: int, j: int) -> bool:
    """True iff states i and j are strongly bisimilar."""
    return _same_block(strong_partition, lts, i, j)


def branching_relation(lts: Lts) -> list:
    """Greatest branching bisimulation as a block id per state.

    A state's signature is the set of (label, target block) of every move it
    can make after silent steps that stay inside its block, leaving out the
    silent moves that themselves stay inside the block (Blom & Orzan).
    """
    succ = _successors(lts)
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
        # Union signatures along inert silent edges until stable. reach_lts
        # numbers states breadth-first, so most silent edges point forward
        # and a sweep in reverse index order settles them at once.
        changed = True
        while changed:
            changed = False
            for s in reversed(range(n)):
                for d in inert[s]:
                    if not sig[d] <= sig[s]:
                        sig[s] |= sig[d]
                        changed = True
        return [frozenset(x) for x in sig]

    return _refine(n, signatures)


def branching_bisim(lts: Lts, i: int, j: int) -> bool:
    """True iff states i and j are branching bisimilar."""
    return _same_block(branching_relation, lts, i, j)


def decide_interleaving(
    net: Net,
    m1: Marking,
    m2: Marking,
    branching: bool,
    state_cap: int = 10_000,
    edge_cap: int = 100_000,
    *,
    stats: dict | None = None,
):
    """Graph-level equivalence of two markings on the joint bounded graph.

    Returns (equivalent, lts). Unbounded nets raise StateSpaceLimitError
    from the construction. A given `stats` dict receives the graph's
    `states` and `edges`, and the seconds spent building it (`reach_s`)
    and refining its partition (`refine_s`).
    """
    t0 = time.perf_counter()
    lts = reach_lts(net, [m1, m2], state_cap=state_cap, edge_cap=edge_cap)
    t1 = time.perf_counter()
    bisim = branching_bisim if branching else strong_bisim
    equivalent = bisim(lts, lts.initials[0], lts.initials[1])
    if stats is not None:
        stats.update(
            states=len(lts.states),
            edges=len(lts.edges),
            reach_s=t1 - t0,
            refine_s=time.perf_counter() - t1,
        )
    return equivalent, lts
