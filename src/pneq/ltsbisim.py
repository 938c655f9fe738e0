"""Interleaving-style bisimilarity oracles on bounded reachability graphs.

These ignore all token structure and work purely on the labelled graph, so
they serve as independent cross-checks: place-based verdicts must imply
the corresponding graph-level ones on bounded nets.

Both oracles are one partition-refinement loop that differs only in the
signature (strong moves, or Blom & Orzan's branching signatures), so `bint`,
like `int`, scales to the corpus's cap of 5,000 states. Labels are interned
once per graph, with `TAU` as 0, so a signature is a set of ints: a move
with label id `l` into block `b` is `l + L * b`, where `L` is the number of
label ids.

Refinement only ever splits states that are not bisimilar: every
intermediate partition is coarser than the greatest bisimulation. So a query
about one pair of states can stop as soon as they fall into different
blocks (`pair=`), and the answer `not bisimilar` is still exact.
"""
from __future__ import annotations

import time

from .errors import ModelError
from .multiset import Marking
from .net import TAU, Lts, Net, reach_lts


def _successors(lts: Lts) -> tuple:
    """Each state's moves as (label id, target), and the number of label
    ids. `TAU` is label id 0."""
    ids = {TAU: 0}
    succ = [[] for _ in range(len(lts.states))]  # reads no state's Marking
    for src, label, dst in lts.edges:
        succ[src].append((ids.setdefault(label, len(ids)), dst))
    return succ, len(ids)


def _refine(n: int, signatures, pair=None, stats: dict | None = None) -> list:
    """Coarsest stable partition, as a block id per state.

    Starting from one block, split blocks by (old block, signatures(block))
    until no block splits. Block ids number blocks by their first state.
    With `pair == (i, j)`, stop as soon as i and j are in different blocks;
    the partition returned is then coarser than the stable one, but still
    separates only states that are not bisimilar. A given `stats` dict
    receives the number of signature rounds run (`refine_rounds`).
    """
    block, count, rounds = [0] * n, 1, 0
    while True:
        ids: dict = {}
        block = [ids.setdefault(key, len(ids)) for key in zip(block, signatures(block))]
        rounds += 1
        if len(ids) == count or (pair is not None and block[pair[0]] != block[pair[1]]):
            break
        count = len(ids)
    if stats is not None:
        stats["refine_rounds"] = rounds
    return block


def strong_partition(lts: Lts, *, pair=None, stats: dict | None = None) -> list:
    """Greatest strong bisimulation as a block id per state.

    A state's signature is the set of (label, target block) of its moves,
    each encoded as one int. `pair` and `stats` are passed to `_refine`.
    """
    succ, labels = _successors(lts)
    return _refine(
        len(succ),
        lambda block: [
            frozenset([label + labels * block[d] for label, d in moves]) for moves in succ
        ],
        pair,
        stats,
    )


def _same_block(partition, lts: Lts, i: int, j: int, stats: dict | None = None) -> bool:
    for s in (i, j):
        if not (0 <= s < len(lts.states)):
            raise ModelError(f"state index {s} out of range")
    part = partition(lts, pair=(i, j), stats=stats)
    return part[i] == part[j]


def strong_bisim(lts: Lts, i: int, j: int) -> bool:
    """True iff states i and j are strongly bisimilar."""
    return _same_block(strong_partition, lts, i, j)


def branching_relation(lts: Lts, *, pair=None, stats: dict | None = None) -> list:
    """Greatest branching bisimulation as a block id per state.

    A state's signature is the set of (label, target block) of every move it
    can make after silent steps that stay inside its block, leaving out the
    silent moves that themselves stay inside the block (Blom & Orzan). A move
    is inert when its label id is 0 (`TAU`) and its target is in the source's
    block. `pair` and `stats` are passed to `_refine`.
    """
    succ, labels = _successors(lts)
    n = len(succ)

    def signatures(block):
        sig = [set() for _ in range(n)]
        inert = []
        for s, moves in enumerate(succ):
            b = block[s]
            own = sig[s]
            for label, d in moves:
                bd = block[d]
                if label == 0 and bd == b:
                    inert.append((s, d))
                else:
                    own.add(label + labels * bd)
        # Union signatures along inert silent edges until stable. reach_lts
        # numbers states breadth-first, so most silent edges point forward
        # and a sweep in reverse order of source state settles them at once.
        inert.reverse()
        changed = True
        while changed:
            changed = False
            for s, d in inert:
                if not sig[d] <= sig[s]:
                    sig[s] |= sig[d]
                    changed = True
        return [frozenset(x) for x in sig]

    return _refine(n, signatures, pair, stats)


def branching_bisim(lts: Lts, i: int, j: int) -> bool:
    """True iff states i and j are branching bisimilar."""
    return _same_block(branching_relation, lts, i, j)


# The graph-level kinds, each mapped to whether it compares branching bisimilarity.
GRAPH_KINDS = {"int": False, "bint": True}


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
    `states` and `edges`, the seconds spent building it (`reach_s`) and
    refining its partition (`refine_s`), and the number of signature rounds
    run (`refine_rounds`), which is smaller than a full refinement's when
    the two markings were split early. Deciding reads only the graph's edges
    and state count, so no state's Marking is built: `lts.states` builds
    one when a caller reads it.
    """
    t0 = time.perf_counter()
    lts = reach_lts(net, [m1, m2], state_cap=state_cap, edge_cap=edge_cap)
    t1 = time.perf_counter()
    partition = branching_relation if branching else strong_partition
    equivalent = _same_block(partition, lts, lts.initials[0], lts.initials[1], stats)
    if stats is not None:
        stats.update(
            states=len(lts.states),
            edges=len(lts.edges),
            reach_s=t1 - t0,
            refine_s=time.perf_counter() - t1,
        )
    return equivalent, lts
