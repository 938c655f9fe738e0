"""Interleaving-style bisimilarity oracles on bounded reachability graphs.

These ignore all token structure and work purely on the labelled graph, so
they serve as independent cross-checks: place-based verdicts must imply
the corresponding graph-level ones on bounded nets.

Both oracles are one partition-refinement loop that differs only in the
signature (strong moves, or Blom & Orzan's branching signatures), so `bint`,
like `int`, scales to the corpus's cap of 5,000 states. Labels are interned
once per graph, with `TAU` as 0, so a signature is a set of ints: a move
with label id `l` into block `b` is `l + L * b`, where `L` is the number of
label ids. The edges are read once into flat arrays grouped by source state
(`_successors`), so a round codes every edge in one pass and builds each
state's signature from its slice of the arrays; each signature is consumed
as it is made, so only a new block's key outlives the round.

Refinement only ever splits states that are not bisimilar: every
intermediate partition is coarser than the greatest bisimulation. So a query
about one pair of states can stop as soon as they fall into different
blocks (`pair=`), and the answer `not bisimilar` is still exact.
"""
from __future__ import annotations

import time
from itertools import accumulate
from operator import itemgetter

from .multiset import Marking
from .net import TAU, Lts, Net, reach_lts


def _successors(lts: Lts) -> tuple:
    """The moves as flat arrays grouped by source state, one entry per
    edge: sources, label ids and targets; then the number of label ids.
    `TAU` is label id 0. A hand-built graph may list its edges in any
    order, so a stable sort groups them by source."""
    edges = sorted(lts.edges, key=itemgetter(0))  # reach_lts's are sorted
    sources, names, targets = zip(*edges) if edges else ((), (), ())
    ids = {name: k for k, name in enumerate(dict.fromkeys([TAU, *names]))}
    return sources, list(map(ids.__getitem__, names)), targets, len(ids)


def _refine(n: int, signatures, pair=None, stats: dict | None = None) -> list:
    """Coarsest stable partition, as a block id per state.

    Starting from one block, split blocks by (old block, signature), with
    the signatures given in state order by `signatures(block)`, until no
    block splits. Block ids number blocks by their first state.
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
    each encoded as one int: a round codes every edge, then takes one
    frozenset per state's slice. `pair` and `stats` are passed to `_refine`.
    """
    sources, labels, targets, width = _successors(lts)
    counts = [0] * (len(lts.states) + 1)  # reads no state's Marking
    for s in sources:
        counts[s + 1] += 1
    starts = list(accumulate(counts))
    slices = list(map(slice, starts, starts[1:]))  # per state, its moves

    def signatures(block):
        codes = [lab + width * b for lab, b in zip(labels, map(block.__getitem__, targets))]
        return map(frozenset, map(codes.__getitem__, slices))

    return _refine(len(slices), signatures, pair, stats)


def branching_relation(lts: Lts, *, pair=None, stats: dict | None = None) -> list:
    """Greatest branching bisimulation as a block id per state.

    A state's signature is the set of (label, target block) of every move it
    can make after silent steps that stay inside its block, leaving out the
    silent moves that themselves stay inside the block (Blom & Orzan). A move
    is inert when its label id is 0 (`TAU`) and its target is in the source's
    block. `pair` and `stats` are passed to `_refine`.
    """
    sources, labels, targets, width = _successors(lts)
    n = len(lts.states)  # reads no state's Marking

    def signatures(block):
        sig = [set() for _ in range(n)]
        inert = []
        for s, label, d in zip(sources, labels, targets):
            bd = block[d]
            if label or bd != block[s]:
                sig[s].add(label + width * bd)
            else:
                inert.append((s, d))
        _close(sig, inert)
        return map(frozenset, sig)

    return _refine(n, signatures, pair, stats)


def _close(sig: list, inert: list) -> None:
    """Union each inert edge's target signature into its source's, until
    every source's holds its targets'. reach_lts numbers states breadth-
    first, so most silent edges point forward and a sweep in reverse order
    of source state settles them at once; a second sweep checks that. When
    it still grows a set, a worklist over inert predecessors finishes from
    the states that grew, so a signature that must flow against the
    numbering costs one step per edge and not one sweep."""
    inert.reverse()
    for _ in range(2):
        grown = []
        for s, d in inert:
            if not sig[d] <= sig[s]:
                sig[s] |= sig[d]
                grown.append(s)
        if not grown:
            return
    preds: dict = {}
    for s, d in inert:
        preds.setdefault(d, []).append(s)
    work = grown
    while work:
        d = work.pop()
        for s in preds.get(d, ()):
            if not sig[d] <= sig[s]:
                sig[s] |= sig[d]
                work.append(s)


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
    i, j = lts.initials
    part = partition(lts, pair=(i, j), stats=stats)
    equivalent = part[i] == part[j]
    if stats is not None:
        stats.update(
            states=len(lts.states),
            edges=len(lts.edges),
            reach_s=t1 - t0,
            refine_s=time.perf_counter() - t1,
        )
    return equivalent, lts
