"""Place relations and their additive closures.

A place relation is a finite set of ordered pairs of places; the d-extended
variant may also pair a place with the empty marking (THETA). Membership of
a marking pair in the additive closure is a perfect-matching question on the
token-level bipartite graph. Tokens on the same place are interchangeable,
so the matcher below works on the place-grouped quotient of that graph,
pushing whole bottlenecks along BFS augmenting paths; each augmentation
saturates a place node, so the cost depends on the number of distinct
places rather than on the token count, well inside the O(k^2 sqrt(k))
bound of the token-level search.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import ModelError
from .multiset import Marking

# The empty marking used as a pseudo-place in d-extended relations.
THETA = None


def format_side(side) -> str:
    return "0" if side is THETA else side


@dataclass(frozen=True)
class PlaceRelation:
    """A finite set of ordered place pairs, optionally with THETA entries."""

    pairs: frozenset
    name: str = ""

    def __post_init__(self):
        for a, b in self.pairs:
            if a is THETA and b is THETA:
                raise ModelError("the pair (0, 0) is not allowed in a relation")

    @classmethod
    def of(cls, pairs, name: str = "") -> "PlaceRelation":
        return cls(frozenset(pairs), name)

    @property
    def is_d_extended(self) -> bool:
        return any(a is THETA or b is THETA for a, b in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def sorted_pairs(self) -> list:
        return sorted(self.pairs, key=lambda p: (format_side(p[0]), format_side(p[1])))

    def __repr__(self) -> str:
        body = ", ".join(
            f"({format_side(a)},{format_side(b)})" for a, b in self.sorted_pairs()
        )
        return f"PlaceRelation{{{body}}}"


@dataclass(frozen=True)
class MatchWitness:
    """An association multiset proving closure membership.

    Dropping THETA from the left (right) column of `pairs` yields exactly
    m1 (m2), and every non-(0,0) pair belongs to the relation.
    """

    pairs: tuple


# ---------------------------------------------------------------------------
# grouped bipartite matching
# ---------------------------------------------------------------------------

_SOURCE = ("src",)
_SINK = ("snk",)


def _max_flow_assignment(supply: dict, demand: dict, edges: dict) -> Optional[dict]:
    """Saturating flow on a bipartite supply/demand graph.

    supply: left node -> count, demand: right node -> count,
    edges: left node -> iterable of right nodes (uncapacitated).
    Returns {(l, r): units} if every supply and demand unit can be routed,
    else None. BFS augmenting paths push whole bottlenecks at once, so the
    work is governed by the number of distinct places, not by token count.
    """
    total = sum(supply.values())
    if total != sum(demand.values()):
        return None
    flow: dict = {}
    residual_supply = dict(supply)
    residual_demand = dict(demand)
    back: dict = {r: [] for r in demand}  # right -> lefts with positive flow
    pushed = 0
    while pushed < total:
        # BFS over residual graph from any unsaturated left node.
        parent: dict = {}
        queue = deque()
        for lnode, left in residual_supply.items():
            if left > 0:
                parent[("L", lnode)] = None
                queue.append(("L", lnode))
        reached = None
        while queue and reached is None:
            kind, node = queue.popleft()
            if kind == "L":
                for rnode in edges.get(node, ()):
                    if ("R", rnode) not in parent:
                        parent[("R", rnode)] = ("L", node)
                        if residual_demand[rnode] > 0:
                            reached = ("R", rnode)
                            break
                        queue.append(("R", rnode))
            else:
                for lnode in back[node]:
                    if flow.get((lnode, node), 0) > 0 and ("L", lnode) not in parent:
                        parent[("L", lnode)] = ("R", node)
                        queue.append(("L", lnode))
        if reached is None:
            return None
        # Trace the path back, computing the bottleneck.
        path = []
        cur = reached
        while parent[cur] is not None:
            path.append((parent[cur], cur))
            cur = parent[cur]
        path.reverse()
        bottleneck = min(residual_supply[cur[1]], residual_demand[reached[1]])
        for (k1, n1), (k2, n2) in path:
            if k1 == "R" and k2 == "L":  # residual (undo) arc
                bottleneck = min(bottleneck, flow[(n2, n1)])
        for (k1, n1), (k2, n2) in path:
            if k1 == "L" and k2 == "R":
                if flow.get((n1, n2), 0) == 0:
                    back[n2].append(n1)
                flow[(n1, n2)] = flow.get((n1, n2), 0) + bottleneck
            else:
                flow[(n2, n1)] -= bottleneck
        residual_supply[path[0][0][1]] -= bottleneck
        residual_demand[reached[1]] -= bottleneck
        pushed += bottleneck
    return {k: v for k, v in flow.items() if v > 0}


def _match(rel_pairs, m1: Marking, m2: Marking, d: bool) -> Optional[tuple]:
    """Shared matcher; returns the association pairs or None."""
    supply: dict = dict(m1.sorted_items())
    demand: dict = dict(m2.sorted_items())
    core: dict = {}
    left_theta = set()
    right_theta = set()
    for a, b in rel_pairs:
        if a is THETA:
            right_theta.add(b)
        elif b is THETA:
            left_theta.add(a)
        else:
            core.setdefault(a, set()).add(b)
    edges = {
        p: sorted(qs & set(demand)) for p, qs in core.items() if p in supply
    }
    if d:
        # Pad both sides with THETA slots; a THETA-THETA arc absorbs slack.
        supply = dict(supply)
        demand = dict(demand)
        supply[_SOURCE] = m2.size
        demand[_SINK] = m1.size
        for p in m1:
            if p in left_theta:
                edges.setdefault(p, []).append(_SINK)
        edges[_SOURCE] = sorted(right_theta & set(m2)) + [_SINK]
    else:
        if m1.size != m2.size:
            return None
    flow = _max_flow_assignment(supply, demand, edges)
    if flow is None:
        return None
    out = []
    for (a, b), units in sorted(
        flow.items(), key=lambda kv: (format_side(None if kv[0][0] is _SOURCE else kv[0][0]),
                                      format_side(None if kv[0][1] is _SINK else kv[0][1]))
    ):
        if a is _SOURCE and b is _SINK:
            continue
        pa = THETA if a is _SOURCE else a
        pb = THETA if b is _SINK else b
        out.extend([(pa, pb)] * units)
    return tuple(out)


def additive_member(rel: PlaceRelation, m1: Marking, m2: Marking) -> Optional[MatchWitness]:
    """Witness that (m1, m2) is in the additive closure of a plain relation.

    Related markings always have equal size, so a size mismatch is an
    immediate miss.
    """
    if rel.is_d_extended:
        raise ModelError("additive_member requires a plain relation")
    pairs = _match(rel.pairs, m1, m2, d=False)
    return None if pairs is None else MatchWitness(pairs)


def d_additive_member(rel: PlaceRelation, m1: Marking, m2: Marking) -> Optional[MatchWitness]:
    """Witness for the d-extended closure, where sizes may differ."""
    pairs = _match(rel.pairs, m1, m2, d=True)
    return None if pairs is None else MatchWitness(pairs)


def related_markings(rel: PlaceRelation, m: Marking, side: str = "left") -> set:
    """All markings paired with m under the plain closure, on the given side.

    side='left' gives every m2 with (m, m2) in the closure; side='right'
    every m1 with (m1, m). THETA entries contribute nothing here. The
    result is the deduplicated `_image_choices` of the places' images.
    """
    if side not in ("left", "right"):
        raise ModelError(f"side must be 'left' or 'right', not {side!r}")
    images: dict = {}
    for a, b in rel.pairs:
        if a is THETA or b is THETA:
            continue
        src, dst = (a, b) if side == "left" else (b, a)
        images.setdefault(src, set()).add(dst)
    if any(p not in images for p in m):
        return set()
    return {Marking(tokens) for tokens in _image_choices((images[p], n) for p, n in m.items())}


def _image_choices(per_place):
    """Each way for every place to give its n tokens n of its images, as one
    iterable of tokens, for the (images, n) pairs `per_place`. Tokens on a
    place are alike, so a place's choices are the multisets of n of its
    images, not their sequences: n + 1 of them for two images, not 2**n."""
    choices = [itertools.combinations_with_replacement(imgs, n) for imgs, n in per_place]
    return map(itertools.chain.from_iterable, itertools.product(*choices))
