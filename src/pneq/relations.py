"""Place relations and their additive closures.

A place relation is a finite set of ordered pairs of places; the d-extended
variant may also pair a place with the empty marking (THETA). A marking
pair is in the additive closure when its tokens pair off along the
relation, and in the d closure when a token may also pair with THETA.
Tokens on one place are alike, so `_match` answers on places: one
breadth-first augmenting max flow from the left marking's places to the
right one's, each path carrying its whole bottleneck. Shortest augmenting
paths number O(V E) over V places and E pairs whatever the counts, so the
work and the memory follow the places, not the tokens; only the witnesses
of `additive_member` and `d_additive_member` list one pair per token.
"""
from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import ModelError
from .multiset import Marking

# The empty marking used as a pseudo-place in d-extended relations.
THETA = None


def format_side(side) -> str:
    return "0" if side is THETA else side


class PlaceRelation:
    """A finite set of ordered place pairs, optionally with THETA entries.

    Immutable; two relations are equal when their pairs and names are.
    """

    __slots__ = ("pairs", "name")

    def __init__(self, pairs: frozenset, name: str = ""):
        for a, b in pairs:
            if a is THETA and b is THETA:
                raise ModelError("the pair (0, 0) is not allowed in a relation")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "name", name)

    def __setattr__(self, attr, value):
        raise AttributeError("PlaceRelation is immutable")

    def __reduce__(self):
        return PlaceRelation, (self.pairs, self.name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaceRelation):
            return NotImplemented
        return self.pairs == other.pairs and self.name == other.name

    def __hash__(self) -> int:
        return hash((self.pairs, self.name))

    @classmethod
    def of(cls, pairs, name: str = "") -> "PlaceRelation":
        return cls(frozenset(pairs), name)

    @property
    def is_d_extended(self) -> bool:
        return any(a is THETA or b is THETA for a, b in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def sorted_pairs(self) -> list:
        return sorted(self.pairs, key=lambda p: (format_side(p[0]), format_side(p[1])))

    def __repr__(self) -> str:
        body = ", ".join(
            f"({format_side(a)},{format_side(b)})" for a, b in self.sorted_pairs()
        )
        return f"PlaceRelation{{{body}}}"


class MatchWitness(namedtuple("MatchWitness", "pairs")):
    """An association multiset proving closure membership.

    Dropping THETA from the left (right) column of `pairs` yields exactly
    m1 (m2), and every non-(0,0) pair belongs to the relation.
    """

    __slots__ = ()


def _match(rel_pairs, m1: Marking, m2: Marking, d: bool) -> tuple | None:
    """The association of (m1, m2) over the pairs `rel_pairs`, as sorted
    ((a, b), count) pairs, or None when there is none.

    One breadth-first augmenting max flow from m1's places to m2's, each
    path carrying its bottleneck. With `d`, THETA is a node on each side:
    the left one holds |m2| tokens, the right one takes |m1|, and the
    THETA-THETA arc, left out of the result, takes the slack. Arcs are
    searched by partner name, THETA last, and undo arcs in the order of
    their first flow.
    """
    supply = dict(m1.sorted_items())
    demand = dict(m2.sorted_items())
    if d:
        supply[THETA] = m2.size
        demand[THETA] = m1.size
    elif m1.size != m2.size:
        return None
    arcs: dict = {a: [] for a in supply}
    for a, b in rel_pairs:
        if a in arcs and b in demand:
            arcs[a].append(b)
    if d:
        arcs[THETA].append(THETA)
    for bs in arcs.values():
        bs.sort(key=lambda b: (b is THETA, b or ""))
    flow: dict = {}  # (a, b) -> units
    back: dict = {b: [] for b in demand}  # b -> each a that sent it flow, by first flow
    unrouted = sum(supply.values())
    while unrouted:
        # Breadth first from the roots, the left nodes with tokens left. A
        # right node's undo arcs are followed as soon as it is met: the left
        # nodes they reach still queue behind the ones met before.
        lparent = {a: None for a, n in supply.items() if n}
        rparent: dict = {}
        order = list(lparent)
        for a in order:  # grows as the search meets left nodes
            for b in arcs[a]:
                if b in rparent:
                    continue
                rparent[b] = a
                if demand[b]:
                    break
                for c in back[b]:
                    if flow[c, b] and c not in lparent:
                        lparent[c] = b
                        order.append(c)
            else:
                continue
            break
        else:
            return None
        # (a, b) reaches b, which takes tokens; back to a root, the one left
        # node on the path with tokens
        reached, forward, undo = b, [(a, b)], []
        while not supply[a]:
            b = lparent[a]
            undo.append((a, b))
            a = rparent[b]
            forward.append((a, b))
        units = min(supply[a], demand[reached], *(flow[arc] for arc in undo))
        for arc in forward:
            if arc not in flow:
                back[arc[1]].append(arc[0])
                flow[arc] = 0
            flow[arc] += units
        for arc in undo:
            flow[arc] -= units
        supply[a] -= units
        demand[reached] -= units
        unrouted -= units
    return tuple(sorted(
        ((pair, n) for pair, n in flow.items() if n and pair != (THETA, THETA)),
        key=lambda item: (format_side(item[0][0]), format_side(item[0][1])),
    ))


def _witness(grouped) -> MatchWitness | None:
    """The witness of a grouped association, one pair per token, in its
    order. Each pair's list is sized up front, so a count too large to
    list fails at once with MemoryError."""
    if grouped is None:
        return None
    return MatchWitness(tuple(itertools.chain.from_iterable([p] * n for p, n in grouped)))


def additive_member(rel: PlaceRelation, m1: Marking, m2: Marking) -> MatchWitness | None:
    """Witness that (m1, m2) is in the additive closure of a plain relation.

    Related markings always have equal size, so a size mismatch is an
    immediate miss.
    """
    if rel.is_d_extended:
        raise ModelError("additive_member requires a plain relation")
    return _witness(_match(rel.pairs, m1, m2, d=False))


def d_additive_member(rel: PlaceRelation, m1: Marking, m2: Marking) -> MatchWitness | None:
    """Witness for the d-extended closure, where sizes may differ."""
    return _witness(_match(rel.pairs, m1, m2, d=True))


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
