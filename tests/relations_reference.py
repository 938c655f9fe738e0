"""Token-level enumerations that `relations.py` and `checkers.py` replaced.

`iter_matchings` walks every token order and deduplicates with a seen-set;
`_Engine.associations` splits place counts instead and must yield the mask
of each association it yields, in the same order. `related_markings` takes
the product of the per-token image sets; `relations.related_markings` takes
one per place and must give the same set. `_match` routes a generic
supply/demand flow through `_max_flow_assignment`, theta as source and sink
nodes, and lists its association one pair per token; `relations._match`
runs its own flow with theta as a node on each side and groups the pairs,
and must give the same association.
"""
from __future__ import annotations

import itertools
from collections import deque

from pneq import THETA, Marking, PlaceRelation
from pneq.relations import format_side


_SOURCE = ("src",)
_SINK = ("snk",)


def _max_flow_assignment(supply: dict, demand: dict, edges: dict) -> dict | None:
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


def _match(rel_pairs, m1: Marking, m2: Marking, d: bool) -> tuple | None:
    """The association pairs, one per token, or None."""
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


def iter_matchings(pairs, m1: Marking, m2: Marking, d: bool = False):
    """Yield every distinct association multiset over `pairs` for (m1, m2)."""
    allowed = set(pairs)
    tokens1 = list(m1.tokens())
    seen = set()

    def rec(i, remaining, used):
        if i == len(tokens1):
            # Leftover right tokens must each be THETA-covered.
            extra = []
            for q, n in sorted(remaining.items()):
                if n < 0:
                    return
                if n > 0:
                    if not d or (THETA, q) not in allowed:
                        return
                    extra.extend([(THETA, q)] * n)
            key = tuple(sorted(used + extra, key=lambda pr: tuple(map(format_side, pr))))
            if key not in seen:
                seen.add(key)
                yield key
            return
        a = tokens1[i]
        for q in sorted(remaining):
            if remaining[q] > 0 and (a, q) in allowed:
                remaining[q] -= 1
                yield from rec(i + 1, remaining, used + [(a, q)])
                remaining[q] += 1
        if d and (a, THETA) in allowed:
            yield from rec(i + 1, remaining, used + [(a, THETA)])

    yield from rec(0, dict(m2.sorted_items()), [])


def related_markings(rel: PlaceRelation, m: Marking, side: str = "left") -> set:
    """All markings paired with m under the plain closure, token by token."""
    images: dict = {}
    for a, b in rel.pairs:
        if a is THETA or b is THETA:
            continue
        src, dst = (a, b) if side == "left" else (b, a)
        images.setdefault(src, set()).add(dst)
    token_images = []
    for token in m.tokens():
        if token not in images:
            return set()
        token_images.append(sorted(images[token]))
    return {Marking(combo) for combo in itertools.product(*token_images)}
