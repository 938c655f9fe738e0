"""Token-level enumerations that `relations.py` and `checkers.py` replaced.

`iter_matchings` walks every token order and deduplicates with a seen-set;
`_Engine.associations` splits place counts instead and must yield the mask
of each association it yields, in the same order. `related_markings` takes
the product of the per-token image sets; `relations.related_markings` takes
one per place and must give the same set.
"""
import itertools

from pneq import THETA, Marking, PlaceRelation
from pneq.relations import format_side


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
