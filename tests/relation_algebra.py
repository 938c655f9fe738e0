"""Relation algebra for the law suites: inverse, composition and identity.

pneq itself never builds relations this way; the tests use these to state
the closure laws (inverse, composition) and the identity witness.
"""
from pneq import THETA, PlaceRelation


def inverse(rel: PlaceRelation) -> PlaceRelation:
    return PlaceRelation.of({(b, a) for a, b in rel.pairs}, rel.name)


def compose(r1: PlaceRelation, r2: PlaceRelation) -> PlaceRelation:
    """Relational composition; THETA composes through like any element."""
    by_left: dict = {}
    for b, c in r2.pairs:
        by_left.setdefault(b, set()).add(c)
    pairs = set()
    for a, b in r1.pairs:
        for c in by_left.get(b, ()):
            if a is THETA and c is THETA:
                continue
            pairs.add((a, c))
    return PlaceRelation.of(pairs)


def identity(net) -> PlaceRelation:
    return PlaceRelation.of({(p, p) for p in net.places}, "identity")
