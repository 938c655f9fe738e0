"""Relation algebra for the law suites: inverse, composition and identity.

pneq itself never builds relations this way; the tests use these to state
the closure laws (inverse, composition) and the identity witness, and
`validates` to check the association a closure membership returns.
"""
from pneq import THETA, Marking, PlaceRelation


def projections(witness) -> tuple:
    """The two markings a `MatchWitness` associates: the left and the
    right column of its pairs, THETA dropped."""
    return (
        Marking([a for a, _ in witness.pairs if a is not THETA]),
        Marking([b for _, b in witness.pairs if b is not THETA]),
    )


def validates(witness, rel: PlaceRelation, m1: Marking, m2: Marking) -> bool:
    """Whether every pair of the witness is in `rel` and its columns are
    exactly m1 and m2."""
    return all(pair in rel.pairs for pair in witness.pairs) and projections(witness) == (m1, m2)


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
