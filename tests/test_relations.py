import itertools
import random
import time
from collections import Counter

import pytest

from pneq import (
    Marking,
    ModelError,
    PlaceRelation,
    THETA,
    additive_member,
    d_additive_member,
    parse_marking,
    related_markings,
    verify,
)
from pneq.relations import _match, _witness
from bruteforce import d_perm_member, perm_member, random_instance
from relation_algebra import compose, identity, inverse, projections, validates
import relations_reference


class TestAdditiveMember:
    def test_matching_requires_the_right_permutation(self, nets, relations):
        net = nets["bare_places"]
        rel = relations["permute"]
        w = additive_member(rel, parse_marking("s1+s2", net), parse_marking("s4+s3", net))
        assert w is not None
        assert sorted(w.pairs) == [("s1", "s3"), ("s2", "s4")]
        assert validates(w, rel, parse_marking("s1+s2", net), parse_marking("s4+s3", net))

    def test_empty_markings_always_related(self, relations):
        w = additive_member(relations["permute"], Marking(), Marking())
        assert w is not None and w.pairs == ()

    def test_size_mismatch_is_never_member(self, relations):
        rel = relations["permute"]
        assert additive_member(rel, Marking(["s1"]), Marking({"s1": 2})) is None

    def test_plain_relation_required(self, relations):
        with pytest.raises(ModelError):
            additive_member(
                PlaceRelation.of({("s1", THETA)}), Marking(["s1"]), Marking()
            )

    def test_witness_is_deterministic(self, nets, relations):
        net = nets["bare_places"]
        rel = relations["permute"]
        m1 = parse_marking("s1+s2", net)
        m2 = parse_marking("s4+s3", net)
        assert additive_member(rel, m1, m2) == additive_member(rel, m1, m2)

    def test_agrees_with_permutation_oracle(self):
        rng = random.Random(424242)
        for _ in range(300):
            pairs, m1, m2 = random_instance(rng)
            expected = perm_member(pairs, m1, m2)
            got = additive_member(PlaceRelation.of(pairs), m1, m2)
            assert (got is not None) == expected
            if got is not None:
                assert validates(got, PlaceRelation.of(pairs), m1, m2)


class TestDAdditiveMember:
    def test_spawn_deadlock_memberships(self, nets, relations):
        net = nets["spawn_deadlock"]
        rel = relations["spawn_deadlock"]
        w = d_additive_member(rel, Marking(["s1"]), parse_marking("s4+s5", net))
        assert w is not None and set(w.pairs) == {(THETA, "s5"), ("s1", "s4")}
        w2 = d_additive_member(rel, parse_marking("s2+s3", net), Marking(["s6"]))
        assert w2 is not None and set(w2.pairs) == {("s2", "s6"), ("s3", THETA)}

    def test_plain_relation_behaves_plainly(self, relations):
        rel = relations["permute"]
        assert d_additive_member(rel, Marking(["s1"]), Marking({"s4": 2})) is None

    def test_agrees_with_brute_force(self):
        rng = random.Random(99)
        for _ in range(200):
            pairs, m1, m2 = random_instance(rng, n_places=3, max_tokens=4)
            # sprinkle theta pairs in
            lefts = sorted({a for a, _ in pairs if a is not THETA})
            rights = sorted({b for _, b in pairs if b is not THETA})
            for a in lefts[:2]:
                if rng.random() < 0.5:
                    pairs.add((a, THETA))
            for b in rights[:2]:
                if rng.random() < 0.5:
                    pairs.add((THETA, b))
            rel = PlaceRelation.of(pairs)
            expected = d_perm_member(pairs, m1, m2)
            got = d_additive_member(rel, m1, m2)
            assert (got is not None) == expected
            if got is not None:
                core = [p for p in got.pairs if THETA not in p]
                assert all(p in pairs for p in core)
                assert projections(got) == (m1, m2)


def _matched_pair(rng, places, pairs, theta):
    """A marking pair, and whether it was built along `pairs`: m2 takes
    each of m1's places' tokens, in one or two parts, through its partners
    (or theta), plus theta-covered tokens; otherwise m2 is drawn at random.
    Counts reach 10**6 in one instance in a hundred."""
    top = 10**6 if rng.random() < 0.01 else 4
    m1 = {p: rng.randint(1, top) for p in rng.sample(places, rng.randint(0, len(places)))}
    if rng.random() < 0.3:
        m2 = {p: rng.randint(1, top) for p in rng.sample(places, rng.randint(0, len(places)))}
        return Marking(m1), Marking(m2), False
    m2 = Counter()
    for a, n in m1.items():
        partners = [b for b in places + [THETA] if (a, b) in pairs] or [rng.choice(places)]
        part = rng.randint(0, n)
        m2[rng.choice(partners)] += part
        m2[rng.choice(partners)] += n - part
    if theta:
        for b in places:
            if (THETA, b) in pairs and rng.random() < 0.5:
                m2[b] += rng.randint(1, top)
    del m2[THETA]
    if rng.random() < 0.3:  # one token more or fewer
        b = rng.choice(places)
        m2[b] = max(0, m2[b] + rng.choice((-1, 1)))
    return Marking(m1), Marking(+m2), True


class TestMatcher:
    def test_match_gives_the_reference_association(self):
        """`_match`, expanded to one pair per token, against the reference
        matcher on 10,000 seeded instances: plain and theta relations, given
        as a frozenset and as a sorted list, under both closures, with
        counts up to 10**6. The reference lists the same association."""
        rng = random.Random(2025)
        seen = Counter()
        for i in range(10_000):
            places = [f"p{j}" for j in range(rng.randint(1, 5))]
            density = rng.choice((0.2, 0.5, 0.8))
            pairs = {(a, b) for a in places for b in places if rng.random() < density}
            theta = i % 2 == 1
            if theta:
                pairs |= {(a, THETA) for a in places if rng.random() < 0.5}
                pairs |= {(THETA, b) for b in places if rng.random() < 0.5}
            m1, m2, built = _matched_pair(rng, places, pairs, theta)
            given = frozenset(pairs) if i % 4 < 2 else PlaceRelation.of(pairs).sorted_pairs()
            big = max(m1.size, m2.size) > 10**5
            for d in (False, True):
                want = relations_reference._match(given, m1, m2, d)
                got = _match(given, m1, m2, d)
                witness = _witness(got)
                assert (None if witness is None else witness.pairs) == want, (
                    sorted(pairs, key=str), m1, m2, d)
                if got is not None:
                    assert all(n > 0 for _, n in got)
                seen[theta, d, got is not None, big] += 1
        assert min(n for (_, _, _, big), n in seen.items() if not big) >= 400, seen
        assert min(n for (_, _, _, big), n in seen.items() if big) >= 2, seen

    def test_cost_follows_the_places_not_the_tokens(self, nets, relations):
        net = nets["bare_places"]
        m1, m2 = Marking({"s1": 10**18}), Marking({"s3": 10**18})
        t0 = time.perf_counter()
        v = verify(net, relations["permute"], "place", m1, m2)
        assert v.status == "related"
        assert time.perf_counter() - t0 < 0.5
        assert _match(relations["permute"].pairs, m1, m2, False) == ((("s1", "s3"), 10**18),)


class TestRelatedMarkings:
    def test_image_products(self, nets, relations):
        net = nets["bare_places"]
        got = related_markings(relations["permute"], parse_marking("s1+s2", net), "left")
        assert got == {parse_marking("s3+s4", net), parse_marking("2*s4", net)}

    def test_empty_marking_maps_to_itself(self, relations):
        assert related_markings(relations["permute"], Marking(), "left") == {
            Marking()
        }

    def test_right_side_uses_preimages(self, relations):
        got = related_markings(relations["permute"], Marking(["s4"]), "right")
        assert got == {Marking(["s1"]), Marking(["s2"])}

    def test_delivery_preset_image(self, nets, relations):
        net = nets["producer_consumer"]
        pre = parse_marking("D1+C", net)
        assert related_markings(relations["producer_consumer"], pre, "left") == {
            parse_marking("D1'+C'", net)
        }

    def test_token_without_image_kills_product(self, relations):
        assert related_markings(relations["permute"], Marking(["s5"]), "left") == set()

    def test_agrees_with_the_token_product(self):
        # One image multiset per place against the product over tokens, on
        # random relations with theta pairs and up to 5 tokens on a place.
        rng = random.Random(404)
        places = ["p0", "p1", "p2", "p3"]
        sides = THETA, *places
        nonempty = 0
        for _ in range(600):
            pairs = {(a, b) for a in sides for b in sides
                     if (a, b) != (THETA, THETA) and rng.random() < 0.35}
            rel = PlaceRelation.of(pairs)
            m = Marking(rng.choice(places[:rng.randint(1, 4)]) for _ in range(rng.randint(0, 5)))
            for side in ("left", "right"):
                got = related_markings(rel, m, side)
                assert got == relations_reference.related_markings(rel, m, side), (pairs, m, side)
                nonempty += len(got) > 1
        assert nonempty >= 400, nonempty  # 506 when written

    def test_many_tokens_on_one_place(self):
        # 200 tokens on a place with two images: 201 images, not 2^200 products
        rel = PlaceRelation.of({("s1", "s2"), ("s1", "s3")})
        got = related_markings(rel, Marking({"s1": 200}), "left")
        assert len(got) == 201
        assert Marking({"s2": 120, "s3": 80}) in got


class TestAlgebra:
    def test_inverse_and_compose(self):
        assert inverse(PlaceRelation.of({("s1", "s3")})).pairs == {("s3", "s1")}
        got = compose(PlaceRelation.of({("s1", "s3")}), PlaceRelation.of({("s3", "s6")}))
        assert got.pairs == {("s1", "s6")}

    def test_identity(self, nets):
        net = nets["handshake"]
        assert identity(net).pairs == {("s1", "s1"), ("s2", "s2"), ("s3", "s3")}

    def test_double_theta_never_stored(self):
        with pytest.raises(ModelError):
            PlaceRelation.of({(THETA, THETA)})
        # composing theta pairs through never produces (theta, theta)
        left = PlaceRelation.of({("a", THETA)})
        right = PlaceRelation.of({(THETA, "b")})
        assert compose(left, right).pairs == {("a", "b")}


class TestClosureLaws:
    def test_monotone(self):
        rng = random.Random(5150)
        for _ in range(150):
            pairs, m1, m2 = random_instance(rng)
            if not pairs:
                continue
            sub = {p for p in pairs if rng.random() < 0.5}
            small = PlaceRelation.of(sub)
            big = PlaceRelation.of(pairs)
            if additive_member(small, m1, m2) is not None:
                assert additive_member(big, m1, m2) is not None

    def test_additive(self):
        rng = random.Random(6)
        for _ in range(150):
            pairs, m1, m2 = random_instance(rng)
            pairs2, m3, m4 = random_instance(rng)
            rel = PlaceRelation.of(pairs | pairs2)
            if (
                additive_member(rel, m1, m2) is not None
                and additive_member(rel, m3, m4) is not None
            ):
                assert additive_member(rel, m1 + m3, m2 + m4) is not None

    def test_inverse_law(self):
        rng = random.Random(77)
        for _ in range(150):
            pairs, m1, m2 = random_instance(rng)
            rel = PlaceRelation.of(pairs)
            fwd = additive_member(rel, m1, m2) is not None
            bwd = additive_member(inverse(rel), m2, m1) is not None
            assert fwd == bwd
            dfwd = d_additive_member(rel, m1, m2) is not None
            dbwd = d_additive_member(inverse(rel), m2, m1) is not None
            assert dfwd == dbwd

    def test_composition_law_small(self):
        rng = random.Random(88)
        mids = [f"m{i}" for i in range(3)]
        for _ in range(100):
            left = {(f"a{i}", rng.choice(mids)) for i in range(3) if rng.random() < 0.7}
            right = {(rng.choice(mids), f"b{i}") for i in range(3) if rng.random() < 0.7}
            r1, r2 = PlaceRelation.of(left), PlaceRelation.of(right)
            m1 = Marking([f"a{rng.randint(0, 2)}" for _ in range(rng.randint(0, 3))])
            m3 = Marking([f"b{rng.randint(0, 2)}" for _ in range(rng.randint(0, 3))])
            via_compose = additive_member(compose(r1, r2), m1, m3) is not None
            # brute force: try every middle marking of the right size
            found = False
            if m1.size == m3.size:
                for combo in itertools.product(mids, repeat=m1.size):
                    mid = Marking(combo)
                    if (
                        additive_member(r1, m1, mid) is not None
                        and additive_member(r2, mid, m3) is not None
                    ):
                        found = True
                        break
            assert via_compose == found
