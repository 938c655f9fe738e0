import sys
import time
from collections import Counter
from types import CodeType

import pytest

from pneq import (
    DecideCaps,
    KINDS,
    Marking,
    ModelError,
    Net,
    PlaceRelation,
    SearchBudgetError,
    THETA,
    Transition,
    check_relation,
    decide,
    pair_universe,
    parse_marking,
    verify,
)
from pneq import checkers
from pneq.checkers import _Engine
from relation_algebra import compose, identity, inverse
from silent_replay import silent_witnesses


class TestCheckRelationPlace:
    def test_identity_and_swap_are_bisimulations(self, nets):
        net = nets["handshake"]
        swap = PlaceRelation.of({("s1", "s2"), ("s2", "s1"), ("s3", "s3")})
        assert check_relation(net, identity(net), "place").ok
        assert check_relation(net, swap, "place").ok

    def test_union_of_bisimulations_can_fail(self, nets):
        net = nets["handshake"]
        swap = PlaceRelation.of({("s1", "s2"), ("s2", "s1"), ("s3", "s3")})
        union = PlaceRelation.of(identity(net).pairs | swap.pairs)
        report = check_relation(net, union, "place")
        assert not report.ok
        assert all(v.reason == "no-response" for v in report.violations)
        sizes = {
            (net.transition_index[v.transition].pre.size, v.marking.size)
            for v in report.violations
        }
        assert sizes == {(2, 2)}

    def test_componentwise_relation_fails_on_joint_presets(self, nets):
        net = nets["triple_sync"]
        rel = PlaceRelation.of({("s1", "r1"), ("s2", "r2"), ("s3", "r3")})
        report = check_relation(net, rel, "place")
        assert not report.ok
        assert any(
            v.transition == "t2" and v.marking == parse_marking("r1+r3", net)
            for v in report.violations
        )

    def test_empty_relation_is_a_bisimulation_of_every_kind(self, nets):
        empty = PlaceRelation.of(set())
        for kind in KINDS:
            assert check_relation(nets["tau_loops"], empty, kind).ok

    def test_plain_kinds_reject_theta(self, nets):
        rel = PlaceRelation.of({("s1", THETA)})
        with pytest.raises(ModelError):
            check_relation(nets["handshake"], rel, "place")

    def test_unknown_place_rejected(self, nets):
        rel = PlaceRelation.of({("s1", "zz")})
        with pytest.raises(ModelError):
            check_relation(nets["handshake"], rel, "place")

    def test_a_crowded_pre_set_answers_at_once(self):
        # k tokens on a place with two images: the image set is the k + 1
        # ways to split them between the two, not 2**k token sequences
        k = 200
        net = Net("crowded", ["p", "a", "b", "q"], [
            Transition(f"t{p}", Marking({p: k}), "x", Marking(["q"])) for p in ("p", "a", "b")
        ])
        rel = PlaceRelation.of({("p", "a"), ("p", "b"), ("q", "q")})
        t0 = time.perf_counter()
        report = check_relation(net, rel, "place")
        elapsed = time.perf_counter() - t0
        # of the images of k*p, only k*a and k*b have a transition to answer
        assert len(report.violations) == k - 1
        assert {(v.transition, v.side) for v in report.violations} == {("tp", 1)}
        assert elapsed < 1.0, f"{elapsed:.3f}s"


class TestCheckRelationBranching:
    def test_producer_consumer_relation_passes(self, nets, relations):
        report = check_relation(
            nets["producer_consumer"], relations["producer_consumer"], "bplace"
        )
        assert report.ok

    def test_detour_relations_pass(self, nets, relations):
        net = nets["tau_loops"]
        assert check_relation(net, relations["tau_loops_r1"], "bplace").ok
        assert check_relation(net, relations["tau_loops_r2"], "bplace").ok

    def test_union_with_identity_fails(self, nets, relations):
        net = nets["tau_loops"]
        union = PlaceRelation.of(relations["tau_loops_r1"].pairs | identity(net).pairs)
        report = check_relation(net, union, "bplace")
        assert not report.ok
        markings = {v.marking for v in report.violations if v.transition == "ta"}
        assert parse_marking("s2+s3", net) in markings

    def test_budget_exhaustion_is_an_error_not_a_violation(self, nets, relations):
        with pytest.raises(SearchBudgetError):
            check_relation(
                nets["producer_consumer"],
                relations["producer_consumer"],
                "bplace",
                node_budget=1,
            )

    def test_responses_and_the_walk_build_no_markings(self, nets, relations, monkeypatch):
        # Responses come back as token traces, and neither they nor the
        # condition walk make Markings of them: none is built in the frame
        # of `failures`, of _respond_compute or of a function nested in it
        # (its psi and goal closures), matched by code object.
        code = _Engine._respond_compute.__code__
        codes = {code} | {c for c in code.co_consts if isinstance(c, CodeType)}
        walk = _Engine.failures.__code__
        built = Counter()
        init = Marking.__init__

        def spy(self, *args, **kwargs):
            caller = sys._getframe(1).f_code
            if caller in codes or caller is walk:
                built[caller.co_name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Marking, "__init__", spy)
        net = nets["producer_consumer"]
        m1, m2 = parse_marking("P1+C", net), parse_marking("P1'+C'", net)
        for kind in ("bplace", "bdplace"):
            v = decide(net, m1, m2, kind, "exhaustive")
            assert v.status == "related"
            assert sum(built.values()) == 0, (kind, built)
        assert check_relation(net, relations["producer_consumer"], "bplace").ok
        assert sum(built.values()) == 0, built

    def test_the_accepted_silent_traces(self, nets, relations):
        # the traces the check of the producer_consumer relation accepts,
        # pinned: 38, 30 of them staying at their start
        traces = silent_witnesses(nets["producer_consumer"], relations["producer_consumer"],
                                  "bplace")
        assert len(traces) == 38
        stays = [t for _, _, t in traces if len(set(t)) == 1]
        assert len(stays) == 30
        assert all(len(t) in (2, t[0].size + 1) for t in stays)


class TestCheckRelationD:
    def test_spawn_deadlock_relation(self, nets, relations):
        assert check_relation(nets["spawn_deadlock"], relations["spawn_deadlock"], "dplace").ok

    def test_stuck_sync_relation(self, nets, relations):
        assert check_relation(nets["stuck_sync"], relations["stuck_sync"], "dplace").ok

    def test_tau_chain_relation(self, nets, relations):
        assert check_relation(nets["tau_chain"], relations["tau_chain"], "bdplace").ok

    def test_theta_on_an_enabled_place_is_rejected(self, nets):
        # relating a place with outgoing transitions to the empty marking
        # (and its partner from the empty marking) must not pass
        net = nets["token_pump"]
        rel = PlaceRelation.of({("s1", THETA), (THETA, "s3")})
        report = check_relation(net, rel, "bdplace")
        assert not report.ok
        assert all(v.reason == "closure-failure" for v in report.violations)

    def test_theta_on_a_dead_place_is_fine(self, nets):
        net = nets["spawn_deadlock"]
        rel = PlaceRelation.of({("s3", THETA), (THETA, "s5")})
        assert check_relation(net, rel, "dplace").ok


class TestDecide:
    def test_handshake_tokens_swap(self, nets):
        net = nets["handshake"]
        v = decide(net, Marking(["s1"]), Marking(["s2"]), "place", "exhaustive")
        assert v.status == "related"
        assert v.witness is not None
        assert check_relation(net, v.witness, "place").ok

    def test_size_mismatch_has_no_association(self, nets):
        net = nets["handshake"]
        v = decide(net, Marking(["s1"]), parse_marking("s1+s2", net), "place")
        assert v.status == "not-related" and v.mode_used == "exhaustive"
        assert v.stats.get("reason") == "no association over the pair universe"

    def test_componentwise_games_do_not_imply_the_joint_one(self, nets):
        # the one-step game holds piecewise, yet the triple is not related
        net = nets["triple_sync"]
        assert (
            decide(net, parse_marking("s1+s3", net), parse_marking("r1+r2", net),
                   "place", "exhaustive").status
            == "related"
        )
        assert (
            decide(net, Marking(["s2"]), Marking(["r3"]), "place", "exhaustive").status
            == "related"
        )
        v = decide(
            net,
            parse_marking("s1+s2+s3", net),
            parse_marking("r1+r2+r3", net),
            "place",
            "exhaustive",
        )
        assert v.status == "not-related"

    @pytest.mark.parametrize(
        "m1,m2,expected",
        [
            ("s1", "s2", "related"),
            ("s1", "s4", "related"),
            ("s2", "s5", "not-related"),
            ("s2", "s6", "not-related"),
        ],
    )
    def test_silent_cells_suite(self, nets, m1, m2, expected):
        net = nets["silent_cells"]
        v = decide(net, Marking([m1]), Marking([m2]), "bplace", "exhaustive")
        assert v.status == expected

    def test_dead_partner_not_d_related(self, nets):
        net = nets["dead_partner"]
        v = decide(net, Marking(["s1"]), parse_marking("s3+s4", net), "dplace", "exhaustive")
        assert v.status == "not-related"

    def test_identity_pairs_relate_everything_to_itself(self, nets):
        net = nets["tau_loops"]
        m = parse_marking("s1+s2", net)
        for kind in KINDS:
            v = decide(net, m, m, kind, "exhaustive")
            assert v.status == "related"
            needed = {(p, p) for p in m.support()}
            assert needed <= set(v.witness.pairs)

    def test_guided_finds_the_producer_consumer_witness(self, nets):
        net = nets["producer_consumer"]
        v = decide(
            net,
            parse_marking("P1+C", net),
            parse_marking("P1'+C'", net),
            "bplace",
            "guided",
        )
        assert v.status == "related" and len(v.witness) == 13
        assert check_relation(net, v.witness, "bplace").ok

    def test_guided_handles_theta_pairs(self, nets, relations):
        net = nets["tau_chain"]
        v = decide(
            net, Marking(["s1"]), parse_marking("s4+s5", net), "bdplace", "guided"
        )
        assert v.status == "related"
        assert v.witness.pairs == relations["tau_chain"].pairs

    def test_guided_never_answers_not_related(self, nets):
        for net_name, m1, m2, kind in [
            ("silent_cells", "s2", "s5", "bplace"),
            # markings of different sizes: no association to grow from
            ("handshake", "s1", "s1+s2", "place"),
            ("handshake", "s1", "s1+s2", "bplace"),
        ]:
            net = nets[net_name]
            v = decide(net, parse_marking(m1, net), parse_marking(m2, net), kind, "guided")
            assert v.status == "unknown", (net_name, kind)

    def test_auto_picks_exhaustive_on_small_universes(self, nets):
        net = nets["silent_cells"]
        v = decide(net, Marking(["s1"]), Marking(["s2"]), "bplace", "auto")
        assert v.mode_used == "exhaustive"

    def test_auto_decides_producer_consumer_exhaustively(self, nets):
        net = nets["producer_consumer"]
        m1, m2 = parse_marking("P1+C", net), parse_marking("P1'+C'", net)
        v = decide(net, m1, m2, "bplace", "auto")
        assert v.stats["universe"] > 22  # past the old universe threshold
        assert v.mode_used == "exhaustive" and "reason" not in v.stats
        assert v.status == "related" and len(v.witness) == 13

    def test_auto_answers_unknown_at_the_node_cap(self, nets, monkeypatch):
        # Auto mode runs one search: past its cap it answers unknown with
        # that search's stats and the cap's message as the reason, and runs
        # no second search. The query's associations are enumerated once;
        # repair makes its own calls, through `repair_choices`. Calls
        # counted by the caller's name.
        monkeypatch.setattr("pneq.checkers.SEARCH_CAP", 1)
        associations = _Engine.associations
        search = checkers._demand_search
        callers = Counter()

        def spy(self, *args):
            callers[sys._getframe(1).f_code.co_name] += 1
            return associations(self, *args)

        def search_spy(*args):
            callers["_demand_search"] += 1
            return search(*args)

        monkeypatch.setattr(_Engine, "associations", spy)
        monkeypatch.setattr(checkers, "_demand_search", search_spy)
        net = nets["producer_consumer"]
        m1, m2 = parse_marking("P1+C", net), parse_marking("P1'+C'", net)
        v = decide(net, m1, m2, "bplace", "auto")
        assert (v.status, v.witness, v.mode_used) == ("unknown", None, "exhaustive")
        callers.pop("repair_choices", None)
        assert callers == {"decide": 1, "_demand_search": 1}, callers
        assert v.stats["reason"] == "relation search exceeded 1 nodes"
        # it checked one relation, the scan's 55th candidate
        assert v.stats["relations_checked"] == 1
        assert v.stats["relations_examined"] == 55
        assert v.stats["pruned_pairs"] == 39
        assert v.stats["associations"] == 1
        assert v.stats["associations_refuted"] == 0
        for key in ("compile_s", "prune_s", "search_s"):
            assert isinstance(v.stats[key], float) and 0.0 <= v.stats[key] <= v.stats["wall_time_s"]
        assert v.stats["prune_s"] <= v.stats["compile_s"]
        assert not [k for k in v.stats if k == "fallback" or k.startswith("exhaustive_")]

    def test_auto_at_the_node_cap_never_refutes(self, nets, monkeypatch):
        # an exhausted cap is never a refutation, even where the full
        # search is one
        net = nets["latent_sync"]
        m1, m2 = Marking(["s1"]), Marking(["s4"])
        v = decide(net, m1, m2, "place", "exhaustive")
        assert v.status == "not-related" and v.stats["relations_checked"] == 3
        monkeypatch.setattr("pneq.checkers.SEARCH_CAP", 1)
        v = decide(net, m1, m2, "place", "auto")
        assert (v.status, v.witness, v.mode_used) == ("unknown", None, "exhaustive")
        assert v.stats["relations_checked"] == 1
        assert v.stats["reason"] == "relation search exceeded 1 nodes"

    def test_minimal_witness_in_pair_count(self, nets):
        net = nets["handshake"]
        v = decide(net, Marking(["s1"]), Marking(["s2"]), "place", "exhaustive")
        assert v.witness.pairs == frozenset({("s1", "s2")})

    def test_exhaustive_finds_a_silent_detour_witness(self, nets, relations):
        net = nets["tau_loops"]
        v = decide(
            net,
            parse_marking("s1+s2", net),
            parse_marking("s3+s5", net),
            "bplace",
            "exhaustive",
        )
        assert v.status == "related"
        assert v.witness.pairs == relations["tau_loops_r1"].pairs

    def test_exhaustive_node_budget_errors_out(self, nets):
        net = nets["tau_loops"]
        with pytest.raises(SearchBudgetError):
            decide(
                net,
                parse_marking("s1+s2", net),
                parse_marking("s3+s5", net),
                "bplace",
                "exhaustive",
                DecideCaps(node_budget=1),
            )

    def test_witness_reverification_uses_the_node_budget(self, nets, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("node_budget"))
            return check_relation(*args, **kwargs)

        monkeypatch.setattr("pneq.checkers.check_relation", spy)
        net = nets["handshake"]
        v = decide(
            net,
            Marking(["s1"]),
            Marking(["s2"]),
            "place",
            "exhaustive",
            DecideCaps(node_budget=1234),
        )
        assert v.status == "related" and seen == [1234]

    @pytest.mark.parametrize(
        "field,value",
        [
            ("node_budget", -1),
            ("node_budget", 0),
        ],
    )
    def test_caps_are_validated(self, field, value, nets, relations):
        with pytest.raises(ModelError, match="caps must be positive"):
            DecideCaps(**{field: value})
        # check_relation takes the same budget, under every kind
        net, rel = nets["producer_consumer"], relations["producer_consumer"]
        for kind in KINDS:
            with pytest.raises(ModelError, match="caps must be positive"):
                check_relation(net, rel, kind, **{field: value})


class TestVerify:
    def test_producer_consumer(self, nets, relations):
        net = nets["producer_consumer"]
        v = verify(
            net,
            relations["producer_consumer"],
            "bplace",
            parse_marking("P1+C", net),
            parse_marking("P1'+C'", net),
        )
        assert v.status == "related"

    def test_undeclared_markings_are_rejected(self, nets, relations):
        net = nets["producer_consumer"]
        rel = relations["producer_consumer"]
        good = parse_marking("P1+C", net)
        for m1, m2 in ((Marking(["nope"]), good), (good, Marking(["nope"]))):
            with pytest.raises(ModelError):
                verify(net, rel, "bplace", m1, m2)
            with pytest.raises(ModelError):
                decide(net, m1, m2, "bplace")

    def test_wrong_membership_is_unknown_not_negative(self, nets, relations):
        net = nets["tau_loops"]
        v = verify(
            net,
            relations["tau_loops_r1"],
            "bplace",
            parse_marking("s1+s2", net),
            parse_marking("s6+s8", net),
        )
        assert v.status == "unknown"
        assert v.stats["relation_ok"] and not v.stats["membership_ok"]

    def test_witness_symmetry_under_inverse(self, nets, relations):
        net = nets["tau_loops"]
        v = verify(
            net,
            inverse(relations["tau_loops_r1"]),
            "bplace",
            parse_marking("s3+s5", net),
            parse_marking("s1+s2", net),
        )
        assert v.status == "related"

    def test_composed_witnesses_still_check(self, nets, relations):
        net = nets["producer_consumer"]
        rel = relations["producer_consumer"]
        assert check_relation(net, compose(rel, inverse(rel)), "bplace").ok


class TestUniverse:
    def test_disjoint_components_give_the_product(self, nets):
        net = nets["silent_cells"]
        u = pair_universe(net, Marking(["s2"]), Marking(["s6"]), "bplace")
        assert set(u) == {(a, b) for a in ("s2", "s3") for b in ("s6", "s7", "s8")}

    def test_shared_component_gives_the_square(self, nets):
        net = nets["token_pump"]
        u = pair_universe(net, Marking(["s1"]), Marking(["s3"]), "bplace")
        assert len(u) == 16

    def test_theta_rows_and_columns_for_d_kinds(self, nets):
        net = nets["token_pump"]
        u = pair_universe(net, Marking(["s1"]), Marking(["s3"]), "bdplace")
        assert len(u) == 24
        assert ("s1", THETA) in u and (THETA, "s4") in u


class TestInclusionChain:
    def test_place_witness_passes_the_coarser_checks(self, nets):
        net = nets["handshake"]
        v = decide(net, Marking(["s1"]), Marking(["s2"]), "place", "exhaustive")
        for kind in ("dplace", "bplace", "bdplace"):
            assert check_relation(net, v.witness, kind).ok

    def test_branching_witness_passes_the_d_check(self, nets, relations):
        net = nets["tau_loops"]
        assert check_relation(net, relations["tau_loops_r1"], "bdplace").ok

    def test_silent_free_nets_collapse_place_and_branching(self, nets):
        for name in ("handshake", "triple_sync", "latent_sync"):
            net = nets[name]
            for m1, m2 in [("s1", "s2")] if name == "handshake" else []:
                a = decide(net, Marking([m1]), Marking([m2]), "place", "exhaustive")
                b = decide(net, Marking([m1]), Marking([m2]), "bplace", "exhaustive")
                assert a.status == b.status
            ident = identity(net)
            assert check_relation(net, ident, "place").ok
            assert check_relation(net, ident, "bplace").ok
