import random
import zlib
from collections import Counter

import pytest

from pneq import (
    TAU,
    Marking,
    ModelError,
    Net,
    PlaceRelation,
    SearchBudgetError,
    Transition,
    additive_member,
    is_tau_sequential,
    parse_marking,
    parse_net,
)
from pneq.silent import DEFAULT_NODE_BUDGET, run_search
from relation_algebra import inverse
from silent_reference import SilentStep
from silent_reference import run_search as reference_search
from silent_replay import idle, replay, steps_stay_related


def related(rel, left, right) -> bool:
    return additive_member(rel, Marking(left), Marking(right)) is not None


def psi_ok(rel, anchor, direction):
    """The per-step constraint: stepped markings stay related to the anchor."""
    if direction == "psi":
        return lambda mk: related(rel, anchor.tokens(), mk)
    return lambda mk: related(rel, mk, anchor.tokens())


def answer_silently(rel, t, direction):
    """Goal for a tau-sequential move answered by silent steps alone: the final
    marking is related to both the pre- and the post-set of t."""
    pre, post = t.pre.tokens(), t.post.tokens()
    if direction == "psi":
        return lambda f: related(rel, pre, f) and related(rel, post, f)
    return lambda f: related(rel, f, pre) and related(rel, f, post)


def respond(net, rel, anchor, start, direction, goal, node_budget=DEFAULT_NODE_BUDGET):
    """The first response from `start` under the anchor's constraint, as
    the reference search's (blocks, trace), or None; a goal tuple is the
    final marking's tokens, which run_search takes as it is and the
    reference as `goal.__eq__`. run_search must give the reference's
    traces, and every hit must replay to its trace."""
    args = (net.silent_moves, start.tokens(), psi_ok(rel, anchor, direction))
    traces = run_search(*args, goal, node_budget)
    if isinstance(goal, tuple):
        goal = goal.__eq__
    found = reference_search(*args, goal, node_budget)
    assert traces == [trace for _, trace in found]
    for blocks, trace in found:
        assert replay(net, start, blocks) == trace
    return found[0] if found else None


class TestTauSequential:
    def test_single_token_silent_step(self, nets):
        net = nets["silent_cells"]
        assert is_tau_sequential(net, net.transition_index["tb"])

    def test_token_splitting_step_is_not(self, nets):
        net = nets["silent_cells"]
        assert not is_tau_sequential(net, net.transition_index["te"])
        assert not is_tau_sequential(net, net.transition_index["td"])

    def test_silent_synchronization_is_not(self, nets):
        net = nets["silent_sync"]
        assert not is_tau_sequential(net, net.transition_index["t3"])

    def test_visible_step_is_not(self, nets):
        net = nets["handshake"]
        assert not is_tau_sequential(net, net.transition_index["t1"])

    def test_idle_is_tau_sequential(self, nets):
        assert is_tau_sequential(nets["handshake"], idle("s1"))


class TestSilentGraph:
    def test_real_self_loop_kept(self, nets):
        adj = nets["silent_cells"].silent_moves
        assert adj["s4"] == (("s4", "tc"),)
        assert adj["s2"] == (("s3", "tb"),)
        assert "s5" not in adj and "s6" not in adj

    def test_silent_free_net_has_no_edges(self, nets):
        assert nets["handshake"].silent_moves == {}

    def test_producer_consumer_edges(self, nets):
        adj = nets["producer_consumer"].silent_moves
        left = {(src, dst) for src, targets in adj.items() for dst, _ in targets}
        assert left == {
            ("P1", "P2"),
            ("C1", "C2"),
            ("C3", "C"),
            ("C1'", "C2'"),
            ("C3'", "C'"),
        }

    def test_adjacency_is_that_of_the_public_predicate(self, nets, monkeypatch):
        # Net.silent_moves tests its own net's transitions without re-validating
        # them; the adjacency must be the one `is_tau_sequential` gives.
        def reference(net):
            adj = {}
            for t in net.transitions:
                if is_tau_sequential(net, t):
                    adj.setdefault(next(iter(t.pre)), []).append((next(iter(t.post)), t.tid))
            return {p: tuple(sorted(targets)) for p, targets in adj.items()}

        rng = random.Random(1313)
        cases = list(nets.values())
        for n in range(300):
            places = [f"p{i}" for i in range(rng.randint(1, 6))]
            transitions = []
            for j in range(rng.randint(0, 8)):
                pre = Marking(rng.choices(places, k=rng.choice((1, 1, 1, 2))))
                post = Marking(rng.choices(places, k=rng.choice((0, 1, 1, 1, 2))))
                transitions.append(Transition(f"t{j}", pre, rng.choice(("a", TAU, TAU)), post))
            cases.append(Net(f"r{n}", places, transitions))
        want = [reference(net) for net in cases]
        checked = []
        monkeypatch.setattr(Net, "check_transition", lambda net, t: checked.append(t))
        assert [net.silent_moves for net in cases] == want
        assert checked == []
        assert sum(map(len, want)) >= 250, sum(map(len, want))  # 296 when written


class TestFindSilentResponse:
    def test_idling_answers_a_silent_step(self, nets, relations):
        net = nets["producer_consumer"]
        rel = relations["producer_consumer"]
        lt1 = net.transition_index["lt1"]
        start = Marking(["P1'"])
        hit = respond(
            net, rel, lt1.pre, start, "psi", answer_silently(rel, lt1, "psi")
        )
        assert hit is not None
        blocks, trace = hit
        assert blocks == ((("idle", "P1'"),),)
        assert steps_stay_related(rel, lt1.pre, trace, "psi")

    def test_silent_hop_reaches_a_response(self, nets, relations):
        net = nets["producer_consumer"]
        rel = relations["producer_consumer"]
        lt9 = net.transition_index["lt9"]
        rt9 = net.transition_index["rt9"]
        hit = respond(
            net, rel, lt9.pre, Marking(["C1'"]), "psi", rt9.pre.tokens()
        )
        assert hit is not None
        blocks, trace = hit
        assert [s.ref for block in blocks for s in block] == ["rt7"]
        assert trace[-1] == ("C2'",)

    def test_no_response_for_silent_synchronization(self, nets):
        net = nets["silent_sync"]
        rel = PlaceRelation.of({("s1", "s5"), ("s3", "s6")})
        t3 = net.transition_index["t3"]
        start = parse_marking("s1+s3", net)
        assert respond(net, rel, t3.pre, start, "phi", t3.pre.tokens()) is None

    def test_multi_token_response_mixes_idles_and_moves(self, nets, relations):
        net = nets["producer_consumer"]
        rel = relations["producer_consumer"]
        rt5 = net.transition_index["rt5"]  # needs D1'+C'
        lt5 = net.transition_index["lt5"]  # pre D1+C
        start = parse_marking("D1+C3", net)
        hit = respond(net, rel, rt5.pre, start, "phi", lt5.pre.tokens())
        assert hit is not None
        blocks, trace = hit
        assert trace[-1] == parse_marking("D1+C", net).tokens()
        kinds = sorted(step.kind for block in blocks for step in block)
        assert kinds == ["idle", "move"]
        assert steps_stay_related(rel, rt5.pre, trace, "phi")

    def test_witness_blocks_are_acyclic(self, nets, relations):
        net = nets["producer_consumer"]
        rel = relations["producer_consumer"]
        lt9 = net.transition_index["lt9"]
        rt9 = net.transition_index["rt9"]
        blocks, _ = respond(
            net, rel, lt9.pre, Marking(["C1'"]), "psi", rt9.pre.tokens()
        )
        for block in blocks:
            moves = [s for s in block if s.kind == "move"]
            ends = [
                next(iter(net.transition_index[s.ref].post)) for s in moves
            ]
            assert len(set(ends)) == len(ends)

    def test_witness_is_silent(self, nets, relations):
        net = nets["producer_consumer"]
        rel = relations["producer_consumer"]
        lt9 = net.transition_index["lt9"]
        rt9 = net.transition_index["rt9"]
        blocks, _ = respond(
            net, rel, lt9.pre, Marking(["C1'"]), "psi", rt9.pre.tokens()
        )
        moves = [s.ref for block in blocks for s in block if s.kind == "move"]
        assert moves and all(net.transition_index[m].label == TAU for m in moves)

    def test_search_is_deterministic(self, nets, relations):
        net = nets["producer_consumer"]
        rel = relations["producer_consumer"]
        rt5 = net.transition_index["rt5"]
        lt5 = net.transition_index["lt5"]
        start = parse_marking("D1+C3", net)
        a = respond(net, rel, rt5.pre, start, "phi", lt5.pre.tokens())
        b = respond(net, rel, rt5.pre, start, "phi", lt5.pre.tokens())
        assert a == b

    def test_budget_exhaustion_is_an_error(self, nets, relations):
        net = nets["producer_consumer"]
        rel = relations["producer_consumer"]
        rt5 = net.transition_index["rt5"]
        lt5 = net.transition_index["lt5"]
        with pytest.raises(SearchBudgetError, match="silent response") as exc:
            respond(
                net,
                rel,
                rt5.pre,
                parse_marking("D1+C3", net),
                "phi",
                lt5.pre.tokens(),
                node_budget=2,
            )
        assert exc.value.count == 3

    def test_size_mismatch_rejected(self, nets, relations):
        # no marking of another size is closure-related to the anchor
        net = nets["producer_consumer"]
        rel = relations["producer_consumer"]
        lt1 = net.transition_index["lt1"]
        start = parse_marking("P1'+C'", net)
        goal = answer_silently(rel, lt1, "psi")
        assert respond(net, rel, lt1.pre, start, "psi", goal) is None

    def test_limit_and_budget_over_several_responses(self):
        # From a, every silent response is accepted: idling, or an acyclic
        # walk to b, c or d, so the search has four responses to give.
        net = parse_net(
            "net fan\nplace a b c d\n"
            "trans t1 : a -> tau -> b\ntrans t2 : a -> tau -> c\n"
            "trans t3 : b -> tau -> d\ntrans t4 : c -> tau -> d\n"
        )
        adj = net.silent_moves
        anything = lambda tokens: True

        def search(node_budget, limit):
            return run_search(adj, ("a",), anything, anything, node_budget, limit)

        every = search(DEFAULT_NODE_BUDGET, 10)
        assert len(every) >= 3
        assert [trace[-1] for trace in every] == [("a",), ("b",), ("c",), ("d",)]
        for k in range(1, len(every) + 1):
            assert search(DEFAULT_NODE_BUDGET, k) == every[:k]
        found = reference_search(adj, ("a",), anything, anything, DEFAULT_NODE_BUDGET, 10)
        assert [trace for _, trace in found] == every
        for blocks, trace in found:
            assert replay(net, Marking(["a"]), blocks) == trace
        # the start and the idling response are the first two nodes: a
        # budget of two finds that response and no more
        assert search(2, 1) == every[:1]
        for node_budget, limit in ((1, 1), (2, len(every))):
            with pytest.raises(SearchBudgetError, match="silent response"):
                search(node_budget, limit)


def _coin(salt, tokens, percent) -> bool:
    """A seeded predicate on token tuples that no hash seed moves."""
    return zlib.crc32(repr((salt, tokens)).encode()) % 100 < percent


def _random_silent_net(rng, n):
    """Tau-sequential transitions over 1-6 places, with self-loops and
    parallel edges, and some transitions the silent graph leaves out."""
    places = [f"p{i}" for i in range(rng.randint(1, 6))]
    transitions = []
    for _ in range(rng.randint(0, 9)):
        src = rng.choice(places)
        dst = src if rng.random() < 0.15 else rng.choice(places)
        for _ in range(2 if rng.random() < 0.15 else 1):  # a parallel edge
            transitions.append((Marking([src]), TAU, Marking([dst])))
    for _ in range(rng.randint(0, 2)):
        pre = Marking(rng.choices(places, k=rng.randint(1, 2)))
        transitions.append((pre, rng.choice(("a", TAU)), Marking([rng.choice(places)])))
    return Net(f"r{n}", places, [Transition(f"t{j}", *t) for j, t in enumerate(transitions)])


class TestReferenceSearch:
    def test_traces_are_the_reference_traces(self):
        # run_search returns the traces of the block-building search it
        # replaced, in the same order, and runs out of budget at the same
        # node; every reference response replays to its trace.
        rng = random.Random(2718)
        nonempty = several = budget = 0
        for n in range(2000):
            net = _random_silent_net(rng, n)
            start = tuple(sorted(rng.choices(net.places, k=rng.randint(1, 4))))
            psi_rate, goal_rate = rng.choice((100, 90, 70, 40)), rng.choice((100, 60, 30))
            target = tuple(sorted(rng.choices(net.places, k=len(start))))
            salt = rng.getrandbits(32)
            psi = lambda mk: _coin(salt, mk, psi_rate)
            goal = rng.choice((
                lambda f: _coin(salt + 1, f, goal_rate),
                target.__eq__,
            ))
            args = (net.silent_moves, start, psi, goal,
                    min(int(10 ** rng.uniform(0, 6)), DEFAULT_NODE_BUDGET), rng.randint(1, 5))

            def outcome(search):
                try:
                    return search(*args)
                except SearchBudgetError as exc:
                    return ("budget", exc.count)

            got, want = outcome(run_search), outcome(reference_search)
            if isinstance(want, tuple):
                assert got == want, (net.transitions, args)
                budget += 1
                continue
            assert got == [trace for _, trace in want], (net.transitions, args)
            for blocks, trace in want:
                assert replay(net, Marking(start), blocks) == trace
            nonempty += bool(want)
            several += len(want) > 1
        assert nonempty >= 650, nonempty  # 753 when written
        assert several >= 130, several  # 159 when written
        assert budget >= 200, budget  # 241 when written

    def test_an_exact_goal_drops_only_dead_states(self):
        # With a final marking as its goal, run_search drops every state
        # whose finished tokens that marking does not hold. Against the
        # reference with the predicate `goal.__eq__`: the same traces in the
        # same order; never a budget error where the reference answers; and
        # where the reference meets the budget, a budget error or the traces
        # it gives without one. Counting `psi_ok` calls (one per popped
        # state that is not final) against the unpruned search shows that
        # the pruned one pops no more states.
        rng = random.Random(1618)
        dropped = rescued = answered = 0
        for n in range(2000):
            net = _random_silent_net(rng, n)
            start = tuple(sorted(rng.choices(net.places, k=rng.randint(1, 4))))
            target = tuple(sorted(rng.choices(net.places, k=len(start))))
            psi_rate, salt = rng.choice((100, 90, 70, 40)), rng.getrandbits(32)
            budget = min(int(10 ** rng.uniform(0, 6)), DEFAULT_NODE_BUDGET)
            limit = rng.randint(1, 5)
            popped = Counter()

            def psi(mk, search=None):
                popped[search] += 1
                return _coin(salt, mk, psi_rate)

            def outcome(search, goal, node_budget=budget, name=None):
                try:
                    return search(net.silent_moves, start, lambda mk: psi(mk, name), goal,
                                  node_budget, limit)
                except SearchBudgetError:
                    return "budget"

            got = outcome(run_search, target, name="pruned")
            want = outcome(reference_search, target.__eq__)
            if want == "budget":
                unbudgeted = outcome(reference_search, target.__eq__, DEFAULT_NODE_BUDGET)
                assert got in ("budget", [trace for _, trace in unbudgeted]), (
                    net.transitions, start, target, budget, limit)
                rescued += got != "budget"
                continue
            assert got == [trace for _, trace in want], (net.transitions, start, target, limit)
            assert outcome(run_search, target.__eq__, name="unpruned") == got
            assert popped["pruned"] <= popped["unpruned"]
            dropped += popped["pruned"] < popped["unpruned"]
            answered += bool(got)
        assert dropped >= 550, dropped  # 659 when written
        assert rescued >= 55, rescued  # 73 when written
        assert answered >= 550, answered  # 619 when written


class TestPsiHolds:
    def test_empty_sequence_vacuously_holds(self, nets, relations):
        trace = replay(nets["handshake"], Marking(), ())
        assert trace == ((),)
        assert steps_stay_related(relations["permute"], Marking(), trace, "psi")

    def test_non_tau_sequential_step_rejected(self, nets):
        net = nets["silent_cells"]
        with pytest.raises(ModelError):
            replay(net, Marking(["s5"]), ((SilentStep("move", "td"),),))

    def test_idling_inside_longer_block_rejected(self, nets):
        net = nets["silent_cells"]
        block = (SilentStep("idle", "s2"), SilentStep("move", "tb"))
        with pytest.raises(ModelError):
            replay(net, Marking(["s2"]), (block,))

    def test_membership_failure_returns_false(self, nets):
        net = nets["silent_cells"]
        rel = PlaceRelation.of({("s1", "s2")})
        hit = respond(
            net,
            rel,
            Marking(["s1"]),
            Marking(["s2"]),
            "psi",
            answer_silently(rel, idle("s1"), "psi"),
        )
        assert hit is not None
        # the response requires (s1, s2); an unrelated anchor must fail
        assert not steps_stay_related(rel, Marking(["s3"]), hit[1], "psi")

    def test_phi_is_psi_under_the_inverse(self, nets, relations):
        net = nets["producer_consumer"]
        rel = relations["producer_consumer"]
        rt5 = net.transition_index["rt5"]
        lt5 = net.transition_index["lt5"]
        start = parse_marking("D1+C3", net)
        _, trace = respond(net, rel, rt5.pre, start, "phi", lt5.pre.tokens())
        assert steps_stay_related(rel, rt5.pre, trace, "phi") == steps_stay_related(
            inverse(rel), rt5.pre, trace, "psi"
        )

    @pytest.mark.parametrize(
        "name,start,blocks",
        [
            ("producer_consumer", "C1'", ()),  # no block for the token
            ("producer_consumer", "C1'", ((),)),  # an empty block
            ("producer_consumer", "C1'", ((SilentStep("idle", "P1"),),)),
            ("producer_consumer", "P1", ((SilentStep("move", "rt7"),),)),
            (
                "producer_consumer",
                "C1'",
                ((SilentStep("move", "rt7"), SilentStep("move", "rt7")),),
            ),
            (
                "silent_cells",
                "s4",
                ((SilentStep("move", "tc"), SilentStep("move", "tc")),),
            ),
        ],
    )
    def test_malformed_blocks_rejected(self, nets, name, start, blocks):
        net = nets[name]
        with pytest.raises(ModelError):
            replay(net, parse_marking(start, net), blocks)
