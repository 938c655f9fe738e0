import random

import pytest

from lts_reference import reference_reach_lts
from pneq import (
    TAU,
    Marking,
    ModelError,
    Net,
    NotEnabledError,
    StateSpaceLimitError,
    Transition,
    enabled,
    fire,
    parse_marking,
    parse_net,
    reach_lts,
)
from pneq.multiset import MAX_MULTIPLICITY
from silent_replay import idle


def t(tid, pre, label, post):
    return Transition(tid, Marking(pre), label, Marking(post))


class TestConstruction:
    def test_empty_preset_rejected(self):
        with pytest.raises(ModelError):
            t("t1", [], "a", ["s1"])

    def test_undeclared_place_rejected(self):
        with pytest.raises(ModelError):
            Net("n", ["s1"], [t("t1", ["s1"], "a", ["s2"])])

    def test_duplicate_transition_id_rejected(self):
        tr = t("t1", ["s1"], "a", [])
        with pytest.raises(ModelError):
            Net("n", ["s1"], [tr, tr])

    def test_duplicate_place_rejected(self):
        with pytest.raises(ModelError):
            Net("n", ["s1", "s1"])

    def test_empty_postset_allowed(self):
        net = Net("n", ["s1"], [t("t1", ["s1"], "a", [])])
        assert net.transitions[0].post.size == 0


class TestTokenGame:
    def test_enabled_when_preset_covered(self, nets):
        net = nets["handshake"]
        t1 = net.transition_index["t1"]
        assert enabled(net, parse_marking("s1+s2", net), t1)

    def test_not_enabled_on_doubled_token(self, nets):
        net = nets["handshake"]
        t1 = net.transition_index["t1"]
        assert not enabled(net, parse_marking("2*s1", net), t1)

    def test_never_enabled_at_empty_marking(self, nets):
        net = nets["handshake"]
        assert not enabled(net, Marking(), net.transition_index["t1"])

    def test_fire_consumes_and_produces(self, nets):
        net = nets["handshake"]
        got = fire(net, parse_marking("s1+s2", net), net.transition_index["t1"])
        assert got == Marking(["s3"])

    def test_fire_idle_is_identity(self, nets):
        net = nets["silent_cells"]
        m = Marking(["s4"])
        assert fire(net, m, idle("s4")) == m

    def test_fire_spawning_transition(self, nets):
        net = nets["spawn_deadlock"]
        got = fire(net, Marking(["s4"]), net.transition_index["t3"])
        assert got == parse_marking("s5+s6", net)

    def test_fire_requires_enabledness(self, nets):
        net = nets["handshake"]
        with pytest.raises(NotEnabledError):
            fire(net, Marking(["s1"]), net.transition_index["t1"])

    def test_foreign_places_rejected(self, nets):
        net = nets["handshake"]
        with pytest.raises(ModelError):
            enabled(net, Marking(["s1"]), t("x", ["nope"], "a", []))

    def test_fire_size_identity_random(self, nets):
        net = nets["producer_consumer"]
        rng = random.Random(7)
        m = parse_marking("P1+C", net)
        for _ in range(200):
            options = [tr for tr in net.transitions if enabled(net, m, tr)]
            if not options:
                break
            tr = rng.choice(options)
            m2 = fire(net, m, tr)
            assert m2.size == m.size - tr.pre.size + tr.post.size
            m = m2


class TestReachability:
    def test_single_token_graph(self, nets):
        net = nets["latent_sync"]
        lts = reach_lts(net, [Marking(["s1"])])
        assert len(lts.states) == 3
        assert sorted(label for _, label, _ in lts.edges) == ["a", "b"]
        assert {net.format_marking(m) for m in lts.states} == {"s1", "s2", "s3"}

    def test_doubled_token_reaches_sync(self, nets):
        net = nets["latent_sync"]
        lts = reach_lts(net, [parse_marking("2*s1", net)])
        assert any(label == "c" for _, label, _ in lts.edges)

    def test_unbounded_net_hits_cap(self, nets):
        net = nets["token_pump"]
        with pytest.raises(StateSpaceLimitError) as err:
            reach_lts(net, [Marking(["s3"])], state_cap=100)
        assert err.value.count == 100

    def test_caps_must_be_positive(self, nets):
        with pytest.raises(ModelError):
            reach_lts(nets["handshake"], [Marking(["s1"])], state_cap=0)

    def test_construction_is_deterministic(self, nets):
        net = nets["tau_loops"]
        init = [parse_marking("s1+s2", net), parse_marking("s3+s5", net)]
        a = reach_lts(net, init)
        b = reach_lts(net, init)
        assert list(a.states) == list(b.states)
        assert list(a.edges) == list(b.edges) and a.initials == b.initials

    def test_a_graph_equals_only_itself(self, nets):
        # Lts compares by identity, by design: two builds of one graph are
        # the same graph when their states, edges and initials are equal.
        net = nets["handshake"]
        m = parse_marking("s1+s2", net)
        a, b = reach_lts(net, [m]), reach_lts(net, [m])
        assert a == a and a != b and len({a, b}) == 2
        assert (list(a.states), list(a.edges), a.initials) == (
            list(b.states), list(b.edges), b.initials)
        assert len(a.edges) > 0

    def test_edges_reference_valid_states(self, nets):
        net = nets["latent_sync"]
        lts = reach_lts(net, [parse_marking("2*s1+s4", net)])
        n = len(lts.states)
        assert all(0 <= i < n and 0 <= j < n for i, _, j in lts.edges)

    def test_overflow_is_raised_before_the_state_cap(self):
        net = Net(
            "o", ["a", "b"],
            [Transition("t", Marking(["a"]), "x", Marking({"a": 1, "b": 1}))],
        )
        m0 = Marking({"a": 1, "b": MAX_MULTIPLICITY})
        for caps in ({}, {"state_cap": 1}):
            with pytest.raises(ModelError) as err:
                reach_lts(net, [m0], **caps)
            assert str(err.value) == "multiplicity overflow at 'b'"

    def test_heavy_arcs_cost_what_light_ones_do(self):
        # The graph and the silent moves walk counts, never token tuples,
        # so an arc weight near MAX_MULTIPLICITY is as quick as a weight
        # of 1: no table of the net expands it into tokens.
        text = "net heavy\nplace a b\ntrans t : a -> x -> a + {}*b"
        net = parse_net(text.format(10**12))
        with pytest.raises(StateSpaceLimitError) as err:
            reach_lts(net, [Marking(["a"])], state_cap=100)
        assert err.value.count == 100
        assert net.silent_moves == {} and "compiled" not in vars(net)
        net = parse_net(text.format(MAX_MULTIPLICITY // 2 + 1))
        with pytest.raises(ModelError) as err:
            reach_lts(net, [Marking(["a"])])
        assert str(err.value) == "multiplicity overflow at 'b'"


def _random_reach_case(rng):
    """A small random net, its initial markings and caps for `reach_lts`."""
    places = [f"p{i}" for i in range(rng.randint(1, 5))]

    def marking(most, allow_empty):
        while True:
            chosen = rng.sample(places, rng.randint(0 if allow_empty else 1, most))
            m = Marking({p: rng.choice((1, 1, 1, 2, 3)) for p in chosen})
            if m.size or allow_empty:
                return m

    transitions = []
    for j in range(rng.randint(0, 6)):
        if transitions and rng.random() < 0.1:  # an equal transition, renamed
            old = rng.choice(transitions)
            transitions.append(Transition(f"t{j}", old.pre, old.label, old.post))
            continue
        pre = marking(min(3, len(places)), allow_empty=False)
        post = pre if rng.random() < 0.15 else marking(min(3, len(places)), allow_empty=True)
        label = rng.choice(("a", "b", TAU, TAU))
        transitions.append(Transition(f"t{j}", pre, label, post))
    net = Net("r", places, transitions)
    initials = [marking(len(places), allow_empty=True) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.2:
        initials.append(rng.choice(initials))
    if rng.random() < 0.1:  # one place near the bound, so firing can overflow
        p = rng.choice(places)
        near = MAX_MULTIPLICITY - rng.randint(0, 2)
        initials[0] = initials[0] + Marking({p: near - initials[0][p]})
    roll = rng.random()
    if roll < 0.2:
        caps = (rng.randint(1, 6), 1_000)
    elif roll < 0.5:
        caps = (200, rng.randint(1, 8))
    else:
        caps = (200, 1_000)
    return net, initials, caps


def _reach_outcome(build, net, initials, caps):
    try:
        lts = build(net, initials, *caps)
    except (ModelError, StateSpaceLimitError) as exc:
        return type(exc), str(exc), getattr(exc, "count", None)
    return list(lts.states), list(lts.edges), lts.initials


def test_reach_lts_matches_the_marking_arithmetic_reference():
    rng = random.Random(2024)
    hits = {"state": 0, "edge": 0, "overflow": 0, "multi_pre": 0, "graphs": 0}
    for case in range(1_500):
        net, initials, caps = _random_reach_case(rng)
        got = _reach_outcome(reach_lts, net, initials, caps)
        want = _reach_outcome(reference_reach_lts, net, initials, caps)
        assert got == want, (case, net.transitions, initials, caps)
        if any(len(t.pre) > 1 for t in net.transitions):
            hits["multi_pre"] += 1
        if want[0] is StateSpaceLimitError:
            hits["state" if want[1].startswith("state space") else "edge"] += 1
        elif want[0] is ModelError:
            hits["overflow"] += 1
        else:
            hits["graphs"] += 1
    assert hits["state"] >= 100 and hits["edge"] >= 100, hits
    assert hits["multi_pre"] >= 500 and hits["graphs"] >= 500, hits
    assert hits["overflow"] >= 10, hits


def _small_pre_set_case(rng):
    """A random net whose pre-sets have one or two places, every arc weight
    from 1 to 3, and two initial markings."""
    places = [f"p{i}" for i in range(rng.randint(1, 4))]

    def marking(sizes, counts):
        chosen = rng.sample(places, min(rng.choice(sizes), len(places)))
        return Marking({p: rng.choice(counts) for p in chosen})

    transitions = [
        Transition(f"t{j}", marking((1, 2), (1, 2, 3)), rng.choice(("a", "b", TAU)),
                   marking((0, 1, 2), (1, 2, 3)))
        for j in range(rng.randint(1, 6))
    ]
    net = Net("w", places, transitions)
    return net, [marking((1, 2, 3, 4), (1, 2, 3, 4)) for _ in range(2)]


def test_reach_lts_tries_pre_sets_by_their_first_place():
    # `reach_lts` fires a move whose pre-set is one place when that place's
    # count in the state's key reaches the arc weight, and reads the other
    # place of a two-place pre-set from the state's counts. The graph must
    # be the reference's, down to each state's edge offset and the label
    # ids, and a cap as large as the graph's count must let it through.
    rng = random.Random(6067)
    hits = {"one_fired": 0, "one_refused": 0, "two_checked": 0, "graphs": 0, "caps": 0}
    for case in range(400):
        net, initials = _small_pre_set_case(rng)
        try:
            want = reference_reach_lts(net, initials, 200, 2_000)
        except StateSpaceLimitError:
            continue
        lts = reach_lts(net, initials, 200, 2_000)
        edges = list(want.edges)
        assert (list(lts.states), list(lts.edges), lts.initials) == (
            want.states, edges, want.initials), case
        n = len(want.states)
        assert lts.edges.starts == [
            sum(src < s for src, _, _ in edges) for s in range(n + 1)], case
        assert lts.edges.names == net.labels and net.labels[0] == TAU, case
        hits["graphs"] += 1
        for m in want.states:
            for tr in net.transitions:
                (first, need), *rest = sorted(
                    (net.place_index[p], k) for p, k in tr.pre.items())
                count = m[net.places[first]]
                if count and not rest:
                    hits["one_fired" if count >= need else "one_refused"] += 1
                elif count >= need:
                    hits["two_checked"] += 1
        e = len(edges)
        for state_cap, edge_cap, error in (
            (n, 2_000, None),
            (n - 1, 2_000, (f"state space too large or unbounded (cap {n - 1})", n - 1)),
            (200, e, None),
            (200, e - 1, (f"edge count exceeded cap {e - 1}", e - 1)),
        ):
            if min(state_cap, edge_cap) <= 0:
                continue
            got = _reach_outcome(reach_lts, net, initials, (state_cap, edge_cap))
            assert got == _reach_outcome(
                reference_reach_lts, net, initials, (state_cap, edge_cap)), case
            if error is None:
                assert got[1:] == (edges, want.initials), case
            else:
                assert got == (StateSpaceLimitError, *error), case
            hits["caps"] += 1
    # when written: 237 graphs, 842 cap runs, 1,808 one-place firings and
    # 1,002 refusals, 1,945 two-place checks
    assert hits["graphs"] >= 200 and hits["caps"] >= 700, hits
    assert hits["one_fired"] >= 1_500 and hits["one_refused"] >= 800, hits
    assert hits["two_checked"] >= 1_500, hits


@pytest.mark.parametrize("rise,state_cap", [(1, 1), (1, 5), (2, 5), (3, 40)])
def test_reach_lts_overflow_bound_edge(rise, state_cap):
    # No firing of `reach_lts` can overflow when the largest initial count
    # plus state_cap times the largest rise is at most MAX_MULTIPLICITY.
    # Here b rises by `rise` per firing: from the largest start within that
    # bound the graph fills the state cap below the limit; from one more
    # the last state's firing overflows before the cap is hit.
    net = Net(
        "o", ["a", "b"],
        [Transition("t", Marking(["a"]), "x", Marking({"a": 1, "b": rise}))],
    )
    edge = MAX_MULTIPLICITY - state_cap * rise
    outcomes = []
    for start in (edge, edge + 1):
        initials, caps = [Marking({"a": 1, "b": start})], (state_cap, 1_000)
        got = _reach_outcome(reach_lts, net, initials, caps)
        assert got == _reach_outcome(reference_reach_lts, net, initials, caps)
        outcomes.append(got[:2])
    assert outcomes == [
        (StateSpaceLimitError, f"state space too large or unbounded (cap {state_cap})"),
        (ModelError, "multiplicity overflow at 'b'"),
    ]


def test_reach_lts_packed_fields_never_carry():
    # `reach_lts` packs place i's count into bits [i*B, (i+1)*B) and fires
    # by adding packed effects; B is one bit more than the length of the
    # docstring's bound. Here the lowest place `a` climbs by 2**k a firing,
    # fed from `p`, and `trade` swaps 2**j of it and `c` for one token of
    # `b`, with `b`, `c` and `p` above it in use. Were a field j bits wide,
    # 2**j tokens of `a` would carry into `b`, and two states would share
    # one packed int. The sweep over k and j covers every field width up to
    # 64 bits, and narrower fields than the bound's fail it; the caps
    # let the graph fit, or hit the cap with `a` at the bound; the starts
    # near MAX_MULTIPLICITY make fields wider than 64 bits, and overflow.
    hits = {"graphs": 0, "wide": 0, "cap": 0, "overflow": 0}
    for k in range(60):
        for j in range(k, k + 4):
            net = Net("climb", ["a", "b", "c", "p"], [
                Transition("fill", Marking(["p"]), "x", Marking({"a": 2**k})),
                Transition("trade", Marking({"a": 2**j, "c": 1}), TAU, Marking(["b"])),
            ])
            for start in (0, 2**k - 1, MAX_MULTIPLICITY - 2**j, MAX_MULTIPLICITY - 2**j + 1):
                counts = {"a": start, "b": 1, "c": 1, "p": 2 ** (j - k)}
                initials = [Marking({p: n for p, n in counts.items() if n})]
                want = _reach_outcome(reference_reach_lts, net, initials, (10_000, 1_000))
                caps = [10_000]
                if want[0] is ModelError:
                    hits["overflow"] += 1
                else:
                    caps += [len(want[0]), len(want[0]) - 1]
                for cap in filter(None, caps):
                    got = _reach_outcome(reach_lts, net, initials, (cap, 1_000))
                    assert got == _reach_outcome(
                        reference_reach_lts, net, initials, (cap, 1_000)), (k, j, start, cap)
                    if got[0] is StateSpaceLimitError:
                        hits["cap"] += 1
                    elif got[0] is not ModelError:
                        hits["graphs"] += 1
                        hits["wide"] += max(counts.values()) + cap * 2**k > MAX_MULTIPLICITY
    # 1,440, 560, 720 and 240 when written
    assert hits["graphs"] >= 1_200 and hits["wide"] >= 500, hits
    assert hits["cap"] >= 600 and hits["overflow"] >= 200, hits


def test_reach_lts_states_read_as_the_reference_list():
    # `reach_lts` keeps each state as token counts and builds its Marking on
    # first read; read in any order or way, the states must be the
    # reference's Markings, each built once.
    rng = random.Random(4051)
    graphs = 0
    for case in range(300):
        net, initials, _ = _random_reach_case(rng)
        try:
            want = reference_reach_lts(net, initials, 200, 1_000).states
        except (ModelError, StateSpaceLimitError):
            continue
        lts = reach_lts(net, initials, 200, 1_000)
        states, n = lts.states, len(want)
        assert len(states) == n, case
        assert states[-1] == want[-1] and states[n // 2] == want[n // 2], case
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                states[i]
        assert [states[i] for i in range(n)] == want, case
        assert list(states) == want, case
        assert repr(states) == repr(want), case
        assert states[-1] is states[n - 1], case
        assert all(states[i] is m for i, m in enumerate(states)), case
        assert states[lts.initials[0]] is initials[0], case
        again = reach_lts(net, initials, 200, 1_000)
        assert (list(again.states), list(again.edges), again.initials) == (
            want, list(lts.edges), lts.initials), case
        graphs += 1
    assert graphs >= 200, graphs  # 237 when written


class TestSafety:
    @pytest.mark.parametrize(
        "name,m0",
        [
            ("handshake", "s1+s2"),
            ("triple_sync", "s1+s2+s3"),
            ("triple_sync", "r1+r2+r3"),
            ("silent_cells", "s1+s2+s4+s5+s6"),
            ("tau_loops", "s1+s2"),
            ("tau_loops", "s3+s5"),
            ("tau_loops", "s6+s8"),
        ],
    )
    def test_safe_nets_stay_one_bounded(self, nets, name, m0):
        net = nets[name]
        states = reach_lts(net, [parse_marking(m0, net)]).states
        assert all(n <= 1 for m in states for n in m.values())

    def test_doubled_marking_is_not_safe(self, nets):
        net = nets["handshake"]
        states = reach_lts(net, [parse_marking("2*s1", net)]).states
        assert not all(n <= 1 for m in states for n in m.values())


def test_place_ids_are_dense_and_named(nets):
    net = nets["handshake"]
    assert list(net.place_index.values()) == [0, 1, 2]
    assert list(net.place_index) == list(net.places)
    assert net.place_index["s3"] == 2


def test_components(nets):
    net = nets["silent_cells"]
    comps = net.components
    assert frozenset({"s1"}) in comps
    assert frozenset({"s2", "s3"}) in comps
    assert frozenset({"s6", "s7", "s8"}) in comps
    assert net.component_of(["s2"]) == {"s2", "s3"}
