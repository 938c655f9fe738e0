import itertools
import random

import pytest

from lts_reference import _eps_reach
from lts_reference import branching_relation as reference_branching
from lts_reference import (
    signature_branching_partition,
    signature_strong_partition,
)
from lts_reference import strong_relation as reference_strong
from pneq import (
    TAU,
    Marking,
    Net,
    Transition,
    branching_bisim,
    decide_interleaving,
    parse_marking,
    reach_lts,
    strong_bisim,
)
from pneq.ltsbisim import branching_relation, strong_partition
from pneq.net import Lts


def joint(net, e1, e2):
    return reach_lts(net, [parse_marking(e1, net), parse_marking(e2, net)])


class TestStrong:
    def test_single_tokens_equivalent(self, nets):
        net = nets["latent_sync"]
        lts = joint(net, "s1", "s4")
        assert strong_bisim(lts, lts.initials[0], lts.initials[1])

    def test_doubled_tokens_differ(self, nets):
        net = nets["latent_sync"]
        lts = joint(net, "2*s1", "2*s4")
        assert not strong_bisim(lts, lts.initials[0], lts.initials[1])

    def test_reflexive(self, nets):
        net = nets["latent_sync"]
        lts = joint(net, "s1", "s1")
        assert strong_bisim(lts, lts.initials[0], lts.initials[1])


class TestBranching:
    def test_silent_step_to_stuck_matches_silent_drop(self, nets):
        net = nets["silent_cells"]
        lts = joint(net, "s2", "s5")
        assert branching_bisim(lts, lts.initials[0], lts.initials[1])

    def test_silent_step_matched_by_idling(self, nets):
        net = nets["silent_cells"]
        lts = joint(net, "s1", "s2")
        assert branching_bisim(lts, lts.initials[0], lts.initials[1])

    def test_reflexive(self, nets):
        net = nets["silent_cells"]
        lts = joint(net, "s2", "s2")
        assert branching_bisim(lts, lts.initials[0], lts.initials[1])

    def test_visible_choice_not_collapsed(self, nets):
        net = nets["latent_sync"]
        lts = joint(net, "2*s1", "2*s4")
        assert not branching_bisim(lts, lts.initials[0], lts.initials[1])


def _induced(block) -> frozenset:
    """The equivalence relation whose classes are the blocks."""
    n = len(block)
    return frozenset((i, j) for i in range(n) for j in range(n) if block[i] == block[j])


def _random_lts(rng) -> Lts:
    """1-9 states, half the edges silent: silent cycles and self-loops are common."""
    n = rng.randint(1, 9)
    labels = (TAU, TAU, "a", "b")
    edges = [
        (rng.randrange(n), rng.choice(labels), rng.randrange(n))
        for _ in range(rng.randint(0, 2 * n))
    ]
    return Lts(states=list(range(n)), edges=edges)


def test_partitions_match_the_reference_fixpoint():
    rng = random.Random(2024)
    silent_cycles = 0
    for _ in range(2000):
        lts = _random_lts(rng)
        branching, strong = branching_relation(lts), strong_partition(lts)
        assert _induced(branching) == reference_branching(lts), lts.edges
        assert _induced(strong) == reference_strong(lts), lts.edges
        assert branching == signature_branching_partition(lts), lts.edges
        assert strong == signature_strong_partition(lts), lts.edges
        eps = _eps_reach(lts)
        silent_cycles += any(
            label == TAU and src in eps[dst] for src, label, dst in lts.edges
        )
    assert silent_cycles >= 500


CORPUS_LTSS = [
    ("latent_sync", "s1", "s4"),
    ("latent_sync", "2*s1", "2*s4"),
    ("silent_cells", "s2", "s5"),
    ("silent_cells", "s1", "s4"),
    ("tau_loops", "s1+s2", "s3+s5"),
    ("tau_loops", "s1+s2", "s6+s8"),
    ("spawn_deadlock", "s1", "s4"),
    ("tau_chain", "s1", "s4+s5"),
]


def _ring(n: int) -> Net:
    """n places in a cycle, moves alternately visible and silent."""
    places = [f"r{i}" for i in range(n)]
    return Net("ring", places, [
        Transition(f"t{i}", Marking([p]), "a" if i % 2 else TAU,
                   Marking([places[(i + 1) % n]]))
        for i, p in enumerate(places)
    ])


def test_the_graph_oracles_build_no_state_marking(nets, monkeypatch):
    # `decide_interleaving` reads only the edges and the number of states,
    # so the graph's Markings stay unbuilt: the initials are the caller's.
    built = []

    def counted(fn):
        def wrapper(*args):
            built.append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Marking, "_trusted", classmethod(counted(Marking._trusted.__func__)))
    monkeypatch.setattr(Marking, "__init__", counted(Marking.__init__))
    latent, ring = nets["latent_sync"], _ring(10)
    queries = [
        (latent, Marking({"s1": 2}), Marking({"s4": 2}), 13),
        (ring, Marking({"r0": 3}), Marking({"r0": 1, "r1": 1, "r2": 1}), 220),
    ]
    for net, m1, m2, states in queries:
        built.clear()
        for branching in (False, True):
            _, lts = decide_interleaving(net, m1, m2, branching)
            assert len(lts.states) == states
            assert lts.states[lts.initials[0]] is m1
        assert built == []
        lts.states[-1]  # a read builds that state's Marking, and only it
        assert len(built) == 1


@pytest.mark.parametrize("name,e1,e2", CORPUS_LTSS)
def test_partitions_equal_the_string_signature_reference(nets, name, e1, e2):
    lts = joint(nets[name], e1, e2)
    assert branching_relation(lts) == signature_branching_partition(lts)
    assert strong_partition(lts) == signature_strong_partition(lts)


def test_a_queried_pair_stops_refinement_at_the_exact_answer():
    # Every split is sound, so the partition refined only until i and j
    # split, or to the fixpoint, relates i and j exactly when the stable one
    # does, and is coarser than it.
    rng = random.Random(1009)
    stopped_early = {strong_partition: 0, branching_relation: 0}
    for _ in range(1000):
        lts = _random_lts(rng)
        n = len(lts.states)
        for partition in stopped_early:
            full_stats, pair_stats = {}, {}
            full = partition(lts, stats=full_stats)
            for i, j in itertools.combinations(range(n), 2):
                part = partition(lts, pair=(i, j), stats=pair_stats)
                assert (part[i] == part[j]) == (full[i] == full[j]), (lts.edges, i, j)
                assert len(set(zip(full, part))) == len(set(full)), (lts.edges, i, j)
                assert pair_stats["refine_rounds"] <= full_stats["refine_rounds"]
                stopped_early[partition] += (
                    pair_stats["refine_rounds"] < full_stats["refine_rounds"]
                )
    # 9,972 and 7,892 of the 13,517 pairs
    assert stopped_early[strong_partition] >= 9500
    assert stopped_early[branching_relation] >= 7500


@pytest.mark.parametrize("name,e1,e2", CORPUS_LTSS)
def test_strong_included_in_branching(nets, name, e1, e2):
    lts = joint(nets[name], e1, e2)
    strong = strong_partition(lts)
    branching = branching_relation(lts)
    for i in range(len(lts.states)):
        for j in range(len(lts.states)):
            if strong[i] == strong[j]:
                assert branching[i] == branching[j]


@pytest.mark.parametrize("name,e1,e2", CORPUS_LTSS)
def test_oracle_relations_are_equivalences(nets, name, e1, e2):
    lts = joint(nets[name], e1, e2)
    rel = reference_branching(lts)
    n = len(lts.states)
    assert _induced(branching_relation(lts)) == rel
    assert _induced(strong_partition(lts)) == reference_strong(lts)
    for i in range(n):
        assert (i, i) in rel
    for i, j in rel:
        assert (j, i) in rel
    for (i, j), (k, l) in itertools.product(rel, rel):
        if j == k:
            assert (i, l) in rel


def _silent_simple_paths(lts):
    tau_succ = {}
    for src, label, dst in lts.edges:
        if label == TAU:
            tau_succ.setdefault(src, []).append(dst)
    paths = []

    def extend(path):
        for nxt in tau_succ.get(path[-1], ()):
            if nxt not in path:
                paths.append(path + [nxt])
                extend(path + [nxt])

    for s in range(len(lts.states)):
        extend([s])
    return paths


@pytest.mark.parametrize("name,e1,e2", CORPUS_LTSS)
def test_strong_stuttering_property(nets, name, e1, e2):
    # silent paths with branching-bisimilar endpoints have all their
    # intermediate states pairwise branching-bisimilar
    lts = joint(nets[name], e1, e2)
    block = branching_relation(lts)
    for path in _silent_simple_paths(lts):
        if block[path[0]] == block[path[-1]]:
            assert {block[s] for s in path} == {block[path[0]]}
