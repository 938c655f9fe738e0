"""Place/Transition nets, the token game, and bounded reachability graphs."""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from types import MappingProxyType
from typing import NamedTuple

from .errors import ModelError, NotEnabledError, StateSpaceLimitError
from .multiset import MAX_MULTIPLICITY, Marking

TAU = "tau"


@dataclass(frozen=True)
class Transition:
    """A net transition: consumes `pre`, produces `post`, observably `label`.

    The pre-set is never empty; the post-set may be.
    """

    tid: str
    pre: Marking
    label: str
    post: Marking

    def __post_init__(self):
        if self.pre.size == 0:
            raise ModelError(f"transition {self.tid!r} has an empty pre-set")


def _tau_sequential(t: Transition) -> bool:
    return t.label == TAU and t.pre.size == 1 and t.post.size == 1


class CompiledNet(NamedTuple):
    """The checking engine's tables of the net alone, built once per net
    (`Net.compiled`) and shared, read-only, by every engine over it. A
    transition is its position `ti` in the net's order. `answerers` serves
    every kind: a strong answer's pre-set is an image of the mover's, a
    branching one's is reached from an image by silent moves, and either
    has as many tokens as the mover's."""

    pre_tok: tuple  # the pre-set as a sorted token tuple
    post_tok: tuple  # the post-set as a sorted token tuple
    pre_items: tuple  # the pre-set's sorted (place, count) pairs
    touched: tuple  # the places of the pre- and post-set
    pre_places: tuple  # the pre-set's places as bits of their place index
    tau_seq: tuple  # whether it is tau-sequential
    answerers: tuple  # the transitions with its label and pre-set size
    lone: Mapping  # place -> the transitions whose pre-set holds only it


class Net:
    """An immutable P/T net: places, labelled transitions, named markings."""

    def __init__(
        self,
        name: str,
        places: Sequence[str],
        transitions: Sequence[Transition] = (),
        named_markings: dict | None = None,
    ):
        if len(set(places)) != len(places):
            raise ModelError("duplicate place declaration")
        if TAU in places:
            raise ModelError(f"{TAU!r} is reserved and cannot name a place")
        self.name = name
        self.places: tuple[str, ...] = tuple(places)
        self.place_index: dict[str, int] = {p: i for i, p in enumerate(self.places)}
        seen = set()
        for t in transitions:
            if t.tid in seen:
                raise ModelError(f"duplicate transition id {t.tid!r}")
            seen.add(t.tid)
            for place in list(t.pre) + list(t.post):
                if place not in self.place_index:
                    raise ModelError(
                        f"transition {t.tid!r} uses undeclared place {place!r}"
                    )
        self.transitions: tuple[Transition, ...] = tuple(transitions)
        self.transition_index: dict[str, Transition] = {
            t.tid: t for t in self.transitions
        }
        self.named_markings: dict[str, Marking] = dict(named_markings or {})
        for mname, m in self.named_markings.items():
            for place in m:
                if place not in self.place_index:
                    raise ModelError(
                        f"marking {mname!r} uses undeclared place {place!r}"
                    )

    def check_marking(self, m: Marking) -> None:
        for place in m:
            if place not in self.place_index:
                raise ModelError(f"marking uses undeclared place {place!r}")

    def check_transition(self, t: Transition) -> None:
        """Accepts any structurally valid transition over declared places."""
        for place in list(t.pre) + list(t.post):
            if place not in self.place_index:
                raise ModelError(f"transition {t.tid!r} uses undeclared place {place!r}")

    def marking_key(self, m: Marking) -> tuple:
        """Canonical ordering key: lexicographic on (place index, count)."""
        return tuple(sorted((self.place_index[p], n) for p, n in m.items()))

    def format_marking(self, m: Marking) -> str:
        """Render a marking in canonical place order; the empty one is '0'."""
        if m.size == 0:
            return "0"
        parts = []
        for idx, n in self.marking_key(m):
            p = self.places[idx]
            parts.append(f"{n}*{p}" if n > 1 else p)
        return "+".join(parts)

    @cached_property
    def components(self) -> tuple:
        """Weakly connected components of the place/transition graph."""
        # Computed once, on first use: nets that are never decided skip it.
        parent = {p: p for p in self.places}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        for t in self.transitions:
            touched = list(t.pre) + list(t.post)
            for other in touched[1:]:
                union(touched[0], other)
        groups: dict[str, set] = {}
        for p in self.places:
            groups.setdefault(find(p), set()).add(p)
        comps = [frozenset(g) for g in groups.values()]
        comps.sort(key=lambda c: min(self.place_index[p] for p in c))
        return tuple(comps)

    @cached_property
    def compiled(self) -> CompiledNet:
        """The engine's tables of the net, built on first use. Its token tuples
        grow with the arc weights: graphs read `silent_moves` and `by_first`."""
        index = self.place_index
        cols = pre_tok, post_tok, pre_items, touched, pre_places, tau_seq, answerers = (
            [], [], [], [], [], [], [])
        groups, lone = {}, {}
        for ti, t in enumerate(self.transitions):  # one pass, in net order
            pre = t.pre.tokens()
            dom = t.pre.keys()
            pre_tok.append(pre)
            post_tok.append(t.post.tokens())
            pre_items.append(t.pre.sorted_items())
            touched.append(tuple(dom | t.post.keys()))
            pre_places.append(sum(1 << index[p] for p in dom))  # distinct places
            tau_seq.append(_tau_sequential(t))
            answerers.append((t.label, t.pre.size))  # its group's key, for now
            groups.setdefault(answerers[-1], []).append(ti)
            if len(dom) == 1:
                lone.setdefault(pre[0], []).append(ti)
        groups = {key: tuple(group) for key, group in groups.items()}
        answerers[:] = map(groups.__getitem__, answerers)  # one tuple per group
        return CompiledNet(
            *map(tuple, cols),
            MappingProxyType({k: tuple(v) for k, v in lone.items()}),
        )

    @cached_property
    def silent_moves(self) -> Mapping:
        """The tau-sequential moves, place -> ((next place, tid), ...) in
        that order, read-only, built on first use. The checking engine and
        guided repair hand it to `silent.run_search`.

        A real silent self-loop transition does appear as an edge; idling
        steps are synthesized by the search instead and are never part of it.
        """
        adj: dict = {}
        for t in self.transitions:
            if _tau_sequential(t):
                adj.setdefault(next(iter(t.pre)), []).append((next(iter(t.post)), t.tid))
        return MappingProxyType({p: tuple(sorted(v)) for p, v in adj.items()})

    @cached_property
    def by_first(self) -> tuple:
        """Each transition as (pre, effect, rise, label) over place indices,
        for `reach_lts`, built on first use.

        `pre` is its pre-set as (index, count) pairs, `effect` its nonzero
        change per place as (index, delta) pairs, and `rise` its largest
        increase of one place. The tuple holds, per place index, the
        transitions whose pre-set starts at that place.
        """
        index = self.place_index
        by_first: list = [[] for _ in self.places]
        for t in self.transitions:
            delta = {index[p]: n for p, n in t.post.items()}
            pre = []
            for p, n in t.pre.items():
                i = index[p]
                pre.append((i, n))
                delta[i] = delta.get(i, 0) - n
            pre.sort()
            effect = tuple((i, d) for i, d in sorted(delta.items()) if d)
            rise = max([d for _, d in effect], default=0)
            by_first[pre[0][0]].append((tuple(pre), effect, rise, t.label))
        return tuple(map(tuple, by_first))

    def component_of(self, places: Iterable[str]) -> frozenset:
        """Union of the components touched by the given places."""
        wanted = set(places)
        out: set = set()
        for comp in self.components:
            if comp & wanted:
                out |= comp
        return frozenset(out)

    def __repr__(self) -> str:
        return (
            f"Net({self.name!r}, {len(self.places)} places, "
            f"{len(self.transitions)} transitions)"
        )


def enabled(net: Net, m: Marking, t: Transition) -> bool:
    """True iff the pre-set of t is contained in m (pointwise)."""
    net.check_transition(t)
    net.check_marking(m)
    return m.covers(t.pre)


def fire(net: Net, m: Marking, t: Transition) -> Marking:
    """Fire t at m, producing (m - pre) + post. t must be enabled."""
    if not enabled(net, m, t):
        raise NotEnabledError(f"transition {t.tid!r} is not enabled at {m!r}")
    return (m - t.pre) + t.post


@dataclass
class Lts:
    """A reachability graph: deduplicated markings and labelled edges.

    `reach_lts` keeps its states as token counts: `states` is a read-only
    sequence that builds a state's Marking when it is first read.
    """

    states: Sequence[Marking] = field(default_factory=list)
    edges: list[tuple[int, str, int]] = field(default_factory=list)
    initials: list[int] = field(default_factory=list)


class _States(Sequence):
    """The states of a graph from `reach_lts`, each kept as its
    `Net.marking_key`. A state's Marking is built on first read and kept,
    so repeated reads return the same object; an initial state reads as
    the caller's own Marking. Compares equal to the list of its Markings."""

    __slots__ = ("_places", "_keys", "_built")

    def __init__(self, places: Sequence[str], keys: list, built: dict):
        self._places = places
        self._keys = keys
        self._built = built  # state -> its Marking, once read

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self._keys)))]
        key = self._keys[i]  # raises IndexError past either end
        if i < 0:
            i += len(self._keys)
        m = self._built.get(i)
        if m is None:
            places = self._places
            m = self._built[i] = Marking._trusted({places[p]: n for p, n in key})
        return m

    def __iter__(self):
        return map(self.__getitem__, range(len(self._keys)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (_States, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def _overflow(net: Net, m: Marking) -> None:
    """Fire every enabled transition at m by Marking arithmetic, in net order,
    so that the first one that overflows raises its ModelError."""
    for t in net.transitions:
        if m.covers(t.pre):
            (m - t.pre) + t.post


def reach_lts(
    net: Net,
    initials: Sequence[Marking],
    state_cap: int = 10_000,
    edge_cap: int = 100_000,
) -> Lts:
    """Breadth-first closure of the initial markings under firing.

    State numbering is deterministic: initials in the given order, then
    discovered states level by level, each expansion batch sorted by the
    canonical marking ordering (`Net.marking_key`), then by label.
    Exceeding a cap raises StateSpaceLimitError carrying the count reached.

    The transitions are compiled once per net to place-index form
    (`Net.by_first`), and states are explored as tuples of token
    counts in place order: a state tries only the transitions whose first
    pre-set place holds a token.
    The graph keeps each state as its counts; `lts.states` builds a state's
    Marking only when a caller reads it, so a caller that needs only the
    edges and the state count builds none.

    A firing that takes a count past MAX_MULTIPLICITY raises the ModelError
    of `Marking` arithmetic (`_overflow`). Looking for one costs a scan of
    each state's largest count, which is skipped when no firing can
    overflow: when the largest initial count plus `state_cap` times the
    largest rise of one place by one transition is at most
    MAX_MULTIPLICITY. The bound is sound: breadth-first search reaches a
    state along a shortest firing path from an initial marking, whose
    states are distinct and all in the graph, so a state that is expanded
    is at most `state_cap - 1` firings from an initial marking and a
    successor it computes at most `state_cap`, and no firing raises a count
    by more than the largest rise.
    """
    if state_cap <= 0 or edge_cap <= 0:
        raise ModelError("state and edge caps must be positive")
    by_first = net.by_first
    places = net.places
    vectors: list[tuple] = []
    keys: list[tuple] = []  # per state, its marking_key
    built: dict[int, Marking] = {}  # the initials as given; others once read
    lts = Lts(states=_States(places, keys, built))
    edges = lts.edges
    index: dict[tuple, int] = {}

    def intern(w: tuple, key: tuple) -> int:
        if len(keys) >= state_cap:
            raise StateSpaceLimitError(
                f"state space too large or unbounded (cap {state_cap})",
                count=len(keys),
            )
        s = index[w] = len(keys)
        vectors.append(w)
        keys.append(key)
        return s

    for m in initials:
        net.check_marking(m)
        key = net.marking_key(m)
        w = [0] * len(places)
        for i, n in key:
            w[i] = n
        w = tuple(w)
        s = index.get(w)
        if s is None:
            s = intern(w, key)
            built[s] = m
        lts.initials.append(s)
    # The docstring's bound: unless `scan`, no firing can overflow, `top`
    # stays 0 and no single rise passes the overflow test below.
    top_start = max((n for key in keys for _, n in key), default=0)
    top_rise = max([0] + [r for ts in by_first for _, _, r, _ in ts])
    scan = top_start + state_cap * top_rise > MAX_MULTIPLICITY
    top = 0
    src = 0
    while src < len(keys):
        w = vectors[src]
        if scan:
            top = max(w, default=0)
        batch = []
        for first, _ in keys[src]:
            for pre, effect, rise, label in by_first[first]:
                for i, n in pre:
                    if w[i] < n:
                        break
                else:
                    v = list(w)
                    for i, d in effect:
                        v[i] += d
                    if top + rise > MAX_MULTIPLICITY and max(v) > MAX_MULTIPLICITY:
                        _overflow(net, lts.states[src])  # raises
                    v = tuple(v)
                    s = index.get(v)
                    key = keys[s] if s is not None else tuple(compress(enumerate(v), v))
                    batch.append((key, label, v))
        batch.sort()  # keys differ for different vectors: (marking_key, label)
        for key, label, v in batch:
            dst = index.get(v)
            if dst is None:
                dst = intern(v, key)
            if len(edges) >= edge_cap:
                raise StateSpaceLimitError(
                    f"edge count exceeded cap {edge_cap}", count=len(edges)
                )
            edges.append((src, label, dst))
        src += 1
    return lts
