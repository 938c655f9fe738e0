"""Place/Transition nets, the token game, and bounded reachability graphs."""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from types import MappingProxyType

from .errors import ModelError, NotEnabledError, StateSpaceLimitError
from .multiset import MAX_MULTIPLICITY, Marking

TAU = "tau"


class Transition(namedtuple("Transition", "tid pre label post")):
    """A net transition: consumes `pre`, produces `post`, observably `label`.

    The pre-set is never empty; the post-set may be.
    """

    __slots__ = ()

    def __new__(cls, tid: str, pre: Marking, label: str, post: Marking):
        if pre.size == 0:
            raise ModelError(f"transition {tid!r} has an empty pre-set")
        return tuple.__new__(cls, (tid, pre, label, post))


def _tau_sequential(t: Transition) -> bool:
    return t.label == TAU and t.pre.size == 1 and t.post.size == 1


class CompiledNet(namedtuple("CompiledNet", "pre_tok post_tok pre_items touched"
                             " pre_places tau_seq answerers lone")):
    """The checking engine's tables of the net alone, built once per net
    (`Net.compiled`) and shared, read-only, by every engine over it. A
    transition is its position `ti` in the net's order. `answerers` serves
    every kind: a strong answer's pre-set is an image of the mover's, a
    branching one's is reached from an image by silent moves, and either
    has as many tokens as the mover's.

    Per transition: `pre_tok` and `post_tok`, the pre- and post-set as
    sorted token tuples; `pre_items`, the pre-set's sorted (place, count)
    pairs; `touched`, the places of the pre- and post-set; `pre_places`,
    the pre-set's places as bits of their place index; `tau_seq`, whether
    it is tau-sequential; `answerers`, the transitions with its label and
    pre-set size. `lone` maps a place to the transitions whose pre-set
    holds only it."""

    __slots__ = ()


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

    @cached_property
    def _packed(self) -> dict:
        return {}  # field width -> `packed_moves(width)`

    def packed_moves(self, width: int) -> tuple:
        """`by_first` for `reach_lts` with `width` bits per place: each
        transition as (pre, effect, step, label), where `step` is its effect
        packed, place i's delta at bit i * width. Built once per net and
        width."""
        moves = self._packed.get(width)
        if moves is None:
            moves = self._packed[width] = tuple(
                tuple(
                    (pre, effect, sum(d << i * width for i, d in effect), label)
                    for pre, effect, _, label in ts
                )
                for ts in self.by_first
            )
        return moves

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


class Lts:
    """A reachability graph: deduplicated markings and labelled edges.

    `reach_lts` keeps its states as token counts: `states` is a read-only
    sequence that builds a state's Marking when it is first read. A graph
    equals only itself; two graphs are the same graph when their
    `list(states)`, `edges` and `initials` are equal.
    """

    __slots__ = ("states", "edges", "initials")

    def __init__(
        self,
        states: Sequence[Marking] | None = None,
        edges: list[tuple[int, str, int]] | None = None,
        initials: list[int] | None = None,
    ):
        self.states = [] if states is None else states
        self.edges = [] if edges is None else edges
        self.initials = [] if initials is None else initials


class _States(Sequence):
    """The states of a graph from `reach_lts`, each kept as its
    `Net.marking_key`. A state's Marking is built on first read and kept,
    so repeated reads return the same object; an initial state reads as
    the caller's own Marking."""

    __slots__ = ("_places", "_keys", "_built")

    def __init__(self, places: Sequence[str], keys: list, built: dict):
        self._places = places
        self._keys = keys
        self._built = built  # state -> its Marking, once read

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
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

    The graph keeps each state as its `marking_key`; `lts.states` builds a
    state's Marking only when a caller reads it, so a caller that needs
    only the edges and the state count builds none. A state tries only the
    transitions whose first pre-set place holds a token (`Net.by_first`),
    and reads their pre-sets from one dict of its counts.

    Each state is also identified by one packed int: place i's count sits
    in bits [i*B, (i+1)*B), and firing adds the transition's packed effect
    (`Net.packed_moves`, built once per net and width). No field ever
    carries into the next, because no count ever computed exceeds the
    bound below, and B is one bit more than the bound's length. The bound
    is the largest initial count plus `state_cap` times the largest rise
    of one place by one transition. It holds because breadth-first search
    reaches a state along a shortest firing path from an initial marking,
    whose states are distinct and all in the graph: a state that is
    expanded is at most `state_cap - 1` firings from an initial marking,
    a successor it computes at most `state_cap`, and no firing raises a
    count by more than the largest rise. A successor's key is built only
    when its packed int is not yet a state's, and only then can a count
    have passed MAX_MULTIPLICITY: that firing raises the ModelError of
    `Marking` arithmetic (`_overflow`).
    """
    if state_cap <= 0 or edge_cap <= 0:
        raise ModelError("state and edge caps must be positive")
    keys: list[tuple] = []  # per state, its marking_key
    built: dict[int, Marking] = {}  # the initials as given; others once read
    lts = Lts(states=_States(net.places, keys, built))
    edges = lts.edges

    def full() -> StateSpaceLimitError:
        return StateSpaceLimitError(
            f"state space too large or unbounded (cap {state_cap})", count=len(keys)
        )

    first_seen: dict[tuple, int] = {}
    for m in initials:
        net.check_marking(m)
        key = net.marking_key(m)
        s = first_seen.get(key)
        if s is None:
            if len(keys) >= state_cap:
                raise full()
            s = first_seen[key] = len(keys)
            keys.append(key)
            built[s] = m
        lts.initials.append(s)
    top_start = max((n for key in keys for _, n in key), default=0)
    top_rise = max([0] + [r for ts in net.by_first for _, _, r, _ in ts])
    width = (top_start + state_cap * top_rise).bit_length() + 1
    moves = net.packed_moves(width)
    codes = [sum(n << i * width for i, n in key) for key in keys]  # per state
    index = {code: s for s, code in enumerate(codes)}
    src = 0
    while src < len(keys):
        key, code = keys[src], codes[src]
        have = dict(key)
        batch = []
        for first, _ in key:
            for pre, effect, step, label in moves[first]:
                for i, n in pre:
                    if have.get(i, 0) < n:
                        break
                else:
                    v = code + step
                    s = index.get(v)
                    if s is not None:
                        batch.append((keys[s], label, v))
                        continue
                    counts = have.copy()
                    for i, d in effect:
                        n = counts.get(i, 0) + d
                        if n > MAX_MULTIPLICITY:
                            _overflow(net, lts.states[src])  # raises
                        if n:
                            counts[i] = n
                        else:
                            del counts[i]
                    batch.append((tuple(sorted(counts.items())), label, v))
        batch.sort()  # keys differ for different states: (marking_key, label)
        for key, label, v in batch:
            dst = index.get(v)
            if dst is None:
                if len(keys) >= state_cap:
                    raise full()
                dst = index[v] = len(keys)
                keys.append(key)
                codes.append(v)
            if len(edges) >= edge_cap:
                raise StateSpaceLimitError(
                    f"edge count exceeded cap {edge_cap}", count=len(edges)
                )
            edges.append((src, label, dst))
        src += 1
    return lts
