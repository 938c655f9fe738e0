"""Relation checking and equivalence decision procedures.

Four equivalences are supported, named by their CLI spellings:

* ``place``   - every move must be answered immediately by a transition
                whose pre-set is the related marking, with closure-related
                post-sets.
* ``dplace``  - as ``place``, but the relation may pair places with the
                empty marking; pre-sets match under the theta-stripped
                closure, post-sets under the theta-extended one.
* ``bplace``  - silent tau-sequential moves may be answered by acyclic
                silent responses whose traversed markings stay related to
                the moving transition's pre-set.
* ``bdplace`` - the branching conditions with the theta-extended closure
                on post-sets.

A relation is verified against finitely many conditions: one per
transition and per marking related to its pre-set. Deciding a marking
pair searches the candidate relations over the relevant place universe.
"""
from __future__ import annotations

import itertools
import time
from collections import Counter, namedtuple
from math import comb, prod

from .errors import ModelError, PneqError, SearchBudgetError
from .multiset import Marking
from .net import Net
from .relations import (
    THETA,
    PlaceRelation,
    _image_choices,
    _match,
)
from .silent import DEFAULT_NODE_BUDGET, run_search, silent_reachable, silent_traces

KINDS = ("place", "dplace", "bplace", "bdplace")
SEARCH_CAP = 20_000  # guided and auto mode: relations checked before answering unknown
SMALL_MATCH = 6  # closure membership: past this many tokens in all, max-flow
_MISS = object()  # a cache with no entry yet: `respond`, `_repair_options`
NO_ASSOCIATION = "no association over the pair universe"  # every mode's reason


class Violation(namedtuple("Violation", "transition marking side reason details",
                           defaults=("",))):
    """A failed condition: `transition` moved from `marking` on `side` (1:
    the left, 2: the right), for `reason` "no-response" or
    "closure-failure"."""

    __slots__ = ()


class CheckReport(namedtuple("CheckReport", "ok violations")):
    """`ok` exactly when there are no `violations`."""

    __slots__ = ()

    def __new__(cls, ok: bool, violations: tuple):
        assert ok == (not violations)
        return tuple.__new__(cls, (ok, violations))


class DecideCaps(namedtuple("DecideCaps", "node_budget")):
    """The budget of one `decide` call: the nodes of each silent-response
    search."""

    __slots__ = ()

    def __new__(cls, node_budget: int = DEFAULT_NODE_BUDGET):
        if node_budget <= 0:
            raise ModelError("caps must be positive")
        return tuple.__new__(cls, (node_budget,))


class Verdict(namedtuple("Verdict", "status witness mode_used stats violations",
                         defaults=((),))):
    """An answer: `status` related, not-related or unknown; `witness` a
    PlaceRelation or None; `mode_used` exhaustive, guided or verify; and
    for `verify`, the failed conditions of the relation in `violations`."""

    __slots__ = ()


def _anywhere(tokens) -> bool:
    """A search predicate that every marking meets."""
    return True


def _is_d(kind: str) -> bool:
    return kind in ("dplace", "bdplace")


def _is_branching(kind: str) -> bool:
    return kind in ("bplace", "bdplace")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ModelError(f"unknown equivalence kind {kind!r}")


# ---------------------------------------------------------------------------
# the compiled checking engine
# ---------------------------------------------------------------------------


class _Engine:
    """Relation checks compiled against a fixed pair universe.

    Candidate relations are bitmasks over the universe. Three caches let
    the relations that a search visits share their work: image sets keyed
    by the pairs of the pre-set's places; each response's trace, or None,
    keyed by `resp_mask`, built once per transition and side; and each
    closure answer of `member`, keyed by the question. Three more serve
    the demand search's repair, whose needs do not depend on the relation:
    each failed condition's `requirements`, the silent traces of
    `repair_traces` and each requirement's masks in `repair_choices`.
    `failures` is the one walk over the finite conditions of a set of
    pairs, and it asks every response through `respond`: `check_relation`,
    the association cut and the demand search all consume it. `images`
    gives each place's tokens the multisets of its images, so a pre-set's
    image set grows with its token count polynomially, not exponentially.
    `depth_one_cut` finds the pairs that fail a condition on their own
    without asking a response, from the theta conditions on one place and
    from `lone`, the transitions whose pre-set holds a single place.
    `member` is the one closure-membership routine, for the additive
    closure and the d one alike: it backtracks up to `SMALL_MATCH` tokens
    in all, and runs the max-flow `_match` past it. `associations` is the
    one enumeration of the associations of two markings, for the query
    pair and each repair requirement alike.

    The engine builds only the tables of its universe. It reads the tables
    of the net alone, `lone` and `answerers` among them, from `Net.compiled`,
    and the silent moves from `Net.silent_moves`; both are built once per
    net and shared by every engine over it.
    """

    def __init__(self, net: Net, universe, kind: str, node_budget: int):
        self.net = net
        self.kind = kind
        self.d = _is_d(kind)
        self.branching = _is_branching(kind)
        self.node_budget = node_budget
        self.pairs = list(universe)
        self.bit = {pair: 1 << i for i, pair in enumerate(self.pairs)}
        self.universe_mask = (1 << len(self.pairs)) - 1
        self.core_mask = 0
        self.theta_row: dict = {}
        self.theta_col: dict = {}
        row_items: dict = {}
        col_items: dict = {}
        self.rowmask: dict = {}
        self.colmask: dict = {}
        for pair, b in self.bit.items():
            a, c = pair
            if a is THETA:
                self.theta_col[c] = self.theta_col.get(c, 0) | b
            elif c is THETA:
                self.theta_row[a] = self.theta_row.get(a, 0) | b
            else:
                self.core_mask |= b
                row_items.setdefault(a, []).append((c, b))
                col_items.setdefault(c, []).append((a, b))
                self.rowmask[a] = self.rowmask.get(a, 0) | b
                self.colmask[c] = self.colmask.get(c, 0) | b
        key = net.place_index
        self.row = {p: sorted(v) for p, v in row_items.items()}  # by partner name
        self.col = {p: sorted(v) for p, v in col_items.items()}
        self.compiled = compiled = net.compiled
        # the bits a response can read, per side and transition: the moving
        # side's pairs on its pre- and post-set places, and every theta pair
        thetas = self.universe_mask & ~self.core_mask if self.d else 0
        rowmask, colmask = self.rowmask, self.colmask
        theta_row, theta_col = self.theta_row, self.theta_col
        resp1, resp2 = [], []
        self.resp_mask = {1: resp1, 2: resp2}
        for places in compiled.touched:
            reads1 = reads2 = thetas
            for p in places:
                reads1 |= rowmask.get(p, 0)
                reads2 |= colmask.get(p, 0)
            resp1.append(reads1)
            resp2.append(reads2)
        # (ti, side, per pre-set place its partner-or-theta mask, theta mask)
        self.theta_conds = []
        if self.d:
            for ti, items in enumerate(compiled.pre_items):
                for side, masks, tmasks in ((1, rowmask, theta_row), (2, colmask, theta_col)):
                    if theta := sum(tmasks.get(p, 0) for p, _ in items):  # distinct bits
                        covers = tuple(masks.get(p, 0) | tmasks.get(p, 0) for p, _ in items)
                        self.theta_conds.append((ti, side, covers, theta))
        self.partnered = {
            side: [(1 << key[p], mask) for p, mask in masks.items()]
            for side, masks in ((1, rowmask), (2, colmask))
        }
        self._images_cache: dict = {}
        self._resp_cache: dict = {}
        self._member_cache: dict = {}
        self._requirements_cache: dict = {}
        self._traces_cache: dict = {}
        self._choices_cache: dict = {}
        self.matchings_solved = 0

    # -- closure membership ------------------------------------------------

    def member(self, m1, m2, rbits, d) -> bool:
        """Whether the sorted token tuples (m1, m2) are in the closure of
        `rbits`: the additive one, or with `d` the one where a token may
        pair with theta. Every `d` question and every plain one with equal,
        non-zero sizes is a matching, solved once per engine: the answer is
        memoised, and `matchings_solved` counts the distinct ones."""
        n1, n2 = len(m1), len(m2)
        if not d:
            if n1 != n2:
                return False
            if not n1:
                return True
        hit = self._member_cache.get(key := (m1, m2, rbits, d))
        if hit is None:
            self.matchings_solved += 1
            if n1 + n2 > SMALL_MATCH:
                allowed = [pair for pair, b in self.bit.items() if rbits & b]
                hit = _match(allowed, Marking(m1), Marking(m2), d) is not None
            else:
                hit = self._assign(m1, 0, m2, rbits, d)
            self._member_cache[key] = hit
        return hit

    def _assign(self, m1, i, rest, rbits, d) -> bool:
        """Whether the left tokens from `m1[i]` on pair off with the right
        tokens `rest`: each left token with an unused right one (equal
        right tokens tried once) or, under `d`, with theta; each right
        token left over with theta."""
        bit = self.bit
        if len(rest) == 1 and i + 1 == len(m1):
            # the last token of each side, as the loop below would pair them
            c = rest[0]
            b = bit.get((m1[i], c))
            if b and rbits & b:
                return True
            return bool(
                d and rbits & self.theta_row.get(m1[i], 0) and rbits & self.theta_col.get(c, 0)
            )
        if i == len(m1):
            col = self.theta_col
            return all(rbits & col.get(c, 0) for c in rest)
        a = m1[i]
        prev = None
        for j, c in enumerate(rest):
            if c != prev:
                prev = c
                b = bit.get((a, c))
                if b and rbits & b and self._assign(m1, i + 1, rest[:j] + rest[j + 1:], rbits, d):
                    return True
        return bool(d and rbits & self.theta_row.get(a, 0)) and self._assign(
            m1, i + 1, rest, rbits, d
        )

    def associations(self, left, right, allowed, d):
        """The pair mask of each distinct association of two markings,
        given as sorted (place, count) pairs, over the bits of `allowed`:
        each left token pairs with a right token or, under `d`, with theta,
        and each right token left over with theta. Tokens on a place are
        alike, so a left place's count is split over its partners (by name,
        theta last), more tokens to an earlier partner first. Distinct
        associations may share a mask; each yields it. Under `d` theta takes
        any count, so the associations grow in number with the counts."""
        bit, theta_col = self.bit, self.theta_col
        rest = dict(right)
        places = []
        for a, n in left:
            opts = [(q, b) for q in rest if (b := bit.get((a, q), 0) & allowed)]
            if d and (b := self.theta_row.get(a, 0) & allowed):
                opts.append((THETA, b))
            if not opts:
                return iter(())
            places.append((n, opts))
        rest[THETA] = sum(n for _, n in left)  # theta takes any left token

        def spread(i, mask):  # the left places from i on
            if i == len(places):
                for q, _ in right:
                    if rest[q]:
                        b = d and theta_col.get(q, 0) & allowed
                        if not b:
                            return
                        mask |= b
                yield mask
            elif places[i][0] > 1:
                yield from split(i, places[i][0], 0, mask)
            else:
                for q, b in places[i][1]:
                    if rest[q]:
                        rest[q] -= 1
                        yield from spread(i + 1, mask | b)
                        rest[q] += 1

        def split(i, n, j, mask):  # n tokens of left place i, partners from j on
            if not n:
                yield from spread(i + 1, mask)
                return
            opts = places[i][1]
            q, b = opts[j]
            room = sum(rest[p] for p, _ in opts[j + 1:])  # what later partners can take
            for c in range(min(n, rest[q]), max(n - room, 0) - 1, -1):
                rest[q] -= c
                yield from split(i, n - c, j + 1, mask | b if c else mask)
                rest[q] += c

        return spread(0, 0)

    # -- image sets ----------------------------------------------------------

    def images(self, items, rbits, side) -> tuple:
        """The markings related under `rbits` to that of the sorted (place,
        count) pairs `items`, on its right for side 1 and on its left for
        side 2, as sorted token tuples in sorted order. Tokens on a place
        are alike, so a place's n tokens take the multisets of n of its
        images: `_image_choices`, as in `relations.related_markings`."""
        table = self.row if side == 1 else self.col
        masks = self.rowmask if side == 1 else self.colmask
        mask = 0
        for p, _ in items:
            mask |= masks.get(p, 0)
        key = (items, side, rbits & mask)
        hit = self._images_cache.get(key)
        if hit is not None:
            return hit
        per_place = [([q for q, b in table.get(p, ()) if rbits & b], n) for p, n in items]
        if len(per_place) == 1:  # from images sorted by name: sorted and distinct
            out = tuple(itertools.combinations_with_replacement(*per_place[0]))
        else:
            out = tuple(sorted({tuple(sorted(tokens)) for tokens in _image_choices(per_place)}))
        self._images_cache[key] = out
        return out

    # -- response feasibility ---------------------------------------------------

    def respond(self, ti: int, m: tuple, side: int, rbits) -> tuple | None:
        """The trace `_respond_compute` gives, cached by `resp_mask`."""
        key = (ti, m, side, rbits & self.resp_mask[side][ti])
        hit = self._resp_cache.get(key, _MISS)
        if hit is _MISS:
            hit = self._resp_cache[key] = self._respond_compute(ti, m, side, rbits)
        return hit

    def _respond_compute(self, ti: int, m: tuple, side: int, rbits) -> tuple | None:
        """The trace of a response to transition `ti` moving from `m` on
        `side` under `rbits`: the sorted token tuples of the markings it
        passes. None when there is none.

        Every kind answers with one of `answerers[ti]` whose post-set is
        related to the mover's. A strong kind takes one whose pre-set is `m`
        and idles on every token to reach it. A branching kind takes one
        whose pre-set is related to the mover's (psi) and reaches it from
        `m` by silent moves, idling when it is `m`; a tau-sequential mover
        may also be answered by silent moves alone."""
        c = self.compiled
        post = c.post_tok[ti]
        bar = rbits & self.core_mask
        anchor = c.pre_tok[ti]
        if side == 1:
            psi_ok = lambda mk: self.member(anchor, mk, bar, False)
        else:
            psi_ok = lambda mk: self.member(mk, anchor, bar, False)

        if self.branching and c.tau_seq[ti]:
            if side == 1:
                final_ok = lambda f: psi_ok(f) and self.member(post, f, bar, False)
            else:
                final_ok = lambda f: psi_ok(f) and self.member(f, post, bar, False)
            if final_ok(m):
                return (m, m)
            found = run_search(self.net.silent_moves, m, psi_ok, final_ok, self.node_budget)
            if found:
                return found

        for cj in c.answerers[ti]:
            cpre = c.pre_tok[cj]
            if not (psi_ok(cpre) if self.branching else cpre == m):
                continue
            cpost = c.post_tok[cj]
            left, right = (post, cpost) if side == 1 else (cpost, post)
            if not self.member(left, right, rbits, self.d):
                continue
            if cpre == m:
                # answering with idling on every token
                return (m,) * (len(m) + 1)
            found = run_search(self.net.silent_moves, m, psi_ok, cpre, self.node_budget)
            if found:
                return found
        return None

    # -- repair ----------------------------------------------------------------

    def requirements(self, ti: int, m: tuple, side: int) -> tuple:
        """What an answer to the condition (ti, m, side) needs, for each
        answer `_respond_compute` could give, taken along each of its
        silent traces (a strong kind's is empty): each marking of the trace
        psi-related to the moving pre-set, then the post-set pair. A
        requirement is (left, right, d): two sorted token tuples, related
        under the closure `d` picks. An answer that needs all another needs
        adds no option, so it is dropped. The table does not depend on the
        relation, so it is built once per engine."""
        key = (ti, m, side)
        table = self._requirements_cache.get(key)
        if table is not None:
            return table
        c = self.compiled
        anchor = c.pre_tok[ti]
        post = c.post_tok[ti]

        def oriented(x, y, d):
            return (x, y, d) if side == 1 else (y, x, d)

        answers = []  # (trace, its post-set requirement)
        if self.branching and c.tau_seq[ti]:
            for trace in self.repair_traces(m, _anywhere):
                answers.append((trace, oriented(post, trace[-1], False)))
        for cj in c.answerers[ti]:
            cpre = c.pre_tok[cj]
            if self.branching:
                traces = self.repair_traces(m, cpre)
            else:
                traces = [()] if cpre == m else []
            for trace in traces:
                answers.append((trace, oriented(post, c.post_tok[cj], self.d)))
        sets = sorted({frozenset((*(oriented(anchor, mk, False) for mk in trace), post_req))
                       for trace, post_req in answers}, key=len)
        table = tuple(r for i, r in enumerate(sets) if not any(k <= r for k in sets[:i]))
        self._requirements_cache[key] = table
        return table

    def repair_traces(self, start: tuple, goal) -> list:
        """Every distinct silent trace (`silent_traces`) from `start` to
        `goal`, one exact marking or `_anywhere`, with no psi check. Shared
        by every condition that asks the same walk, a budget error too: it
        is kept and raised again."""
        key = (start, goal)
        hit = self._traces_cache.get(key)
        if hit is None:
            try:
                hit = silent_traces(self.net.silent_moves, start, goal, self.node_budget)
            except SearchBudgetError as exc:
                hit = exc
            self._traces_cache[key] = hit
        if isinstance(hit, SearchBudgetError):
            raise SearchBudgetError(str(hit), hit.count)
        return hit

    def repair_choices(self, left: tuple, right: tuple, d: bool, allowed) -> tuple:
        """The association masks of the requirement (left, right, d) over
        the bits of `allowed`."""
        key = (left, right, d, allowed)
        hit = self._choices_cache.get(key)
        if hit is None:
            hit = self._choices_cache[key] = tuple(
                self.associations(Counter(left).items(), Counter(right).items(), allowed, d))
        return hit

    # -- the condition walk ---------------------------------------------------

    def failures(self, lower, upper):
        """The failing conditions of the relations between two masks.

        A condition is active under `lower`: a theta condition (a pre-set
        place related to the empty marking, the others related at all),
        or a transition, an image of its pre-set and a side. It fails when
        it holds under `lower` (theta) or has no response even under
        `upper`. Yields (ti, None, side) for a theta failure and
        (ti, m, side) for a response failure, thetas first. Image sets,
        theta conditions and `respond` are monotone in the relation, so a
        condition failing here fails for every relation between the two.
        Every response comes from `respond`.
        """
        for ti, side, covers, theta in self.theta_conds:
            if lower & theta and all(lower & c for c in covers):
                yield ti, None, side
        bar = lower & self.core_mask
        compiled = self.compiled
        for side in (1, 2):
            placed = 0
            for place, mask in self.partnered[side]:
                if bar & mask:
                    placed |= place
            for ti, pre in enumerate(compiled.pre_places):
                if pre & placed != pre:
                    continue  # an unpartnered pre-set place: no images
                for m in self.images(compiled.pre_items[ti], bar, side):
                    if self.respond(ti, m, side, upper) is None:
                        yield ti, m, side

    def depth_one_cut(self) -> int:
        """The bits whose pair alone fails a condition under the full
        universe: what `failures(b, universe_mask)` finds for each bit b,
        in closed form, asking no response. One pair activates only the
        transitions whose pre-set holds just its place (`lone`). A theta
        pair fails a theta condition that covers one place, its own. A core
        pair (a, q) fails when one on a is not answered from k tokens on
        q, or one on q not from k tokens on a, k the size of its pre-set.

        Precondition: the universe is `pair_universe`'s, the full product
        of whole components. A response stays in its partner's component,
        so each closure question is one of sizes, which theta absorbs under
        the d kinds: ti is answered from k tokens on p by an answerer whose
        pre-set lies in p's silent reach (p alone for a strong kind), with
        as many post-set tokens as ti's under a plain kind; a
        tau-sequential mover idles under a branching kind."""
        c = self.compiled
        moves = self.net.silent_moves if self.branching else {}
        reach: dict = {}  # place -> the places its tokens reach by those moves
        answered: dict = {}  # (ti, p) -> whether ti is answered from tokens on p

        def answers(ti, p):
            if (ti, p) not in answered:
                reach[p] = within = reach.get(p) or silent_reachable(moves, (p,))
                n = len(c.post_tok[ti])
                answered[ti, p] = (self.branching and c.tau_seq[ti]) or any(
                    within.issuperset(c.pre_tok[cj]) and (self.d or len(c.post_tok[cj]) == n)
                    for cj in c.answerers[ti])
            return answered[ti, p]

        bad = 0
        for _ti, _side, covers, theta in self.theta_conds:
            if len(covers) == 1:
                bad |= theta
        for (a, q), b in self.bit.items():
            if a is not THETA and q is not THETA and not (
                    all(answers(ti, q) for ti in c.lone.get(a, ()))
                    and all(answers(ti, a) for ti in c.lone.get(q, ()))):
                bad |= b
        return bad

    def violation(self, ti, m, side) -> Violation:
        t = self.net.transitions[ti]
        if m is None:
            return Violation(t.tid, t.pre, side, "closure-failure",
                             "a pre-set place is related to the empty marking, so the "
                             "move cannot be answered when its token is matched away")
        return Violation(t.tid, Marking(m), side, "no-response",
                         f"no matching response from {Marking(m)!r}")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def pair_universe(net: Net, m1: Marking, m2: Marking, kind: str) -> list:
    """Candidate pairs for deciding (m1, m2).

    When the two markings live in disjoint weakly-connected components the
    universe is the product of the two component place sets (any witness
    restricts to those pairs); otherwise the joint component set squared.
    The theta-extended kinds add a theta row and column.
    """
    _check_kind(kind)
    s1 = net.component_of(m1.support())
    s2 = net.component_of(m2.support())
    if s1 & s2:
        s1 = s2 = s1 | s2
    key = net.place_index.get
    left = sorted(s1, key=key)
    right = sorted(s2, key=key)
    pairs = [(a, b) for a in left for b in right]
    if _is_d(kind):
        pairs += [(a, THETA) for a in left]
        pairs += [(THETA, b) for b in right]
    return pairs


def check_relation(
    net: Net,
    rel: PlaceRelation,
    kind: str,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CheckReport:
    """Verify the finite game conditions for a candidate relation.

    Search-budget exhaustion raises SearchBudgetError: an inconclusive
    check is never reported as a violation.
    """
    _check_kind(kind)
    DecideCaps(node_budget)  # the budget is checked as `decide`'s caps are
    if not _is_d(kind) and rel.is_d_extended:
        raise ModelError(f"{kind} requires a plain relation")
    for a, b in rel.pairs:
        for p in (a, b):
            if p is not THETA and p not in net.place_index:
                raise ModelError(f"relation uses undeclared place {p!r}")
    engine = _Engine(net, rel.sorted_pairs(), kind, node_budget)
    full = engine.universe_mask
    violations = tuple(engine.violation(*failure) for failure in engine.failures(full, full))
    return CheckReport(not violations, violations)


def verify(
    net: Net,
    rel: PlaceRelation,
    kind: str,
    m1: Marking,
    m2: Marking,
) -> Verdict:
    """Check a user-supplied relation and the membership of the query pair.

    Related means both hold; anything else is reported as unknown (a
    failed candidate never proves the markings inequivalent).
    """
    net.check_marking(m1)
    net.check_marking(m2)
    t0 = time.perf_counter()
    report = check_relation(net, rel, kind)
    member = _match(rel.pairs, m1, m2, _is_d(kind)) is not None
    ok = report.ok and member
    stats = {
        "relation_ok": report.ok,
        "membership_ok": member,
        "wall_time_s": time.perf_counter() - t0,
    }
    return Verdict(
        "related" if ok else "unknown",
        rel if ok else None,
        "verify",
        stats,
        report.violations,
    )


def decide(
    net: Net,
    m1: Marking,
    m2: Marking,
    kind: str,
    mode: str = "auto",
    caps: DecideCaps | None = None,
) -> Verdict:
    """Decide whether two markings are equivalent under the given kind.

    Every mode runs one search (`_demand_search`) for the first witness
    over the pair universe by pair count, then lexicographically. It grows
    relations from the associations of the two markings, which
    `_Engine.associations` enumerates once per call, only by the exact
    repairs of each one's first failing condition, best first in that
    order; a minimal witness is reachable so, and exhausting it is
    conclusive. Every condition comes from one walk, `_Engine.failures`.

    Exhaustive mode first prunes pairs that fail a condition on their own
    and refutes associations of the two markings that fail a condition
    under every unpruned pair, since each witness contains an association;
    when all are refuted, the search checks nothing. A pair fails on its
    own only through a transition whose pre-set holds just its place, so
    `_Engine.depth_one_cut` settles those in closed form, asking no
    response. Auto mode runs the same within `SEARCH_CAP` relations
    checked, and answers unknown when the cap runs out, keeping the
    search's stats and the cap's message as `stats["reason"]`. Guided mode
    skips the up-front cut, which costs more than it saves on a query it
    need not refute, and runs the search under the same cap: it answers
    related with the minimal witness, or unknown, never not-related.
    """
    _check_kind(kind)
    if mode not in ("exhaustive", "guided", "auto"):
        raise ModelError(f"unknown mode {mode!r}")
    caps = caps or DecideCaps()
    net.check_marking(m1)
    net.check_marking(m2)
    t0 = time.perf_counter()
    universe = pair_universe(net, m1, m2, kind)
    compile_t0 = time.perf_counter()
    engine = _Engine(net, universe, kind, caps.node_budget)
    masks = set(engine.associations(
        m1.sorted_items(), m2.sorted_items(), engine.universe_mask, engine.d))
    verdict = _decide_search(engine, masks, compile_t0, mode)
    verdict.stats["universe"] = len(universe)
    verdict.stats["matchings_solved"] = engine.matchings_solved
    verdict.stats["wall_time_s"] = time.perf_counter() - t0
    return verdict


def _witness_verdict(engine, mask, mode, stats) -> Verdict:
    rel = PlaceRelation.of(engine.pairs[i] for i in _positions(mask))
    t0 = time.perf_counter()
    report = check_relation(engine.net, rel, engine.kind, node_budget=engine.node_budget)
    stats["reverify_s"] = time.perf_counter() - t0
    if not report.ok:
        raise PneqError("internal error: candidate witness failed re-verification")
    return Verdict("related", rel, mode, stats)


def _positions(mask) -> list:
    """The positions of the set bits of `mask`, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _decide_search(engine, masks, compile_t0, mode) -> Verdict:
    """`mode`'s verdict over the association masks `masks` of the query
    pair.

    Outside guided mode, compiling prunes the pairs and associations that
    are in no witness: a pair bit is bad when its relation fails a
    condition even under the full universe (`_Engine.depth_one_cut`, in
    closed form: it asks no response, so no budget ends it), and an
    association mask is refuted when it fails a condition under every pair
    that is not bad (`_Engine.failures`); `prune_s` times the two. The
    demand search then runs over the good bits from the surviving masks;
    with none left, it checks no relation and counts every candidate.
    Guided and auto mode cap it at `SEARCH_CAP` relations checked, and
    answer unknown past the cap, guided mode also where the search is
    exhausted.
    """
    counters = ("relations_examined", "relations_checked", "pruned_pairs",
                "associations", "associations_refuted")
    stats = dict.fromkeys(counters, 0) | {"search_s": 0.0, "reverify_s": 0.0}
    guided = mode == "guided"
    mode_used = "guided" if guided else "exhaustive"
    prune_t0 = time.perf_counter()
    bad = 0
    reason = NO_ASSOCIATION
    kept = list(masks)
    if masks and not guided:
        # the search's own cut at depth one: a pair whose relation fails a
        # condition even under the full universe is in no witness
        bad = engine.depth_one_cut()
        stats["pruned_pairs"] = bad.bit_count()
        masks = [mm for mm in masks if not mm & bad]
        reason = "every association uses a statically infeasible pair"
        # and at the root: every witness contains an association, so one
        # that fails a condition under all the good pairs is in none
        allowed = engine.universe_mask & ~bad
        kept = []
        for mm in masks:
            try:
                failure = next(engine.failures(mm, allowed), None)
            except SearchBudgetError:
                failure = None  # undecided: leave it to the search
            if failure is None:
                kept.append(mm)
    stats["associations"] = len(masks)
    stats["associations_refuted"] = len(masks) - len(kept)
    stats["prune_s"] = time.perf_counter() - prune_t0
    stats["compile_s"] = time.perf_counter() - compile_t0
    exhausted = "unknown" if guided else "not-related"
    if not masks:
        stats["reason"] = reason
        return Verdict(exhausted, None, mode_used, stats)
    if not kept:
        stats["reason"] = "every association fails a condition"
    bits = [engine.bit[pair] for pair in engine.pairs if not engine.bit[pair] & bad]
    node_cap = None if mode == "exhaustive" else SEARCH_CAP
    t0 = time.perf_counter()
    try:
        found = _demand_search(engine, bits, kept, node_cap, stats)
    except SearchBudgetError as exc:
        # a response search's budget error ends a check before it counts
        if stats["relations_checked"] != node_cap:
            raise
        stats["reason"] = str(exc)
        return Verdict("unknown", None, mode_used, stats)
    finally:
        stats["search_s"] = time.perf_counter() - t0
    if found is None:
        if guided:
            stats["reason"] = "guided search exhausted without finding a witness"
        return Verdict(exhausted, None, mode_used, stats)
    return _witness_verdict(engine, found, mode_used, stats)


def _demand_search(engine, bits, masks, node_cap, stats):
    """The first relation over `bits` that contains one of the association
    masks `masks` and passes the full check, by pair count and then
    lexicographically; None when there is none.

    Best first in that order, from `masks`, a relation grows only by the
    exact repair options of its first failing condition (a theta failure
    is a dead end). A minimal witness holds only the pairs its responses
    need, so it is reached from an association inside it, and a relation
    comes after the one it grew from. A budget error while building the
    options grows the relation by each good bit instead, as the scan would.
    `relations_examined` is the scan's count up to the last relation
    checked, or every candidate. Past `node_cap` checks (None: no cap),
    SearchBudgetError; the counters reach `stats` even then.
    """
    good = sum(bits)
    levels: dict = {}  # pair count -> the relations of that count to check
    for mm in masks:
        levels.setdefault(mm.bit_count(), set()).add(mm)
    checked, last = 0, None
    try:
        while levels:  # a relation grows into a later level
            for rel in sorted(levels.pop(min(levels)), key=_positions):
                if checked == node_cap:
                    raise SearchBudgetError(
                        f"relation search exceeded {node_cap} nodes", checked + 1)
                failure = next(engine.failures(rel, rel), None)
                checked += 1
                last = rel
                if failure is None:
                    return rel
                if failure[1] is None:
                    continue  # theta viability cannot be repaired by adding pairs
                try:
                    options = _repair_options(engine, *failure, rel, good)
                except SearchBudgetError:
                    options = [b for b in bits if not rel & b]
                for option in options:
                    grown = rel | option
                    levels.setdefault(grown.bit_count(), set()).add(grown)
    finally:
        stats["relations_checked"] = checked
        stats["relations_examined"] = 0 if last is None else _scan_count(bits, last)
    stats["relations_examined"] = 2 ** len(bits)
    return None


def _scan_count(bits, mask) -> int:
    """The relations over the n `bits` before `mask` (k pairs) by pair count,
    then lexicographically, plus one: every C(n, j), j < k, and for the i-th
    bit, outside `mask` and after j < k of its bits, C(n - i - 1, k - j - 1)."""
    n, k = len(bits), mask.bit_count()
    count = 1 + sum(comb(n, j) for j in range(k))
    j = 0
    for i, b in enumerate(bits):
        if mask & b:
            j += 1
        elif j < k:
            count += comb(n - i - 1, k - j - 1)
    return count


def _repair_options(engine, ti, m, side, rbits, good) -> set:
    """The masks of pair additions that could discharge the failed
    condition (ti, m, side), each once, in no particular order: for each
    answer of `_Engine.requirements`, the unions of one association mask
    over `good`, the pairs a witness may hold, less `rbits`, per
    requirement that `rbits` does not meet. Their count is within the node
    budget (SearchBudgetError past it)."""
    options = set()
    needed: dict = {}  # requirement -> its choices, or None when `rbits` meets it
    for reqs in engine.requirements(ti, m, side):
        choice_lists = []
        for req in reqs:
            choices = needed.get(req, _MISS)
            if choices is _MISS:
                left, right, d = req
                allowed = engine.universe_mask if d else engine.core_mask
                choices = None
                if not engine.member(left, right, rbits & allowed, d):
                    choices = [q & ~rbits for q in engine.repair_choices(
                        left, right, d, allowed & good)]
                needed[req] = choices
            if choices is None:
                continue
            if not choices:
                break  # a requirement no addition can meet
            choice_lists.append(choices)
        else:
            if (count := prod(map(len, choice_lists))) > engine.node_budget:
                raise SearchBudgetError("repair options exceeded the node budget", count)
            # with no choice lists, the one empty addition is dropped below
            for combo in itertools.product(*choice_lists):
                additions = 0
                for q in combo:
                    additions |= q
                options.add(additions)
    options.discard(0)
    return options
