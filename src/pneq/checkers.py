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
from collections import deque
from dataclasses import dataclass, field
from math import comb
from typing import Optional

from .errors import ModelError, PneqError, SearchBudgetError
from .multiset import Marking
from .net import TAU, Net
from .relations import (
    THETA,
    MatchWitness,
    PlaceRelation,
    _match,
    additive_member,
    d_additive_member,
    format_side,
    iter_matchings,
)
# silent_reachable is unused here; perfbench/spans.CROSS_MODULE times it by this name
from .silent import run_search, silent_graph, silent_reachable  # noqa: F401

KINDS = ("place", "dplace", "bplace", "bdplace")
AUTO_NODES = 100_000  # auto mode: exhaustive search nodes before the guided fallback
GUIDED_NODES = 20_000  # candidate relations guided mode checks before giving up
GUIDED_WIDTH = 12  # repair options guided mode tries per failed condition


@dataclass(frozen=True)
class Violation:
    transition: str
    marking: Marking
    side: int  # 1: the transition moved on the left, 2: on the right
    reason: str  # "no-response" | "closure-failure"
    details: str = ""


@dataclass
class CheckReport:
    ok: bool
    violations: tuple = ()
    silent_witnesses: tuple = ()  # (anchor, direction, trace markings) triples

    def __post_init__(self):
        assert self.ok == (not self.violations)


@dataclass
class DecideCaps:
    """The budget of one `decide` call: the nodes of each silent-response
    search."""
    node_budget: int = 1_000_000

    def __post_init__(self):
        if self.node_budget <= 0:
            raise ModelError("caps must be positive")


@dataclass
class Verdict:
    status: str  # related | not-related | unknown
    witness: Optional[PlaceRelation]
    mode_used: str  # exhaustive | guided | verify
    stats: dict = field(default_factory=dict)


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

    Candidate relations are bitmasks over the universe. Image sets are
    cached keyed by the pairs of the pre-set's places; responses are cached
    keyed by `resp_mask`, built once per transition and side, so the many
    relations that the branch-and-bound search visits share most of their
    work. `failures` is the one walk over the finite conditions:
    `check_relation`, guided repair, static pruning and the branch-and-bound
    all consume it.
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
        self.row = {p: sorted(v, key=lambda e: key[e[0]]) for p, v in row_items.items()}
        self.col = {p: sorted(v, key=lambda e: key[e[0]]) for p, v in col_items.items()}
        self.adj = silent_graph(net)
        self.trans = list(net.transitions)
        self.pre_tok = [t.pre.tokens() for t in self.trans]
        self.post_tok = [t.post.tokens() for t in self.trans]
        self.tau_seq = [
            t.label == TAU and t.pre.size == 1 and t.post.size == 1
            for t in self.trans
        ]
        self.by_label: dict = {}
        self.by_pre: dict = {}
        for i, t in enumerate(self.trans):
            self.by_label.setdefault(t.label, []).append(i)
            self.by_pre.setdefault((t.label, self.pre_tok[i]), []).append(i)
        # Places as bits: a transition has images on a side only when every
        # place of its pre-set has a partner there.
        self.pre_places = [sum(1 << key[p] for p in set(tok)) for tok in self.pre_tok]
        self.partnered = {
            side: [(1 << key[p], mask) for p, mask in masks.items()]
            for side, masks in ((1, self.rowmask), (2, self.colmask))
        }
        # (ti, side, per pre-set place its partner-or-theta mask, theta mask)
        self.theta_conds = []
        for ti, tok in enumerate(self.pre_tok if self.d else ()):
            dom = set(tok)
            for side, masks, thetas in (
                (1, self.rowmask, self.theta_row),
                (2, self.colmask, self.theta_col),
            ):
                theta = sum(thetas.get(p, 0) for p in dom)  # distinct bits
                if theta:
                    covers = tuple(masks.get(p, 0) | thetas.get(p, 0) for p in dom)
                    self.theta_conds.append((ti, side, covers, theta))
        # The bits a response can read: the moving side's pairs on the
        # transition's pre- and post-set places, and every theta pair.
        thetas = self.universe_mask & ~self.core_mask if self.d else 0
        self.resp_mask = {
            side: [
                sum(masks.get(p, 0) for p in set(pre) | set(post)) | thetas
                for pre, post in zip(self.pre_tok, self.post_tok)
            ]
            for side, masks in ((1, self.rowmask), (2, self.colmask))
        }
        self._images_cache: dict = {}
        self._resp_cache: dict = {}
        self.matchings_solved = 0

    # -- closure membership ------------------------------------------------

    def _pairs_from_bits(self, rbits, supp1, supp2, d):
        out = []
        for a in supp1:
            for c in supp2:
                b = self.bit.get((a, c))
                if b and rbits & b:
                    out.append((a, c))
        if d:
            for a in supp1:
                b = self.theta_row.get(a, 0)
                if rbits & b:
                    out.append((a, THETA))
            for c in supp2:
                b = self.theta_col.get(c, 0)
                if rbits & b:
                    out.append((THETA, c))
        return out

    def member_plain(self, m1, m2, rbits) -> bool:
        if len(m1) != len(m2):
            return False
        k = len(m1)
        if k == 0:
            return True
        self.matchings_solved += 1
        bit = self.bit
        if k == 1:
            b = bit.get((m1[0], m2[0]))
            return bool(b and rbits & b)
        if k == 2:
            a, b_ = m1
            c, d_ = m2
            x1 = bit.get((a, c))
            x2 = bit.get((b_, d_))
            if x1 and x2 and rbits & x1 and rbits & x2:
                return True
            x3 = bit.get((a, d_))
            x4 = bit.get((b_, c))
            return bool(x3 and x4 and rbits & x3 and rbits & x4)
        supp1, supp2 = set(m1), set(m2)
        allowed = self._pairs_from_bits(rbits, supp1, supp2, False)
        return _match(allowed, Marking(m1), Marking(m2), d=False) is not None

    def member_d(self, m1, m2, rbits) -> bool:
        self.matchings_solved += 1
        bit = self.bit
        if len(m1) == 0 and len(m2) == 0:
            return True
        if len(m1) == 1 and len(m2) == 1:
            b = bit.get((m1[0], m2[0]))
            if b and rbits & b:
                return True
            return bool(
                rbits & self.theta_row.get(m1[0], 0)
                and rbits & self.theta_col.get(m2[0], 0)
            )
        if len(m1) == 1 and len(m2) == 0:
            return bool(rbits & self.theta_row.get(m1[0], 0))
        if len(m1) == 0 and len(m2) == 1:
            return bool(rbits & self.theta_col.get(m2[0], 0))
        allowed = self._pairs_from_bits(rbits, set(m1), set(m2), True)
        return _match(allowed, Marking(m1), Marking(m2), d=True) is not None

    def member_posts(self, mleft, mright, rbits) -> bool:
        if self.d:
            return self.member_d(mleft, mright, rbits)
        return self.member_plain(mleft, mright, rbits)

    # -- image sets ----------------------------------------------------------

    def images(self, tokens, rbits, side) -> tuple:
        table = self.row if side == 1 else self.col
        masks = self.rowmask if side == 1 else self.colmask
        mask = 0
        for p in set(tokens):
            mask |= masks.get(p, 0)
        key = (tokens, side, rbits & mask)
        hit = self._images_cache.get(key)
        if hit is not None:
            return hit
        per_token = []
        for p in tokens:
            imgs = [q for q, b in table.get(p, ()) if rbits & b]
            if not imgs:
                self._images_cache[key] = ()
                return ()
            per_token.append(imgs)
        seen = set()
        for combo in itertools.product(*per_token):
            seen.add(tuple(sorted(combo)))
        out = tuple(sorted(seen))
        self._images_cache[key] = out
        return out

    # -- response feasibility ---------------------------------------------------

    def respond(self, ti: int, m: tuple, side: int, rbits) -> bool:
        key = (ti, m, side, rbits & self.resp_mask[side][ti])
        hit = self._resp_cache.get(key)
        if hit is None:
            hit = self._resp_cache[key] = self._respond_compute(ti, m, side, rbits)
        return hit

    def _respond_compute(
        self, ti: int, m: tuple, side: int, rbits, collector=None
    ) -> bool:
        t = self.trans[ti]
        bar = rbits & self.core_mask if self.d else rbits
        anchor = self.pre_tok[ti]
        post = self.post_tok[ti]

        if side == 1:
            psi_ok = lambda mk: self.member_plain(anchor, mk, bar)
        else:
            psi_ok = lambda mk: self.member_plain(mk, anchor, bar)

        def record(markings):
            if collector is not None:
                collector.append(
                    (Marking(anchor), "psi" if side == 1 else "phi", tuple(markings))
                )

        if not self.branching:
            for cj in self.by_pre.get((t.label, m), ()):
                cpost = self.post_tok[cj]
                left, right = (post, cpost) if side == 1 else (cpost, post)
                if self.member_posts(left, right, rbits):
                    return True
            return False

        if self.tau_seq[ti]:
            if side == 1:
                final_ok = lambda f: self.member_plain(anchor, f, bar) and self.member_plain(
                    post, f, bar
                )
            else:
                final_ok = lambda f: self.member_plain(f, anchor, bar) and self.member_plain(
                    f, post, bar
                )
            if final_ok(m):
                record((Marking(m), Marking(m)))
                return True
            hit = run_search(
                self.adj, m, psi_ok, final_ok=final_ok, node_budget=self.node_budget
            )
            if hit is not None:
                record(hit[1])
                return True

        for cj in self.by_label.get(t.label, ()):
            cpre = self.pre_tok[cj]
            if len(cpre) != len(m):
                continue
            cpost = self.post_tok[cj]
            if side == 1:
                if not self.member_plain(anchor, cpre, bar):
                    continue
                if not self.member_posts(post, cpost, rbits):
                    continue
            else:
                if not self.member_plain(cpre, anchor, bar):
                    continue
                if not self.member_posts(cpost, post, rbits):
                    continue
            if cpre == m:
                # answering with idling on every token
                record([Marking(m)] * (len(m) + 1))
                return True
            hit = run_search(
                self.adj, m, psi_ok, target=cpre, node_budget=self.node_budget
            )
            if hit is not None:
                record(hit[1])
                return True
        return False

    # -- the condition walk ---------------------------------------------------

    def failures(self, lower, upper, collector=None):
        """The failing conditions of the relations between two masks.

        A condition is active under `lower`: a theta condition (a pre-set
        place related to the empty marking, the others related at all),
        or a transition, an image of its pre-set and a side. It fails when
        it holds under `lower` (theta) or has no response even under
        `upper`. Yields (ti, None, side) for a theta failure and
        (ti, m, side) for a response failure, thetas first. Image sets,
        theta conditions and `respond` are monotone in the relation, so a
        condition failing here fails for every relation between the two.
        """
        for ti, side, covers, theta in self.theta_conds:
            if lower & theta and all(lower & c for c in covers):
                yield ti, None, side
        bar = lower & self.core_mask if self.d else lower
        for side in (1, 2):
            placed = 0
            for place, mask in self.partnered[side]:
                if bar & mask:
                    placed |= place
            for ti, pre in enumerate(self.pre_places):
                if pre & placed != pre:
                    continue  # an unpartnered pre-set place: no images
                for m in self.images(self.pre_tok[ti], bar, side):
                    if collector is not None:
                        ok = self._respond_compute(ti, m, side, upper, collector)
                    else:
                        ok = self.respond(ti, m, side, upper)
                    if not ok:
                        yield ti, m, side

    def violation(self, ti, m, side) -> Violation:
        t = self.trans[ti]
        if m is None:
            return Violation(
                t.tid,
                t.pre,
                side,
                "closure-failure",
                "a pre-set place is related to the empty marking, so the "
                "move cannot be answered when its token is matched away",
            )
        return Violation(
            t.tid,
            Marking(m),
            side,
            "no-response",
            f"no matching response from {Marking(m)!r}",
        )


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _pair_sort_key(net: Net, pair):
    n = len(net.places)
    a, b = pair
    return (
        n if a is THETA else net.place_index[a],
        n if b is THETA else net.place_index[b],
    )


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
    node_budget: int = 1_000_000,
    collect_witnesses: bool = False,
) -> CheckReport:
    """Verify the finite game conditions for a candidate relation.

    Search-budget exhaustion raises SearchBudgetError: an inconclusive
    check is never reported as a violation.
    """
    _check_kind(kind)
    if not _is_d(kind) and rel.is_d_extended:
        raise ModelError(f"{kind} requires a plain relation")
    for a, b in rel.pairs:
        for p in (a, b):
            if p is not THETA and p not in net.place_index:
                raise ModelError(f"relation uses undeclared place {p!r}")
    universe = sorted(rel.pairs, key=lambda pr: _pair_sort_key(net, pr))
    engine = _Engine(net, universe, kind, node_budget)
    collector = [] if collect_witnesses else None
    full = engine.universe_mask
    violations = tuple(
        engine.violation(*failure) for failure in engine.failures(full, full, collector)
    )
    return CheckReport(not violations, violations, tuple(collector or ()))


def membership(rel: PlaceRelation, kind: str, m1: Marking, m2: Marking) -> Optional[MatchWitness]:
    """Closure membership of (m1, m2) under the kind's closure."""
    if _is_d(kind):
        return d_additive_member(rel, m1, m2)
    return additive_member(rel, m1, m2)


def verify(
    net: Net,
    rel: PlaceRelation,
    kind: str,
    m1: Marking,
    m2: Marking,
    node_budget: int = 1_000_000,
) -> Verdict:
    """Check a user-supplied relation and the membership of the query pair.

    Related means both hold; anything else is reported as unknown (a
    failed candidate never proves the markings inequivalent).
    """
    net.check_marking(m1)
    net.check_marking(m2)
    t0 = time.perf_counter()
    report = check_relation(net, rel, kind, node_budget=node_budget)
    member = membership(rel, kind, m1, m2)
    ok = report.ok and member is not None
    stats = {
        "relation_ok": report.ok,
        "membership_ok": member is not None,
        "wall_time_s": time.perf_counter() - t0,
    }
    return Verdict(
        "related" if ok else "unknown",
        rel if ok else None,
        "verify",
        stats,
    )


def decide(
    net: Net,
    m1: Marking,
    m2: Marking,
    kind: str,
    mode: str = "auto",
    caps: Optional[DecideCaps] = None,
) -> Verdict:
    """Decide whether two markings are equivalent under the given kind.

    Exhaustive mode searches the candidate relations over the pair
    universe by increasing pair count, then lexicographically, so a
    related verdict carries the minimal witness in that order. The search
    is a branch-and-bound that cuts every subtree of candidates a monotone
    condition rules out, and counts them as examined, so exhausting it is
    conclusive. Before it starts, pairs that fail a condition on their own
    are pruned, and associations of the two markings that fail a condition
    under every unpruned pair are refuted, since each witness contains an
    association; when all are refuted, the search rules out the
    candidates of each pair count in one cut. All these conditions come from one walk,
    `_Engine.failures`. Guided mode grows a candidate from the query pair
    and answers related or unknown, never not-related.

    Auto mode runs the exhaustive search within `AUTO_NODES` nodes; when a
    budget runs out, it falls back to guided mode, noting why in
    `stats["fallback"]` and keeping the attempt's stats under
    `exhaustive_`-prefixed keys.
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
    if mode == "guided":
        verdict = _decide_guided(engine, m1, m2)
    else:
        node_cap = AUTO_NODES if mode == "auto" else None
        attempt: dict = {}
        try:
            verdict = _decide_exhaustive(engine, m1, m2, compile_t0, node_cap, attempt)
        except SearchBudgetError as exc:
            if mode == "exhaustive":
                raise
            verdict = _decide_guided(engine, m1, m2)
            verdict.stats["fallback"] = str(exc)
            verdict.stats |= {f"exhaustive_{k}": x for k, x in attempt.items()}
    verdict.stats["universe"] = len(universe)
    verdict.stats["matchings_solved"] = engine.matchings_solved
    verdict.stats["wall_time_s"] = time.perf_counter() - t0
    return verdict


def _witness_verdict(engine, pairs, mode, stats) -> Verdict:
    rel = PlaceRelation.of(pairs)
    t0 = time.perf_counter()
    report = check_relation(engine.net, rel, engine.kind, node_budget=engine.node_budget)
    stats["reverify_s"] = time.perf_counter() - t0
    if not report.ok:
        raise PneqError("internal error: candidate witness failed re-verification")
    return Verdict("related", rel, mode, stats)


def _decide_exhaustive(engine, m1, m2, compile_t0, node_cap, stats) -> Verdict:
    """Fill `stats` and return the exhaustive verdict.

    Compiling prunes the pairs and associations that are in no witness: a
    pair bit is bad when its relation fails a condition even under the
    full universe, and an association mask is refuted when it fails a
    condition under every pair that is not bad. The branch-and-bound then
    runs over the good bits with the surviving masks; with none left, its
    root cut counts every candidate at once. `stats` keeps its counters
    and timings when a budget error ends the search.
    """
    counters = ("relations_examined", "relations_checked", "pruned_pairs", "search_nodes",
                "cuts_association", "cuts_theta", "cuts_response",
                "associations", "associations_refuted")
    stats |= dict.fromkeys(counters, 0) | {"search_s": 0.0, "reverify_s": 0.0}
    masks = set()
    for q in iter_matchings(engine.pairs, m1, m2, engine.d):
        mask = 0
        for pr in q:
            if pr[0] is THETA and pr[1] is THETA:
                continue
            mask |= engine.bit[pr]
        masks.add(mask)
    bad = 0
    reason = "no association over the pair universe"
    if masks:
        # the search's own cut at depth one: a pair whose relation fails a
        # condition even under the full universe is in no witness
        full = engine.universe_mask
        for b in engine.bit.values():
            if next(engine.failures(b, full), None) is not None:
                bad |= b
        stats["pruned_pairs"] = bad.bit_count()
        masks = [mm for mm in masks if not mm & bad]
        reason = "every association uses a statically infeasible pair"
    # and at the root: every witness contains an association, so one that
    # fails a condition under all the good pairs is in none
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
    stats["compile_s"] = time.perf_counter() - compile_t0
    if not masks:
        stats["reason"] = reason
        return Verdict("not-related", None, "exhaustive", stats)
    if not kept:
        stats["reason"] = "every association fails a condition"
    bits = [engine.bit[pair] for pair in engine.pairs if not engine.bit[pair] & bad]
    t0 = time.perf_counter()
    try:
        found = _branch_and_bound(engine, bits, kept, node_cap, stats)
    finally:
        stats["search_s"] = time.perf_counter() - t0
    if found is None:
        return Verdict("not-related", None, "exhaustive", stats)
    pairs = [pair for pair in engine.pairs if found & engine.bit[pair]]
    return _witness_verdict(engine, pairs, "exhaustive", stats)


def _branch_and_bound(engine, bits, masks, node_cap, stats):
    """The first relation over `bits` that contains an association mask and
    passes the full check, by pair count and then lexicographically; None
    when there is none. `masks` holds the associations left after the
    up-front cut of `_decide_exhaustive`; when it is empty, the root of
    each pair count is one association cut.

    For each pair count k, a depth-first search decides the bits in order,
    including a bit before excluding it: that visits the candidates of k
    pairs in lexicographic order of their bit positions. A node has the
    included bits `rel`, and `upper` adds the undecided ones. Its subtree is
    cut when no association mask fits inside `upper` within k pairs, or,
    where `rel` has just grown, when a condition fails between `rel` and
    `upper` (see `_Engine.failures`). A leaf is the full check of `rel`. A
    cut adds the candidates it rules out to `relations_examined`, so that
    count is that of a scan of them all.
    More than `node_cap` nodes, unless it is None, raise SearchBudgetError.
    The counters reach `stats` even when a budget error ends the search.
    """
    n = len(bits)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | bits[i]
    examined = checked = nodes = 0

    def rule_out(count, cut):
        nonlocal examined
        examined += count
        if cut:
            stats[cut] += 1

    def visit(i, rel, need, grew):
        nonlocal checked, nodes
        nodes += 1
        if node_cap is not None and nodes > node_cap:
            raise SearchBudgetError(f"relation search exceeded {node_cap} nodes", nodes)
        upper = rel | suffix[i] if need else rel
        if not any(mm & upper == mm and (rel | mm).bit_count() <= k for mm in masks):
            rule_out(comb(n - i, need), "cuts_association")
            return None
        if not need:
            rule_out(1, None)
            checked += 1
            return rel if next(engine.failures(rel, rel), None) is None else None
        if grew and need < n - i:  # else the subtree is one leaf
            try:
                failure = next(engine.failures(rel, upper), None)
            except SearchBudgetError:
                failure = None  # undecided under `upper`: leave it to the leaves
            if failure is not None:
                cut = "cuts_theta" if failure[1] is None else "cuts_response"
                rule_out(comb(n - i, need), cut)
                return None
        found = visit(i + 1, rel | bits[i], need - 1, True)
        if found is None and need < n - i:
            found = visit(i + 1, rel, need, False)
        return found

    found = None
    try:
        for k in range(n + 1):
            found = visit(0, 0, k, True)
            if found is not None:
                break
    finally:
        stats["relations_examined"] = examined
        stats["relations_checked"] = checked
        stats["search_nodes"] = nodes
    return found


def _decide_guided(engine, m1, m2) -> Verdict:
    universe_set = set(engine.pairs)
    core_universe = {pr for pr in universe_set if THETA not in pr}
    stats = {"relations_examined": 0, "relations_checked": 0}

    def pairs_key(pairs):
        return tuple(sorted((format_side(a), format_side(b)) for a, b in pairs))

    seeds = sorted(
        (frozenset(q) for q in iter_matchings(engine.pairs, m1, m2, engine.d)),
        key=pairs_key,
    )
    queue = deque(seeds)
    seen = set()
    while queue and stats["relations_examined"] < GUIDED_NODES:
        rel_pairs = queue.popleft()
        if rel_pairs in seen:
            continue
        seen.add(rel_pairs)
        stats["relations_examined"] += 1
        stats["relations_checked"] += 1
        rbits = 0
        for pr in rel_pairs:
            rbits |= engine.bit[pr]
        failure = next(engine.failures(rbits, rbits), None)
        if failure is None:
            return _witness_verdict(engine, rel_pairs, "guided", stats)
        ti, m, side = failure
        if m is None:
            continue  # theta viability cannot be repaired by adding pairs
        options = _repair_options(
            engine, ti, m, side, rbits, rel_pairs, universe_set, core_universe
        )
        for additions in options[:GUIDED_WIDTH]:
            queue.append(rel_pairs | additions)
    stats["reason"] = "guided search exhausted without finding a witness"
    return Verdict("unknown", None, "guided", stats)


def _repair_options(engine, ti, m, side, rbits, rel_pairs, universe_set, core_universe):
    """Pair additions that could discharge the failed condition (ti, m, side)."""
    t = engine.trans[ti]
    anchor = engine.pre_tok[ti]
    post = engine.post_tok[ti]
    d = engine.d
    bar = rbits & engine.core_mask if d else rbits

    def oriented(x, y):
        return (x, y) if side == 1 else (y, x)

    requirements_sets = []
    always_true = lambda mk: True
    if engine.branching:
        sigma_limit = 4
        if engine.tau_seq[ti]:
            for blocks, markings in run_search(
                engine.adj,
                m,
                always_true,
                final_ok=lambda f: True,
                node_budget=engine.node_budget,
                collect=sigma_limit,
            ):
                final = markings[-1].tokens()
                reqs = [
                    (oriented(anchor, mk.tokens()), "core")
                    for mk in markings[:-1]
                ]
                reqs.append((oriented(anchor, final), "core"))
                reqs.append((oriented(post, final), "core"))
                requirements_sets.append(reqs)
        for cj in engine.by_label.get(t.label, ()):
            cpre = engine.pre_tok[cj]
            if len(cpre) != len(m):
                continue
            cpost = engine.post_tok[cj]
            for blocks, markings in run_search(
                engine.adj,
                m,
                always_true,
                target=cpre,
                node_budget=engine.node_budget,
                collect=sigma_limit,
            ):
                reqs = [
                    (oriented(anchor, mk.tokens()), "core")
                    for mk in markings[:-1]
                ]
                reqs.append((oriented(anchor, cpre), "core"))
                reqs.append((oriented(post, cpost), "post"))
                requirements_sets.append(reqs)
    else:
        for cj in engine.by_pre.get((t.label, m), ()):
            cpost = engine.post_tok[cj]
            requirements_sets.append([(oriented(post, cpost), "post")])

    options = []
    seen = set()
    for reqs in requirements_sets:
        choice_lists = []
        feasible = True
        for (left, right), closure in reqs:
            use_d = d and closure == "post"
            member = (
                engine.member_d(left, right, rbits)
                if use_d
                else engine.member_plain(left, right, bar)
            )
            if member:
                continue
            allowed = universe_set if use_d else core_universe
            choices = [
                frozenset(q) - rel_pairs
                for q in itertools.islice(
                    iter_matchings(
                        allowed, Marking(left), Marking(right), use_d
                    ),
                    GUIDED_WIDTH,
                )
            ]
            if not choices:
                feasible = False
                break
            choice_lists.append(choices)
        if not feasible:
            continue
        if not choice_lists:
            continue  # nothing addable would change this response
        for combo in itertools.islice(
            itertools.product(*choice_lists), GUIDED_WIDTH * 4
        ):
            additions = frozenset().union(*combo)
            if additions and additions not in seen:
                seen.add(additions)
                options.append(additions)
    options.sort(
        key=lambda s: (len(s), sorted((format_side(a), format_side(b)) for a, b in s))
    )
    return options
