"""Seeded inputs for the pneq benchmark, as text plus the known answer.

Everything here is standard library only and never imports pneq: the
program under test receives nothing but the generated `.pn`/`.rel`/marking
text. Every random stream is a `random.Random` seeded with an integer made
by arithmetic from the workload seed, never from `hash()` of a string,
whose value Python salts per process.

The structures of the random families (the copied nets, the conservative
nets, the ring labels and tokens) come from streams with a fixed base
seed, the same for every workload seed. The workload seed renames every
place, spells the visible labels and spreads the tokens of the
membership queries. So two seeds give different text with the same mix
of work, and the end-to-end figures of different seeds can be compared.

A query is a plain dict:

    qid       unique name, stable for a seed
    op        decide | verify | check | member | dmember | graph
    net       net text (every op but member/dmember)
    m1, m2    marking expressions
    kind      place | dplace | bplace | bdplace | int | bint
    mode      exhaustive | guided (decide only)
    rel       relation text (verify, check, member, dmember)
    expected  related | not-related for decide/verify/graph, True/False
              for check (relation ok) and member/dmember (is a member)
    bounded   False when the net is unbounded, so the graph cross-check
              of a related verdict does not apply
    tokens    token count of m1 (member/dmember; names the size bucket)
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "src" / "pneq" / "corpus"
KINDS = ("place", "dplace", "bplace", "bdplace")
MEMBER_SIZES = (2, 10, 100, 1000)

# Stream identifiers keep the families independent of each other: adding
# a family never changes the inputs another family draws.
_SSYNC, _COPY, _RING, _CONS, _LADDER, _MEMBER, _ONESHOT_COPY, _ORDER = range(1, 9)


def _rng(seed: int, stream: int, index: int = 0) -> random.Random:
    return random.Random(seed * 1_000_003 + stream * 10_007 + index)


def _shape(stream: int, index: int) -> random.Random:
    """The seed-independent stream a random family draws its structure from."""
    return _rng(0, stream, index)


def _spelling(rng: random.Random, labels) -> dict:
    """Seeded spellings of visible labels; the silent label stays tau."""
    return {
        label: label if label == "tau" else f"{label}{rng.randrange(100)}"
        for label in labels
    }


def _names(rng: random.Random, prefix: str, n: int) -> list:
    """n distinct place names under a prefix, in a seeded order."""
    ids = rng.sample(range(10 * n + 10), n)
    return [f"{prefix}{i}" for i in ids]


def _mexpr(tokens) -> str:
    counts: dict = {}
    for p in tokens:
        counts[p] = counts.get(p, 0) + 1
    if not counts:
        return "0"
    return "+".join(p if k == 1 else f"{k}*{p}" for p, k in sorted(counts.items()))


def _net_text(name: str, places, transitions) -> str:
    """transitions: (tid, pre tokens, label, post tokens)."""
    lines = [f"net {name}", "place " + " ".join(places)]
    for tid, pre, label, post in transitions:
        lines.append(f"trans {tid} : {_mexpr(pre)} -> {label} -> {_mexpr(post)}")
    return "\n".join(lines) + "\n"


def _rel_text(name: str, pairs) -> str:
    lines = [f"relation {name}"]
    lines += [f"pair {a} {b}" for a, b in pairs]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the built-in corpus
# ---------------------------------------------------------------------------


def corpus_queries(select) -> list:
    """Corpus cases that `select(case)` accepts, with the manifest's answer."""
    cases = json.loads((CORPUS / "manifest.json").read_text())["cases"]
    out = []
    for case in cases:
        if not select(case):
            continue
        q = case["query"]
        query = {
            "qid": "corpus:" + case["name"],
            "net": (CORPUS / case["net"]).read_text(),
            "m1": q["m1"],
            "m2": q["m2"],
            "kind": q["eq"],
            "expected": case["expected"],
            "bounded": "oracle-skip" not in case.get("tags", ()),
        }
        if q["eq"] in ("int", "bint"):
            query["op"] = "graph"
        elif q["op"] == "verify":
            query["op"] = "verify"
            query["rel"] = (CORPUS / q["relation"]).read_text()
        else:
            query["op"] = "decide"
            query["mode"] = q.get("mode", "auto")
        out.append(query)
    return out


# ---------------------------------------------------------------------------
# silent-sync-shaped nets: bplace is not-related by construction
# ---------------------------------------------------------------------------


def silent_sync(seed: int, index: int, n_left: int, n_right: int) -> dict:
    """A local silent step feeding a visible synchronization (left), against
    a silent two-party synchronization feeding the same label (right).

    The right-hand silent move is not tau-sequential, so it is observable
    to every place-based kind, and the left side has no two-token silent
    transition to answer it: not-related. The pair universe is
    n_left * n_right (3 <= n_left <= 4, 4 <= n_right).
    """
    rng = _rng(seed, _SSYNC, index)
    lp = _names(rng, "l", n_left)
    rp = _names(rng, "r", n_right)
    label = rng.choice(("a", "go", "sync", "hand"))
    trans = [
        ("tl1", [lp[0]], "tau", [lp[1]]),
        ("tl2", [lp[1], lp[2]], label, lp[3:4]),
        ("tr1", [rp[0], rp[1]], "tau", [rp[2], rp[3]]),
        ("tr2", [rp[2], rp[3]], label, rp[4:]),
    ]
    return {
        "qid": f"ssync{n_left * n_right}:{index}",
        "op": "decide",
        "mode": "exhaustive",
        "kind": "bplace",
        "net": _net_text(f"ssync{index}", lp + rp, trans),
        "m1": _mexpr([lp[0], lp[2]]),
        "m2": _mexpr([rp[0], rp[1]]),
        "expected": "not-related",
        "bounded": True,
    }


# ---------------------------------------------------------------------------
# a random conservative net beside a renamed copy
# ---------------------------------------------------------------------------


def _conservative(rng: random.Random, n_places: int, n_trans: int, labels) -> list:
    """Random transitions over place indices whose post-set has as many
    tokens as the pre-set, so every reachable marking keeps the initial
    token count (bounded). Every place is touched by some transition."""
    places = list(range(n_places))
    trans = []
    untouched = list(places)
    rng.shuffle(untouched)
    for i in range(n_trans):
        size = 1 if rng.random() < 0.6 else 2
        pre = [untouched.pop() if untouched else rng.choice(places)]
        pre += [rng.choice(places) for _ in range(size - 1)]
        post = [untouched.pop() if untouched else rng.choice(places)]
        post += [rng.choice(places) for _ in range(size - 1)]
        trans.append((f"t{i}", pre, rng.choice(labels), post))
    return trans


class Copy:
    """A random conservative net beside its renamed copy.

    The structure and the marking m come from `shape`, the names and label
    spellings from `names`. The renaming relates m to its image for all
    four kinds, so queries on (m, image of m) are related by construction.
    """

    def __init__(self, shape, names, n_places, n_trans, n_tokens, labels):
        trans = _conservative(shape, n_places, n_trans, labels)
        m = [shape.randrange(n_places) for _ in range(n_tokens)]
        self.left = _names(names, "p", n_places)
        self.right = _names(names, "q", n_places)
        self.rename = dict(zip(self.left, self.right))
        spell = _spelling(names, labels)
        self.trans = [
            (tid, [self.left[i] for i in pre], spell[label], [self.left[i] for i in post])
            for tid, pre, label, post in trans
        ]
        self.m = sorted(self.left[i] for i in m)
        self.m_copy = sorted(self.rename[p] for p in self.m)

    def copied(self, extra=()) -> list:
        r = self.rename
        out = list(self.trans)
        out += [
            (f"c{tid}", [r[p] for p in pre], label, [r[p] for p in post])
            for tid, pre, label, post in self.trans
        ]
        return out + list(extra)

    def text(self, name, extra=()) -> str:
        return _net_text(name, self.left + self.right, self.copied(extra))

    def renaming_text(self, name) -> str:
        return _rel_text(name, sorted(self.rename.items()))


def copy_decides(seed: int, n_nets: int, n_places: int) -> list:
    """Exhaustive decide on m against its renamed image: related for every
    kind. Then the same copy with an added fresh-label synchronization on
    two tokens of the image, enabled there and absent on the left:
    not-related (plain kinds; the theta kinds would scan 2^(n^2+2n))."""
    out = []
    for i in range(n_nets):
        c = Copy(_shape(_COPY, i), _rng(seed, _COPY, i), n_places, n_places + 1, 2,
                 ("a", "b", "tau"))
        for kind in KINDS:
            out.append({
                "qid": f"copy{i}:{kind}", "op": "decide", "mode": "exhaustive",
                "kind": kind, "net": c.text(f"copy{i}"),
                "m1": _mexpr(c.m), "m2": _mexpr(c.m_copy),
                "expected": "related", "bounded": True,
            })
        sync = [("zsync", c.m_copy[:2], "zfresh", c.m_copy[:2])]
        for kind in ("place", "bplace"):
            out.append({
                "qid": f"copysync{i}:{kind}", "op": "decide", "mode": "exhaustive",
                "kind": kind, "net": c.text(f"copysync{i}", sync),
                "m1": _mexpr(c.m), "m2": _mexpr(c.m_copy),
                "expected": "not-related", "bounded": True,
            })
    return out


def copy_oneshot(seed: int, n_nets: int) -> list:
    """verify of the renaming and guided decide, 6-14 places per side."""
    out = []
    for i in range(n_nets):
        n = 6 + (8 * i) // max(1, n_nets - 1)
        c = Copy(_shape(_ONESHOT_COPY, i), _rng(seed, _ONESHOT_COPY, i), n, n + 2, 2,
                 ("a", "b", "c", "tau"))
        net = c.text(f"one{i}")
        for kind in KINDS:
            common = {"kind": kind, "net": net, "m1": _mexpr(c.m),
                      "m2": _mexpr(c.m_copy), "bounded": True}
            out.append({"qid": f"verify{i}:{kind}", "op": "verify",
                        "rel": c.renaming_text(f"ren{i}"),
                        "expected": "related", **common})
            out.append({"qid": f"guided{i}:{kind}", "op": "decide",
                        "mode": "guided", "expected": "related", **common})
    return out


# ---------------------------------------------------------------------------
# graph oracle inputs: rings and conservative nets beside copies
# ---------------------------------------------------------------------------


def ring(seed: int, index: int, n: int, k: int, kind: str, broken: bool) -> dict:
    """k tokens on an n-place ring beside its renamed copy: the joint graph
    has 2 * C(n+k-1, k) states. With `broken`, one step of the copy carries
    a fresh label, which every token can reach: not-related."""
    shape = _shape(_RING, index)
    labels = [shape.choice(("a", "b", "tau", "tau")) for _ in range(n)]
    labels[shape.randrange(n)] = "a"
    m1 = sorted(shape.randrange(n) for _ in range(k))
    fresh = shape.randrange(n) if broken else -1
    rng = _rng(seed, _RING, index)
    left = _names(rng, "r", n)
    right = _names(rng, "s", n)
    spell = _spelling(rng, ("a", "b", "tau"))
    labels = [spell[label] for label in labels]
    trans = []
    for side, places in (("l", left), ("c", right)):
        for j in range(n):
            label = "zfresh" if side == "c" and j == fresh else labels[j]
            trans.append((f"{side}{j}", [places[j]], label, [places[(j + 1) % n]]))
    return {
        "qid": f"ring{n}x{k}{'broken' if broken else ''}:{kind}:{index}",
        "op": "graph", "kind": kind,
        "net": _net_text(f"ring{index}", left + right, trans),
        "m1": _mexpr(left[j] for j in m1),
        "m2": _mexpr(right[j] for j in m1),
        "expected": "not-related" if broken else "related",
        "bounded": True,
    }


def conservative_graph(seed: int, index: int, kind: str, broken: bool) -> dict:
    """A random conservative net beside its copy. With `broken`, the copy
    gains a fresh-label self-loop on a token of the image marking, enabled
    there and absent on the left: not-related."""
    c = Copy(_shape(_CONS, index), _rng(seed, _CONS, index), 6, 8, 3, ("a", "b", "tau"))
    extra = [("zloop", c.m_copy[:1], "zfresh", c.m_copy[:1])] if broken else []
    return {
        "qid": f"cons{index}{'broken' if broken else ''}:{kind}",
        "op": "graph", "kind": kind,
        "net": c.text(f"cons{index}", extra),
        "m1": _mexpr(c.m), "m2": _mexpr(c.m_copy),
        "expected": "not-related" if broken else "related",
        "bounded": True,
    }


# ---------------------------------------------------------------------------
# oneshot inputs: silent ladders and closure membership
# ---------------------------------------------------------------------------


def ladder(seed: int, index: int, k: int, length: int, broken: bool) -> dict:
    """k tokens, each on its own silent cycle of `length` places, joined by
    one visible synchronization on the cycles' first places; beside a copy,
    with the relation pairing each cycle with its copy place by place
    block. The visible move from any related marking needs a silent
    response that walks every token home, so check_relation spends its
    time in run_search. With `broken`, one copy cycle loses its closing
    step, a token past its start can no longer get home, and the relation
    fails."""
    rng = _rng(seed, _LADDER, index)
    xs = [_names(rng, f"x{i}_", length) for i in range(k)]
    ys = [_names(rng, f"y{i}_", length) for i in range(k)]
    label = rng.choice(("go", "fire", "a"))
    cut = rng.randrange(k) if broken else -1
    trans = []
    for side, cycles in (("l", xs), ("c", ys)):
        for i, cyc in enumerate(cycles):
            for j in range(length):
                if side == "c" and i == cut and j == length - 1:
                    continue
                trans.append((f"{side}{i}_{j}", [cyc[j]], "tau", [cyc[(j + 1) % length]]))
        heads = [cyc[0] for cyc in cycles]
        trans.append((f"{side}go", heads, label, heads))
    places = [p for cyc in xs + ys for p in cyc]
    pairs = sorted((a, b) for i in range(k) for a in xs[i] for b in ys[i])
    return {
        "qid": f"ladder{k}x{length}{'broken' if broken else ''}:{index}",
        "op": "check", "kind": "bplace",
        "net": _net_text(f"ladder{index}", places, trans),
        "rel": _rel_text(f"blocks{index}", pairs),
        "expected": not broken,
    }


def membership(seed: int, index: int, n_tokens: int, d: bool, member: bool) -> dict:
    """The criterion-13 shape: ten places a side, n_tokens spread over them.

    Plain: the full bipartite relation is a member; without every pair
    into a place the right side uses, not. d-extended: extra left tokens
    go to the empty marking when every left place has a theta pair; with
    no theta pairs a size difference is no member.
    """
    rng = _rng(seed, _MEMBER, index)
    left = [f"a{i}" for i in range(10)]
    right = [f"b{i}" for i in range(10)]
    extra = 1 + rng.randrange(3) if d else 0
    m1 = [rng.choice(left) for _ in range(n_tokens + extra)]
    m2 = [rng.choice(right) for _ in range(n_tokens)]
    pairs = [(a, b) for a in left for b in right]
    if not member and not d:
        gone = m2[0]
        pairs = [(a, b) for a, b in pairs if b != gone]
    if d and member:
        pairs += [(a, "0") for a in left]
    return {
        "qid": f"{'d' if d else ''}member{n_tokens}{'' if member else 'no'}:{index}",
        "op": "dmember" if d else "member",
        "net": _net_text("wide", left + right, []),
        "rel": _rel_text("full", pairs),
        "m1": _mexpr(m1), "m2": _mexpr(m2),
        "expected": member, "tokens": n_tokens,
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def search(seed: int) -> list:
    queries = corpus_queries(
        lambda c: c["query"]["op"] == "decide"
        and c["query"].get("mode") == "exhaustive"
    )
    queries.append(silent_sync(seed, 0, 4, 4))
    queries.append(silent_sync(seed, 1, 3, 6))
    # A block of sixteen equal-cost universe-12 instances just below the
    # three largest queries, so that the p90 falls in the middle of one
    # shape: at its edge, it would read the block's cheapest instance.
    for i in range(2, 18):
        queries.append(silent_sync(seed, i, 3, 4))
    queries += copy_decides(seed, 14, 4)
    return queries


def oracle(seed: int) -> list:
    queries = corpus_queries(lambda c: c["query"]["eq"] in ("int", "bint"))
    for broken in (False, True):
        queries.append(ring(seed, 0, 9, 3, "bint", broken))
        queries.append(ring(seed, 1, 10, 5, "int", broken))
        for i in range(24):
            for kind in ("int", "bint"):
                queries.append(conservative_graph(seed, i, kind, broken))
    queries.append(ring(seed, 2, 13, 4, "int", False))
    # A block of ten (8, 4) int rings (660 joint states each) just below
    # the five large rings, so that the p90 falls inside one shape and not
    # among the conservative bint nets, whose cost moves with the names.
    for i in range(10):
        queries.append(ring(seed, 3 + i, 8, 4, "int", broken=i % 2 == 1))
    return queries


def oneshot(seed: int) -> list:
    queries = corpus_queries(
        lambda c: c["query"]["op"] == "verify"
        or c["query"].get("mode") == "guided"
    )
    queries += copy_oneshot(seed, 8)
    for i, length in enumerate((3, 4, 5, 4)):
        queries.append(ladder(seed, i, 2, length, broken=False))
    for i in range(4, 6):
        queries.append(ladder(seed, i, 2, 4, broken=True))
    index = 0
    for n in MEMBER_SIZES:
        for d in (False, True):
            for member in (True, False):
                for _ in range(3):
                    queries.append(membership(seed, index, n, d, member))
                    index += 1
    return queries


def _shuffled(build):
    """The workload's queries in a seeded order. Cheap queries then sit
    between the long ones, so their samples spread over the whole pass
    instead of one short stretch of it, and a slow moment of the machine
    touches few of them."""

    def queries(seed: int) -> list:
        out = build(seed)
        _rng(seed, _ORDER).shuffle(out)
        return out

    return queries


WORKLOADS = {name: _shuffled(build) for name, build in
             (("search", search), ("oracle", oracle), ("oneshot", oneshot))}


def digest(queries) -> str:
    """sha256 over the canonical JSON of a query list."""
    blob = json.dumps(queries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
