"""The pneq benchmark: one seeded workload per process, single-threaded.

    python3 perfbench/run.py --workload search --seed 1 --seconds 40 --trace 0

Workloads (see README.md for why each exists and what it bypasses):

    search   exhaustive decide; relation enumeration in checkers
    oracle   decide_interleaving only (int, bint); checkers bypassed
    oneshot  many small verify/guided/check/member queries, cold engines

A run generates the workload's inputs from the seed (text only), then
repeats passes over the fixed query list until the time is spent, timing
set-up in fresh processes spread over the run. Full passes run every
query (at least three of them); light passes, which take a fifth of the
untraced time, skip the few heavy queries, so the cheap ones get many
more samples. Each query's latency is its median run. The end-to-end
timings are scaled to a reference speed, measured by a fixed loop run
between queries (see Reference). Verdicts are checked against the known
answers outside the timed region. The last stdout line is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace 0, and the per-layer metrics when
--trace 1. A traced run alternates untraced and traced full passes, so it
also measures the tracing overhead. The exit code is 1 when any query fails
and 2 when the pneq sources are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import probe  # noqa: E402
from spans import Tracer, durations  # noqa: E402

SETUP_PROBES = 10  # spread evenly over the run
MIN_PASSES = 3  # full passes: every query runs at least this often
LIGHT_SHARE = 0.02  # a query costing more of a full pass is heavy
FULL_SHARE = 0.8  # of the untraced time, the rest goes to light passes
REFERENCE_S = 0.002  # timings are reported at the speed where reference_loop takes this
REFERENCE_EVERY_S = 0.1  # between queries, time reference_loop at most this often
MIN_QUERIES = 100  # a p90 over the queries needs ten beyond it

# Benchmark entry points into pneq and the span each gets when traced.
ENTRY_POINTS = {
    "decide": "checkers.decide",
    "verify": "checkers.verify",
    "check_relation": "checkers.check_relation",
    "additive_member": "relations.additive_member",
    "d_additive_member": "relations.d_additive_member",
    "decide_interleaving": "ltsbisim.decide_interleaving",
    "parse_net": "formats.parse_net",
    "parse_marking": "formats.parse_marking",
    "parse_relation": "formats.parse_relation",
}


def entry_points(pneq, tracer=None):
    api = SimpleNamespace()
    for attr, span in ENTRY_POINTS.items():
        fn = getattr(pneq, attr)
        setattr(api, attr, tracer.wrap(span, fn) if tracer else fn)
    return api


# ---------------------------------------------------------------------------
# one query
# ---------------------------------------------------------------------------


class Row:
    """One execution of one query. `detail` holds small results (stats and
    witness, or graph size), kept only where they are read: the first pass
    and the traced ones, so that memory does not grow with the passes."""

    __slots__ = ("seconds", "outcome", "detail", "error")

    def __init__(self, seconds, outcome, detail, error):
        self.seconds, self.outcome, self.detail, self.error = (
            seconds, outcome, detail, error)


def execute(api, pneq, caps, q, p):
    op = q["op"]
    if op == "decide":
        v = api.decide(p.net, p.m1, p.m2, q["kind"], q["mode"], caps)
        return v.status, (v.stats, v.witness)
    if op == "verify":
        v = api.verify(p.net, p.rel, q["kind"], p.m1, p.m2)
        return v.status, None
    if op == "check":
        return api.check_relation(p.net, p.rel, q["kind"]).ok, None
    if op == "member":
        return api.additive_member(p.rel, p.m1, p.m2) is not None, None
    if op == "dmember":
        return api.d_additive_member(p.rel, p.m1, p.m2) is not None, None
    if op == "graph":
        equivalent, lts = api.decide_interleaving(
            p.net, p.m1, p.m2, q["kind"] == "bint",
            pneq.corpus.ORACLE_STATE_CAP, pneq.corpus.ORACLE_EDGE_CAP,
        )
        return ("related" if equivalent else "not-related"), (
            len(lts.states), len(lts.edges))
    raise ValueError(f"unknown op {op!r}")


def reference_loop() -> int:
    """Fixed pure-Python work that never touches pneq."""
    total = 0
    for i in range(30_000):
        total += i * i
    return total


class Reference:
    """The machine's speed over a run: reference_loop timed between queries.

    A shared machine's speed drifts by a fifth or more over minutes, which
    no estimator inside a 40-second run removes, and reference_loop slows
    with it. Each end-to-end timing is scaled by REFERENCE_S over the run's
    median reference time, so a drift cancels and a change to pneq does
    not, since the loop runs no pneq code."""

    def __init__(self):
        self.seconds = array("d")
        self._last = 0.0

    def sample(self) -> None:
        clock = time.perf_counter
        if clock() - self._last >= REFERENCE_EVERY_S:
            t0 = clock()
            reference_loop()
            self._last = clock()
            self.seconds.append(self._last - t0)

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.seconds)


def run_pass(api, pneq, caps, queries, parsed, indices, tracer=None,
             keep_detail=True, reference=None) -> list:
    """Run queries[i] for each i in `indices`, in that order; one Row each.
    With `reference`, sample it between queries."""
    rows = []
    clock = time.perf_counter
    for i in indices:
        if reference:
            reference.sample()
        q, p = queries[i], parsed[i]
        if tracer:
            tracer.qid = q["qid"]
        t0 = clock()
        try:
            outcome, detail = execute(api, pneq, caps, q, p)
            error = None
        except Exception as exc:  # every raised error is a failed query
            outcome, detail, error = None, None, f"{type(exc).__name__}: {exc}"
        rows.append(Row(clock() - t0, outcome, detail if keep_detail else None, error))
    return rows


class Tally:
    """Every execution of one query: the first row in full, the later ones
    folded into their times, the decided count and the consistency
    checks. The times sit in a flat array, which the garbage collector
    does not scan, so the samples do not slow the collections."""

    __slots__ = ("first", "seconds", "decided", "error", "differs")

    def __init__(self):
        self.first, self.seconds, self.decided = None, array("d"), 0
        self.error, self.differs = None, False

    @property
    def runs(self) -> int:
        return len(self.seconds)

    def add(self, q, row) -> None:
        if self.first is None:
            self.first = row
        elif row.outcome != self.first.outcome:
            self.differs = True
        self.error = self.error or row.error
        self.seconds.append(row.seconds)
        self.decided += decided(q, row)


def light_turn(remaining, full_passes, spent, longest) -> bool:
    """Whether the next untraced pass is a light one. It is while the full
    passes are ahead of their FULL_SHARE of the time spent, as long as the
    MIN_PASSES full passes still fit after it; once they are done and a
    full pass no longer fits, light passes use the rest of the run."""
    if full_passes < MIN_PASSES:
        owed = (MIN_PASSES - full_passes) * longest["full"]
        if remaining - owed < longest["light"]:
            return False
    elif remaining < longest["full"]:
        return True
    return spent["full"] > FULL_SHARE * (spent["full"] + spent["light"])


def light_queries(first_pass) -> list:
    """Indices of the queries that each cost at most LIGHT_SHARE of a full
    pass, or None when no query is heavy. They also run in light passes,
    which skip the few heavy queries, so every query near the percentiles
    gets many samples."""
    limit = LIGHT_SHARE * sum(r.seconds for r in first_pass)
    light = [i for i, r in enumerate(first_pass) if r.seconds <= limit]
    return light if len(light) < len(first_pass) else None


# ---------------------------------------------------------------------------
# correctness, outside the timed region
# ---------------------------------------------------------------------------


def _graph_confirms(pneq, q, p, cache) -> str | None:
    key = (q["net"], q["m1"], q["m2"], q["kind"] in ("bplace", "bdplace"))
    if key not in cache:
        try:
            equivalent, _ = pneq.decide_interleaving(
                p.net, p.m1, p.m2, key[3],
                pneq.corpus.ORACLE_STATE_CAP, pneq.corpus.ORACLE_EDGE_CAP,
            )
            cache[key] = None if equivalent else "graph oracle refutes the related verdict"
        except pneq.PneqError as exc:
            cache[key] = f"graph oracle failed on a bounded net: {exc}"
    return cache[key]


def _reverify(pneq, q, p, witness) -> str | None:
    if not pneq.check_relation(p.net, witness, q["kind"]).ok:
        return "witness fails re-verification"
    member = pneq.d_additive_member if q["kind"] in ("dplace", "bdplace") else pneq.additive_member
    if member(witness, p.m1, p.m2) is None:
        return "witness does not relate the query markings"
    return None


def failure_reason(pneq, q, p, tally, cache) -> str | None:
    if tally.error:
        return tally.error
    first = tally.first.outcome
    if tally.differs:
        return "verdict differs between passes"
    if q.get("mode") == "guided" and first == "not-related":
        return "guided mode answered not-related"
    if first != q["expected"]:
        return f"got {first!r}, expected {q['expected']!r}"
    if q["op"] == "decide" and first == "related":
        reason = _reverify(pneq, q, p, tally.first.detail[1])
        if reason:
            return reason
    if q["op"] in ("decide", "verify") and first == "related" and q["bounded"]:
        return _graph_confirms(pneq, q, p, cache)
    return None


def decided(q, row) -> bool:
    if row.error:
        return False
    if q["op"] in ("decide", "graph"):
        return row.outcome in ("related", "not-related")
    if q["op"] == "verify":
        return row.outcome == "related"
    return True  # check/member answers are always definite


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def median_times(passes) -> list:
    """Each query's median time across the given full passes."""
    return [statistics.median(col)
            for col in zip(*([r.seconds for r in rows] for rows in passes))]


TIMINGS = ("setup_s", "wall_s", "query_p50_ms", "query_p90_ms")


def end_to_end(tallies, setup_times) -> dict:
    """Unscaled. A shared machine's speed also moves between fast and slow
    moments lasting seconds. Each query's median over many samples spread
    across the run averages them out, where its fastest sample depends on
    the one best moment the run happened to have."""
    typical = [statistics.median(t.seconds) for t in tallies]
    latency_ms = [t * 1000.0 for t in typical]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(typical), "s"),
        "query_p50_ms": (statistics.median(latency_ms), "ms"),
        "query_p90_ms": (statistics.quantiles(latency_ms, n=10)[8], "ms"),
        "decided_frac": (statistics.fmean(t.decided / t.runs for t in tallies), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


PER_LAYER_UNITS = {
    "formats.parse_s": "s",
    "checkers.decide_s": "s",
    "checkers.search_self_s": "s",
    "checkers.relations_examined": "count",
    "checkers.relations_checked": "count",
    "checkers.checked_per_examined": "frac",
    "checkers.pruned_pairs": "count",
    "checkers.matchings_solved": "count",
    "relations.match_calls": "count",
    "relations.match_s": "s",
    "checkers.reverify_s": "s",
    "checkers.reverify_calls": "count",
    "checkers.verify_s": "s",
    "checkers.guided_s": "s",
    "checkers.guided_examined": "count",
    "relations.member_s": "s",
    **{f"relations.member_us.k{k}": "us" for k in gen.MEMBER_SIZES},
    "silent.run_search_s": "s",
    "silent.run_search_calls": "count",
    "net.reach_lts_s": "s",
    "net.states": "count",
    "net.edges": "count",
    "ltsbisim.branching_relation_s": "s",
    "ltsbisim.strong_partition_s": "s",
    "trace.overhead_frac": "frac",
}

# span name -> (time metric, call-count metric)
_SPAN_METRICS = {
    "checkers.verify": ("checkers.verify_s", None),
    "relations.match": ("relations.match_s", "relations.match_calls"),
    "relations.additive_member": ("relations.member_s", None),
    "relations.d_additive_member": ("relations.member_s", None),
    "silent.run_search": ("silent.run_search_s", "silent.run_search_calls"),
    "net.reach_lts": ("net.reach_lts_s", None),
    "ltsbisim.branching_relation": ("ltsbisim.branching_relation_s", None),
    "ltsbisim.strong_partition": ("ltsbisim.strong_partition_s", None),
}


def per_layer(queries, passes, tracer, parse_s) -> dict:
    """Each per-layer metric's median over the traced passes, the same
    estimate as the end-to-end timings (counters repeat exactly)."""
    traced = [(rows, mark) for rows, is_traced, mark in passes if is_traced]
    ends = [mark for _, mark in traced[1:]] + [len(tracer.spans)]
    layers = [
        layer_metrics(queries, rows, durations(tracer.spans[:end], mark))
        for (rows, mark), end in zip(traced, ends)
    ]
    metrics = {
        key: (statistics.median(layer[key] for layer in layers), unit)
        for key, unit in PER_LAYER_UNITS.items()
    }
    metrics["formats.parse_s"] = (parse_s, "s")
    untraced = [rows for rows, is_traced, _ in passes if not is_traced]
    overhead = (sum(median_times([rows for rows, _ in traced]))
                / sum(median_times(untraced)) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def layer_metrics(queries, rows, span_rows) -> dict:
    """Per-layer metrics of one traced pass."""
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    by_qid = {q["qid"]: q for q in queries}
    member_us = {k: [] for k in gen.MEMBER_SIZES}
    for name, parent, qid, seconds, self_s in span_rows:
        if name == "checkers.decide":
            m["checkers.decide_s"] += seconds
            m["checkers.search_self_s"] += self_s
            if by_qid[qid]["mode"] == "guided":
                m["checkers.guided_s"] += seconds
        elif name == "checkers.check_relation" and parent == "checkers.decide":
            m["checkers.reverify_s"] += seconds
            m["checkers.reverify_calls"] += 1
        elif name in _SPAN_METRICS:
            time_key, count_key = _SPAN_METRICS[name]
            m[time_key] += seconds
            if count_key:
                m[count_key] += 1
            if time_key == "relations.member_s":
                member_us[by_qid[qid]["tokens"]].append(seconds * 1e6)
    for k, values in member_us.items():
        m[f"relations.member_us.k{k}"] = statistics.median(values) if values else 0.0
    for q, row in zip(queries, rows):
        if q["op"] == "decide" and row.detail:
            stats = row.detail[0]
            for key in ("relations_examined", "relations_checked", "pruned_pairs",
                        "matchings_solved"):
                m["checkers." + key] += stats.get(key, 0)
            if q["mode"] == "guided":
                m["checkers.guided_examined"] += stats.get("relations_examined", 0)
        elif q["op"] == "graph" and row.detail:
            m["net.states"] += row.detail[0]
            m["net.edges"] += row.detail[1]
    examined = m["checkers.relations_examined"]
    m["checkers.checked_per_examined"] = (
        m["checkers.relations_checked"] / examined if examined else 0.0)
    return m


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = gen.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_probe(workload: str, seed: int, index: int) -> dict:
    """One fresh process that times set-up. Each probe runs under another
    string-hash salt, so equal digests show the inputs do not depend on
    hash()."""
    env = dict(os.environ, PYTHONHASHSEED=str(index + 1))
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pin_hash_seed(seed: int) -> None:
    """Re-execute this process under a string-hash salt made from the seed.
    pneq iterates over sets of names, so the salt moves its work by up to
    a fifth on some queries; with it pinned, one seed replays the same
    work in every run."""
    salt = str(seed % 4294967295 + 1)
    if os.environ.get("PYTHONHASHSEED") != salt:
        env = dict(os.environ, PYTHONHASHSEED=salt)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced run's spans to this JSON-lines file")
    args = ap.parse_args(argv)
    if argv is None:
        pin_hash_seed(args.seed)

    if not (probe.SRC / "pneq" / "__init__.py").is_file():
        print(f"pneq sources not found under {probe.SRC}", file=sys.stderr)
        return 2
    queries = gen.WORKLOADS[args.workload](args.seed)
    n = len(queries)
    if n < MIN_QUERIES:
        raise SystemExit(f"{args.workload} has {n} queries, fewer than {MIN_QUERIES}")
    digest = gen.digest(queries)
    pneq = probe.import_pneq()  # also warms the bytecode cache for the probes
    probes = [setup_probe(args.workload, args.seed, 0)]

    tracer = Tracer() if args.trace else None
    plain = entry_points(pneq)
    traced = entry_points(pneq, tracer) if tracer else None
    parsed = probe.parse_queries(traced or plain, queries)
    parse_s = sum(d[3] for d in durations(tracer.spans)) if tracer else 0.0
    caps = pneq.DecideCaps()

    everything = list(range(n))
    tallies = [Tally() for _ in queries]
    passes = []  # traced runs: (rows, traced, index of the pass's first span)
    light = None  # untraced runs: the queries of a light pass
    spent = {"full": 0.0, "light": 0.0}
    longest = {"full": 0.0, "light": 0.0}
    full_passes = light_passes = 0
    reference = None if tracer else Reference()
    t_start = time.perf_counter()
    while True:
        while time.perf_counter() - t_start >= len(probes) * args.seconds / SETUP_PROBES:
            probes.append(setup_probe(args.workload, args.seed, len(probes)))
        kind = "light" if light and light_turn(
            args.seconds - (time.perf_counter() - t_start), full_passes, spent,
            longest) else "full"
        indices = light if kind == "light" else everything
        is_traced = bool(tracer) and len(passes) % 2 == 1
        if is_traced:
            mark = len(tracer.spans)
            with tracer.installed():
                rows = run_pass(traced, pneq, caps, queries, parsed, indices, tracer)
        else:
            mark = None
            rows = run_pass(plain, pneq, caps, queries, parsed, indices,
                            keep_detail=not full_passes, reference=reference)
        if tracer:
            passes.append((rows, is_traced, mark))
        elif not full_passes:
            light = light_queries(rows)
            longest["light"] = sum(rows[i].seconds for i in light or ())
        for i, row in zip(indices, rows):
            tallies[i].add(queries[i], row)
        took = sum(r.seconds for r in rows)
        spent[kind] += took
        longest[kind] = max(longest[kind], took)
        full_passes += kind == "full"
        light_passes += kind == "light"
        shortest = longest["light"] if light else longest["full"]
        elapsed = time.perf_counter() - t_start
        if full_passes >= MIN_PASSES and elapsed + shortest > args.seconds:
            break
    measured_s = time.perf_counter() - t_start
    deterministic = all(p["digest"] == digest for p in probes)
    # Before the checks, which would raise the peak RSS.
    if tracer:
        metrics = per_layer(queries, passes, tracer, parse_s)
        if args.spans:
            tracer.write(args.spans)
    else:
        raw = end_to_end(tallies, [p["setup_s"] for p in probes])
        scale = reference.scale()
        metrics = {key: (value * scale if key in TIMINGS else value, unit)
                   for key, (value, unit) in raw.items()}

    cache: dict = {}
    failures = {}
    for q, p, tally in zip(queries, parsed, tallies):
        reason = failure_reason(pneq, q, p, tally, cache)
        if reason:
            failures[q["qid"]] = reason
    if not deterministic:
        failures["inputs"] = "the seed gave different inputs in another process"
    attempted = sum(t.runs for t in tallies)
    failed = attempted if not deterministic else sum(
        t.runs for q, t in zip(queries, tallies) if q["qid"] in failures)
    correct = not failures

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "queries_per_pass": n,
        "full_passes": full_passes,
        "light_passes": light_passes,
        "measured_s": round(measured_s, 3),
        "input_digest": digest,
    }
    if reference:
        provenance["reference_ms"] = round(1000 * REFERENCE_S / scale, 4)
        provenance["reference_samples"] = len(reference.seconds)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for key, (value, unit) in metrics.items():
        runs = sorted(t.runs for t in tallies)
        note = (f"  (over {n} queries, each the median of {runs[0]} to {runs[-1]} runs)"
                if key.startswith("query_") else "")
        if reference and key in TIMINGS:
            note = f"  (unscaled {raw[key][0]:.6f}){note}"
        print(f"{key:34s} {value:14.6f} {unit}{note}")
    print(f"{'fail_frac':34s} {failed / attempted:14.6f} frac  ({failed}/{attempted})")
    for qid, reason in failures.items():
        print(f"FAILED {qid}: {reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
