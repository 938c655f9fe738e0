"""Command line interface.

Exit codes: 0 related/member/ok, 1 not-related/not-member, 2 usage or
model errors, 3 unknown verdicts and exceeded caps or budgets.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import corpus as corpus_mod
from .checkers import KINDS, DecideCaps, decide, verify
from .errors import ParseError, PneqError, SearchBudgetError, StateSpaceLimitError
from .formats import lts_to_dot, parse_marking, parse_net, parse_relation
from .ltsbisim import GRAPH_KINDS, decide_interleaving
from .net import reach_lts
from .relations import additive_member, d_additive_member, format_side
from .silent import DEFAULT_NODE_BUDGET

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
# every other verdict ("unknown") exits with EXIT_UNKNOWN
_EXIT_CODES = {
    "related": EXIT_OK, "member": EXIT_OK, "ok": EXIT_OK,
    "not-related": EXIT_NEGATIVE, "not-member": EXIT_NEGATIVE,
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"{path} is not UTF-8 text") from None


def _load_net(path: str):
    return parse_net(_read(path))


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    mode = f" ({report['mode_used']})" if "mode_used" in report else ""
    print(f"verdict: {report['verdict']}{mode}")
    if report["witness"]:
        pairs = " ".join(f"({a},{b})" for a, b in report["witness"])
        print(f"witness: {pairs}")
    for v in report["violations"]:
        print(
            f"violation: transition {v['transition']} side {v['side']} "
            f"against {v['marking']}: {v['reason']}"
        )
    stats = report["stats"]
    if stats:
        short = ", ".join(f"{k}={stats[k]}" for k in sorted(stats))
        print(f"stats: {short}")


def _report(
    args, net, fields, verdict, witness=None, violations=(), stats=None, **extra
) -> int:
    """Print the report of a query command and return its exit code.

    `fields` name the arguments echoed under "query"; `witness` is None or
    a sequence of place pairs; `violations` are `checkers.Violation`s.
    `extra` adds top-level keys, such as "mode_used".
    """
    report = {
        "query": {"command": args.command, **{f: getattr(args, f) for f in fields}},
        "verdict": verdict,
        "witness": (
            None if witness is None
            else [[format_side(a), format_side(b)] for a, b in witness]
        ),
        "violations": [
            {**vars(v), "marking": net.format_marking(v.marking)} for v in violations
        ],
        "stats": stats or {},
        **extra,
    }
    _emit(report, args.json)
    return _EXIT_CODES.get(verdict, EXIT_UNKNOWN)


def cmd_check(args) -> int:
    net = _load_net(args.net)
    m1 = parse_marking(args.m1, net)
    m2 = parse_marking(args.m2, net)
    fields = ("net", "eq", "m1", "m2")
    if args.eq in GRAPH_KINDS:
        stats: dict = {}
        equivalent, _ = decide_interleaving(
            net, m1, m2, GRAPH_KINDS[args.eq], args.state_cap, 10 * args.state_cap,
            stats=stats,
        )
        return _report(
            args, net, fields, "related" if equivalent else "not-related", stats=stats
        )
    caps = DecideCaps(node_budget=args.node_budget)
    verdict = decide(net, m1, m2, args.eq, args.mode, caps)
    return _report(
        args, net, fields + ("mode",), verdict.status,
        verdict.witness.sorted_pairs() if verdict.witness is not None else None,
        stats=verdict.stats, mode_used=verdict.mode_used,
    )


def cmd_verify(args) -> int:
    net = _load_net(args.net)
    rel = parse_relation(_read(args.relation), net)
    m1 = parse_marking(args.m1, net)
    m2 = parse_marking(args.m2, net)
    verdict = verify(net, rel, args.eq, m1, m2)
    return _report(
        args, net, ("net", "eq", "relation", "m1", "m2"), verdict.status,
        verdict.witness.sorted_pairs() if verdict.witness is not None else None,
        verdict.violations, verdict.stats,
    )


def cmd_closure(args) -> int:
    net = _load_net(args.net)
    rel = parse_relation(_read(args.relation), net)
    m1 = parse_marking(args.m1, net)
    m2 = parse_marking(args.m2, net)
    witness = d_additive_member(rel, m1, m2) if args.d else additive_member(rel, m1, m2)
    return _report(
        args, net, ("net", "relation", "d", "m1", "m2"),
        "not-member" if witness is None else "member",
        None if witness is None else witness.pairs,
    )


def cmd_lts(args) -> int:
    net = _load_net(args.net)
    m0 = parse_marking(args.m0, net)
    lts = reach_lts(net, [m0], state_cap=args.cap, edge_cap=10 * args.cap)
    if args.dot:
        Path(args.dot).write_text(lts_to_dot(lts, net))
    if args.json:
        stats = {"states": len(lts.states), "edges": len(lts.edges)}
        return _report(args, net, ("net", "m0", "cap"), "ok", stats=stats)
    print(f"states: {len(lts.states)}")
    print(f"edges: {len(lts.edges)}")
    for i, m in enumerate(lts.states):
        mark = "*" if i in lts.initials else " "
        print(f"{mark} {i}: {net.format_marking(m)}")
    return EXIT_OK


def cmd_corpus(args) -> int:
    results = corpus_mod.run_corpus(include_slow=args.include_slow)
    failures = [r for r in results if not r.passed]
    if args.json:
        cases = [asdict(r) | {"seconds": round(r.seconds, 3)} for r in results]
        report = {"cases": cases, "failures": len(failures)}
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            oracle = f" oracle={r.oracle}" if r.oracle else ""
            print(
                f"{status} {r.name}: {r.verdict} "
                f"(expected {r.expected}){oracle} [{r.seconds:.2f}s]"
            )
        print(f"{len(results) - len(failures)}/{len(results)} cases passed")
    return EXIT_OK if not failures else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pneq",
        description="Decide and verify place-based behavioral equivalences "
        "on P/T nets with silent moves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide an equivalence for two markings")
    p_check.add_argument("--eq", required=True, choices=(*KINDS, *GRAPH_KINDS))
    p_check.add_argument(
        "--mode", default="auto", choices=("exhaustive", "guided", "auto")
    )
    p_check.add_argument("--state-cap", type=int, default=10_000)
    p_check.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("net")
    p_check.add_argument("m1")
    p_check.add_argument("m2")
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser("verify", help="verify a candidate relation")
    p_verify.add_argument("--eq", required=True, choices=KINDS)
    p_verify.add_argument("--relation", required=True)
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("net")
    p_verify.add_argument("m1")
    p_verify.add_argument("m2")
    p_verify.set_defaults(func=cmd_verify)

    p_closure = sub.add_parser("closure", help="closure membership of two markings")
    p_closure.add_argument("--d", action="store_true", help="theta-extended closure")
    p_closure.add_argument("--relation", required=True)
    p_closure.add_argument("--json", action="store_true")
    p_closure.add_argument("net")
    p_closure.add_argument("m1")
    p_closure.add_argument("m2")
    p_closure.set_defaults(func=cmd_closure)

    p_lts = sub.add_parser("lts", help="bounded reachability graph")
    p_lts.add_argument("--cap", type=int, default=10_000)
    p_lts.add_argument("--dot", help="write the graph in DOT format")
    p_lts.add_argument("--json", action="store_true")
    p_lts.add_argument("net")
    p_lts.add_argument("m0")
    p_lts.set_defaults(func=cmd_lts)

    p_corpus = sub.add_parser("corpus", help="built-in regression corpus")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    p_run = corpus_sub.add_parser("run", help="run the corpus")
    p_run.add_argument("--include-slow", action="store_true")
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StateSpaceLimitError, SearchBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (PneqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
