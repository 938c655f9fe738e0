"""The built-in regression corpus: nets, relations and expected verdicts.

Every case records a query and its expected status. Cases tagged "slow"
are excluded from the default profile; cases tagged "oracle-skip" have an
unbounded state space, so the graph-level cross-check is skipped by
design rather than silently passed.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from importlib import resources

from .checkers import KINDS, _is_branching, decide, verify
from .errors import PneqError
from .formats import parse_marking, parse_net, parse_relation
from .ltsbisim import GRAPH_KINDS, decide_interleaving
from .multiset import Marking
from .net import Net
from .relations import PlaceRelation

ORACLE_STATE_CAP = 5_000
ORACLE_EDGE_CAP = 50_000


@dataclass(frozen=True)
class CorpusCase:
    name: str
    net: str
    query: dict
    expected: str  # related | not-related
    tags: tuple = ()

    @property
    def slow(self) -> bool:
        return "slow" in self.tags

    @property
    def oracle_skip(self) -> bool:
        return "oracle-skip" in self.tags


@dataclass
class CaseResult:
    name: str
    expected: str
    verdict: str
    passed: bool
    oracle: str  # "ok" | "failed" | "skipped" | "" (not applicable)
    seconds: float
    stats: dict = field(default_factory=dict)


def _data(name: str) -> str:
    return resources.files("pneq").joinpath("corpus", name).read_text()


def load_cases() -> list:
    raw = json.loads(_data("manifest.json"))
    return [
        CorpusCase(
            c["name"], c["net"], c["query"], c["expected"], tuple(c.get("tags", ()))
        )
        for c in raw["cases"]
    ]


def load_net(name: str) -> Net:
    return parse_net(_data(name))


def load_relation(name: str, net: Net) -> PlaceRelation:
    return parse_relation(_data(name), net)


def _oracle_check(case: CorpusCase, net: Net, m1: Marking, m2: Marking) -> str:
    """Graph-level inclusion check for a related place-based verdict."""
    try:
        equivalent, _ = decide_interleaving(
            net, m1, m2, _is_branching(case.query["eq"]), ORACLE_STATE_CAP, ORACLE_EDGE_CAP
        )
    except PneqError:
        return "failed"  # a bounded case must stay bounded
    return "ok" if equivalent else "failed"


def run_case(case: CorpusCase, net: Net) -> CaseResult:
    """Run one case on its net, `load_net(case.net)`."""
    q = case.query
    m1 = parse_marking(q["m1"], net)
    m2 = parse_marking(q["m2"], net)
    t0 = time.perf_counter()
    stats: dict = {}
    if q["eq"] in GRAPH_KINDS:
        equivalent, _ = decide_interleaving(
            net, m1, m2, GRAPH_KINDS[q["eq"]], ORACLE_STATE_CAP, ORACLE_EDGE_CAP,
            stats=stats,
        )
        verdict = "related" if equivalent else "not-related"
    elif q["op"] == "verify":
        rel = load_relation(q["relation"], net)
        result = verify(net, rel, q["eq"], m1, m2)
        verdict = result.status
        stats = result.stats
    else:
        result = decide(net, m1, m2, q["eq"], q.get("mode", "auto"))
        verdict = result.status
        stats = result.stats
    seconds = time.perf_counter() - t0
    oracle = ""
    if q["eq"] in KINDS and verdict == "related":
        oracle = "skipped" if case.oracle_skip else _oracle_check(case, net, m1, m2)
    passed = verdict == case.expected and oracle != "failed"
    return CaseResult(case.name, case.expected, verdict, passed, oracle, seconds, stats)


def run_corpus(include_slow: bool = False) -> list:
    """Run the cases, parsing each net file once: the cases of a net share
    its compiled tables (`Net.compiled`)."""
    results = []
    nets: dict = {}
    for case in load_cases():
        if case.slow and not include_slow:
            continue
        if case.net not in nets:
            nets[case.net] = load_net(case.net)
        results.append(run_case(case, nets[case.net]))
    return results
