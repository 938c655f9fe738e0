"""pneq's records are named tuples and slotted classes. They compare and
hash by field, refuse assignment and keep every constructor check, and the
command line's JSON made from them stays byte for byte what it was: the
files under `golden/` hold the reports, with every timing masked, and the
reachability graphs `pneq lts` prints and draws."""
import copy
import io
import os
import pickle
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pneq import (
    KINDS,
    CheckReport,
    DecideCaps,
    Marking,
    MatchWitness,
    ModelError,
    PlaceRelation,
    THETA,
    Transition,
    Verdict,
    Violation,
)
from pneq.cli import main
from pneq.corpus import CaseResult, CorpusCase, load_cases
from pneq.silent import DEFAULT_NODE_BUDGET

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
CORPUS = HERE.parent / "src" / "pneq" / "corpus"
_TIMING = re.compile(r'("(?:[a-z_]+_s|seconds)"): [^,\n]+')


def _violation(**fields):
    return Violation(**{"transition": "t1", "marking": Marking(["a"]), "side": 1,
                        "reason": "no-response", **fields})


# Each record built twice from equal fields, and once with one field changed.
EQUAL_AND_OTHER = {
    "Transition": lambda tid: Transition(tid, Marking(["a"]), "x", Marking(["b"])),
    "PlaceRelation": lambda name: PlaceRelation.of({("a", "b"), (THETA, "c")}, name),
    "MatchWitness": lambda b: MatchWitness((("a", b), (THETA, "c"))),
    "Violation": lambda side: _violation(side=side),
    "CheckReport": lambda side: CheckReport(False, (_violation(side=side),)),
    "DecideCaps": lambda budget: DecideCaps(budget),
    "CorpusCase": lambda name: CorpusCase(name, "n.pn", {"op": "decide"}, "related"),
    "Verdict": lambda status: Verdict(status, None, "exhaustive", {"universe": 1}),
    "CaseResult": lambda name: CaseResult(name, "related", "related", True, "", 0.5, {}),
}
FIELD_VALUES = {
    "Transition": ("t1", "t2"), "PlaceRelation": ("r", "s"), "MatchWitness": ("b", "c"),
    "Violation": (1, 2), "CheckReport": (1, 2), "DecideCaps": (7, 8),
    "CorpusCase": ("c1", "c2"), "Verdict": ("related", "unknown"),
    "CaseResult": ("c1", "c2"),
}
# Records whose fields are all hashable hash; a dict field makes the
# others unhashable, as it made the dataclasses they replace.
HASHABLE = ("Transition", "PlaceRelation", "MatchWitness", "Violation", "CheckReport",
            "DecideCaps")


@pytest.mark.parametrize("name", sorted(EQUAL_AND_OTHER))
def test_records_compare_by_field(name):
    make = EQUAL_AND_OTHER[name]
    value, other = FIELD_VALUES[name]
    a, b, c = make(value), make(value), make(other)
    assert a is not b and a == b and not a != b
    assert a != c and not a == c
    if name in HASHABLE:
        assert hash(a) == hash(b) and len({a, b, c}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_a_relations_name_counts():
    pairs = {("a", "b")}
    assert PlaceRelation.of(pairs, "r") != PlaceRelation.of(pairs)
    assert PlaceRelation.of(pairs, "r") == PlaceRelation(frozenset(pairs), "r")
    assert PlaceRelation.of(pairs) != frozenset(pairs)


def test_a_relation_is_d_extended_when_a_pair_holds_theta():
    # set in the pair loop that refuses (0, 0); a copy or a pickle rebuilds
    # it through the constructor, and it takes no part in equality
    for pairs, want in (((), False), ({("a", "b")}, False),
                        ({("a", "b"), ("c", THETA)}, True), ({(THETA, "c")}, True)):
        rel = PlaceRelation.of(pairs, "r")
        for r in (rel, copy.copy(rel), copy.deepcopy(rel), pickle.loads(pickle.dumps(rel))):
            assert r.is_d_extended is want and r == rel and hash(r) == hash(rel)
        with pytest.raises(AttributeError):
            rel.is_d_extended = not want


@pytest.mark.parametrize("name, field", [
    ("Transition", "label"), ("PlaceRelation", "pairs"), ("PlaceRelation", "name"),
    ("PlaceRelation", "other"), ("MatchWitness", "pairs"), ("Violation", "reason"),
    ("CheckReport", "ok"), ("DecideCaps", "node_budget"), ("CorpusCase", "tags"),
    ("Verdict", "status"), ("CaseResult", "passed"),
])
def test_records_refuse_assignment(name, field):
    record = EQUAL_AND_OTHER[name](FIELD_VALUES[name][0])
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def _assert_copies(record):
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert copied == record and type(copied) is type(record)


@pytest.mark.parametrize("name", sorted(EQUAL_AND_OTHER))
def test_records_copy_and_pickle(name):
    _assert_copies(EQUAL_AND_OTHER[name](FIELD_VALUES[name][0]))


def test_markings_and_the_records_holding_them_copy_and_pickle():
    for m in (Marking(), Marking({"a": 2, "b": 1})):
        _assert_copies(m)
        copied = pickle.loads(pickle.dumps(m))
        assert hash(copied) == hash(m) and copied.size == m.size
        assert copied.sorted_items() == m.sorted_items()
        with pytest.raises(AttributeError):
            copied.x = 1
    _assert_copies(Verdict("unknown", None, "verify", {"relation_ok": False},
                           (_violation(), _violation(side=2))))


def test_constructors_check_their_fields():
    with pytest.raises(ModelError, match="transition 't' has an empty pre-set"):
        Transition("t", Marking(), "x", Marking(["a"]))
    with pytest.raises(ModelError, match=r"the pair \(0, 0\) is not allowed"):
        PlaceRelation.of({("a", "b"), (THETA, THETA)})
    for budget in (0, -1):
        with pytest.raises(ModelError, match="caps must be positive"):
            DecideCaps(budget)
        with pytest.raises(ModelError, match="caps must be positive"):
            DecideCaps(node_budget=budget)
    with pytest.raises(AssertionError):
        CheckReport(True, (_violation(),))
    with pytest.raises(AssertionError):
        CheckReport(False, ())
    assert DecideCaps().node_budget == DEFAULT_NODE_BUDGET
    assert _violation().details == "" and Verdict("unknown", None, "guided", {}).violations == ()
    assert CorpusCase("c", "n.pn", {}, "related").tags == ()


def test_reprs():
    t = Transition("t1", Marking({"a": 2}), "tau", Marking())
    assert repr(t) == "Transition(tid='t1', pre=Marking(2*a), label='tau', post=Marking(0))"
    assert repr(_violation(details="why")) == (
        "Violation(transition='t1', marking=Marking(a), side=1, reason='no-response',"
        " details='why')"
    )
    assert repr(PlaceRelation.of({("b", "a"), (THETA, "c")}, "r")) == "PlaceRelation{(0,c), (b,a)}"
    assert repr(DecideCaps(5)) == "DecideCaps(node_budget=5)"


def test_report_records_keep_their_field_order():
    # The JSON reports are built from these dicts.
    assert list(_violation()._asdict()) == [
        "transition", "marking", "side", "reason", "details"]
    assert list(EQUAL_AND_OTHER["CaseResult"]("c")._asdict()) == [
        "name", "expected", "verdict", "passed", "oracle", "seconds", "stats"]
    assert Verdict._fields == ("status", "witness", "mode_used", "stats", "violations")
    assert CheckReport._fields == ("ok", "violations")


def _cli(*argv) -> str:
    """The exit code, standard output and standard error of one command,
    with the corpus path and every timing masked."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    text = f"exit {code}\n{out.getvalue()}{err.getvalue()}"
    return _TIMING.sub(r"\1: null", text.replace(str(CORPUS), "CORPUS"))


def corpus_transcript() -> str:
    return _cli("corpus", "run", "--include-slow", "--json")


def verify_transcript() -> str:
    """`pneq verify --json` of every verify case's relation, under every kind."""
    parts = []
    for case in load_cases():
        q = case.query
        if q["op"] == "verify":
            for kind in KINDS:
                parts.append(f"== {case.name} {kind}\n" + _cli(
                    "verify", "--json", "--eq", kind, "--relation", CORPUS / q["relation"],
                    CORPUS / case.net, q["m1"], q["m2"]))
    return "".join(parts)


def test_corpus_json_is_unchanged():
    assert corpus_transcript() == (GOLDEN / "corpus_run.txt").read_text(encoding="utf-8")


def test_verify_json_is_unchanged():
    want = (GOLDEN / "verify_reports.txt").read_text(encoding="utf-8")
    assert want.count('"transition"') >= 30  # violation dicts: 36 when written
    assert verify_transcript() == want


LTS_CAP = 200  # the unbounded graphs of producer_consumer and token_pump pass it


def lts_transcript() -> str:
    """`pneq lts --dot` of every corpus net from each distinct marking its
    manifest cases name, in manifest order: the printed states and the DOT
    file, with its numbering, edge order and labels, or the cap's error."""
    markings: dict = {}
    for case in load_cases():
        for m in (case.query["m1"], case.query["m2"]):
            markings.setdefault(case.net, {})[m] = None
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        dot = Path(tmp) / "g.dot"
        for net, ms in markings.items():
            for m in ms:
                dot.unlink(missing_ok=True)
                text = _cli("lts", "--cap", LTS_CAP, "--dot", dot, CORPUS / net, m)
                drawn = dot.read_text(encoding="utf-8") if dot.exists() else ""
                parts.append(f"== {net} {m}\n{text}{drawn}")
    return "".join(parts)


@pytest.mark.parametrize("seed", ["0", "1"])
def test_lts_graphs_are_unchanged(seed):
    # In a fresh process per hash seed, so that no order of a set or dict
    # of strings can reach the numbering, the edges or the labels.
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    code = "import sys, test_records; sys.stdout.write(test_records.lts_transcript())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    want = (GOLDEN / "lts_graphs.txt").read_text(encoding="utf-8")
    assert want.count("->") >= 40 and "\nerror: " in want  # 50 edges when written
    assert proc.stdout == want
