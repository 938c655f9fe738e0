"""The names the benchmark harness reaches into keep resolving.

`perfbench/spans.py` swaps the cross-module names in `CROSS_MODULE` for
traced wrappers, and `perfbench/run.py` calls pneq through its public
names. A deletion that drops one of them breaks the traced benchmark
passes, which no other test runs. The public names, in turn, are only
those that pneq, its demos or its benchmark use, and so are the methods
of pneq's classes and the defaulted parameters of its public functions:
library code that only the tests run belongs in the tests. The names are
read from `src/pneq/`, `demos/` and `perfbench/`. What names cannot show,
such as an operator, a dunder or a property, the traffic guard sees by
running the demos, the command line and the benchmark workloads under a
profiler. The README documents every stat key, every source file
parses as Python 3.10, and importing pneq loads no module that generates
or inspects code.
"""
import ast
import importlib
import importlib.util
import inspect
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pneq
import pneq.corpus
from pneq import checkers, cli, ltsbisim
from pneq.net import CompiledNet

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
CORPUS = ROOT / "src" / "pneq" / "corpus"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_cross_module_names_resolve():
    entries = _spans().CROSS_MODULE
    assert entries
    for module, attr, _span in entries:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_the_graph_oracles_keep_their_traced_layers():
    # The benchmark's per-layer metrics `net.reach_lts_s`,
    # `ltsbisim.strong_partition_s` and `ltsbisim.branching_relation_s`
    # come from spans over ltsbisim's module-level names: decide_interleaving
    # must keep calling reach_lts and both partitions through them.
    net = pneq.corpus.load_net("latent_sync.pn")
    m1, m2 = (pneq.parse_marking(m, net) for m in ("2*s1", "2*s4"))
    tracer = _spans().Tracer()
    with tracer.installed():
        for branching in (False, True):
            tracer.qid = branching
            ltsbisim.decide_interleaving(net, m1, m2, branching)
    assert ltsbisim.reach_lts is pneq.net.reach_lts  # restored
    assert sorted((name, qid) for name, _, _, _, qid in tracer.spans) == [
        ("ltsbisim.branching_relation", True),
        ("ltsbisim.strong_partition", False),
        ("net.reach_lts", False),
        ("net.reach_lts", True),
    ]


def test_public_names_import():
    for name in pneq.__all__:
        namespace = {}
        exec(f"from pneq import {name}", namespace)
        assert name in namespace


def _used_names(path) -> set:
    """Names a file reads: loaded names and attributes, and in `perfbench/`
    also exact strings, since the benchmark looks names up with getattr. A
    definition or an import alone is not a use."""
    strings = path.parent.name == "perfbench"
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def _top_level_definitions() -> set:
    """The functions and classes defined at the top of a module of pneq."""
    names = set()
    for path in (ROOT / "src" / "pneq").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
    return names


def _outside_files() -> list:
    """The files of pneq, its demos and its benchmark, `__init__.py` aside."""
    dirs = ("src/pneq", "demos", "perfbench")
    return [p for d in dirs for p in (ROOT / d).glob("*.py") if p.name != "__init__.py"]


def test_every_public_name_has_a_caller_outside_the_tests():
    # Public names and every top-level function and class alike: library
    # code that only the tests read belongs in the tests.
    used = set().union(*(_used_names(p) for p in _outside_files()))
    names = set(pneq.__all__) | _top_level_definitions()
    assert sorted(names - used) == []


def test_every_method_is_read_outside_the_tests():
    # A method is used when some file reads its name, as an attribute or,
    # like `__add__ = union`, in its class; dunders are Python's to call.
    used = set().union(*(_used_names(p) for p in _outside_files()))
    unread = {
        f"{cls.name}.{node.name}"
        for path in (ROOT / "src" / "pneq").glob("*.py")
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    }
    assert sorted(unread) == []


def _passed(call, params) -> set:
    """The parameters among `params` (a signature's, in order) that a call
    passes, by position or by keyword; a starred argument passes them all."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return set(params)
    positional = [
        p.name for p in params.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    return set(positional[:len(call.args)]) | {k.arg for k in call.keywords}


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # A default that no call in pneq, its demos or its benchmark overrides
    # is a configuration only the tests run.
    functions = {
        name: inspect.signature(obj).parameters
        for name in pneq.__all__
        if inspect.isfunction(obj := getattr(pneq, name))
    }
    passed = {name: set() for name in functions}
    for path in _outside_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in functions:
                    passed[name] |= _passed(node, functions[name])
    never = [
        f"{name}({p.name})"
        for name, params in functions.items()
        for p in params.values()
        if p.default is not p.empty and p.name not in passed[name]
    ]
    assert sorted(never) == []


def _unread_imports(path) -> set:
    """Names a module imports and never reads: neither loads them nor, in
    `__init__.py`, lists them in `__all__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return imported - read - {"annotations"}  # from __future__


def test_no_module_imports_a_name_it_never_reads():
    # The one exception is a name perfbench/spans.CROSS_MODULE reaches in
    # the importing module: the traced pass swaps it there by that name.
    traced = {(module, attr) for module, attr, _span in _spans().CROSS_MODULE}
    unread = {
        (f"pneq.{path.stem}", name)
        for path in (ROOT / "src" / "pneq").glob("*.py")
        for name in _unread_imports(path)
    }
    assert sorted(unread - traced) == []


def test_graph_oracles_reach_the_traced_partition_names(monkeypatch, nets):
    # The per-layer spans ltsbisim.strong_partition_s and
    # ltsbisim.branching_relation_s time these module-global names; a caller
    # that bound the functions otherwise would leave them reading 0.
    calls = []

    def recorder(name, fn):
        def record(*args, **kwargs):
            calls.append((name, kwargs.get("pair")))
            return fn(*args, **kwargs)

        return record

    for name in ("strong_partition", "branching_relation"):
        monkeypatch.setattr(ltsbisim, name, recorder(name, getattr(ltsbisim, name)))
    net = nets["latent_sync"]
    m1, m2 = pneq.parse_marking("s1", net), pneq.parse_marking("s4", net)
    stats = {}
    assert pneq.decide_interleaving(net, m1, m2, False, stats=stats)[0]
    assert pneq.decide_interleaving(net, m1, m2, True)[0]
    assert calls == [("strong_partition", (0, 1)), ("branching_relation", (0, 1))]
    assert stats["refine_rounds"] >= 1


def test_engines_and_silent_moves_read_the_compiled_net():
    # `Net.compiled` and `Net.silent_moves` build every table that depends
    # on the net alone, once per net; the checking engine and the
    # silent-move search read those tables instead of walking the net's
    # transitions themselves. Looking one transition up by its position
    # (`net.transitions[ti]`) is not a walk.
    for name in ("checkers.py", "silent.py"):
        tree = ast.parse((ROOT / "src" / "pneq" / name).read_text(encoding="utf-8"))
        lookups = {
            id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Subscript)
        }
        reads = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "transitions"
            and id(node) not in lookups
        ]
        assert reads == [], (name, reads)


def test_every_compiled_table_is_read_outside_the_net_module():
    # `Net.compiled` builds each table once per net for the checking
    # engine; a table that no other module of pneq reads as an attribute
    # is kept only for the tests.
    read = {
        node.attr
        for path in (ROOT / "src" / "pneq").glob("*.py") if path.name != "net.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(set(CompiledNet._fields) - read) == []


# Functions and methods of pneq that its traffic never enters, each with the
# reason it stays.
NOT_ENTERED = {
    "net._overflow": "raises the ModelError of a firing that overflows a count",
    "multiset.Marking.__setattr__": "keeps a Marking immutable",
    "multiset.Marking.__reduce__": "copy and pickle, which would otherwise assign the slots",
    "multiset.Marking.__getitem__": "the abstract method of Mapping",
    "multiset.Marking.get": (
        "__getitem__ gives 0 for an absent place, so Mapping's get would ignore"
        " the default"
    ),
    "multiset.Marking.__contains__": (
        "__getitem__ gives 0 for an absent place, so Mapping's `in` would"
        " answer True"
    ),
    "multiset.Marking.__eq__": "equal Markings hash alike, so they must compare equal",
    "net.Net.__repr__": "for people",
    "net._States.__repr__": "for people",
    "net._Edges.__getitem__": (
        "the abstract method of Sequence: pneq reads a graph's edges in order"
    ),
    "net._Edges.__repr__": "for people",
    "relations.PlaceRelation.__repr__": "for people",
    "relations.PlaceRelation.__setattr__": "keeps a PlaceRelation immutable",
    "relations.PlaceRelation.__eq__": (
        "a relation is a value: the same pairs and name make the same relation"
    ),
    "relations.PlaceRelation.__hash__": "equal relations must hash alike",
    "relations.PlaceRelation.__reduce__": (
        "copy and pickle, which would otherwise assign the slots"
    ),
}


def _definitions() -> dict:
    """Each top-level function and method of a top-level class of pneq,
    keyed by (file, first line) as its code object gives them: a decorated
    function's `co_firstlineno` is its first decorator's line."""
    out = {}
    for path in sorted((ROOT / "src" / "pneq").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = (
                [(f"{node.name}.", f) for f in node.body]
                if isinstance(node, ast.ClassDef) else [("", node)]
            )
            for prefix, f in members:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([f.lineno] + [d.lineno for d in f.decorator_list])
                    out[(str(path.resolve()), line)] = f"{path.stem}.{prefix}{f.name}"
    return out


def _cli_calls(case, tmp_path) -> list:
    """The command lines that ask a corpus case's query, plus its closure
    membership (for a verify case) and the graph of its first marking, in
    text and in JSON."""
    q = case.query
    net, m1, m2 = str(CORPUS / case.net), q["m1"], q["m2"]
    if q["op"] == "verify":
        rel = str(CORPUS / q["relation"])
        d = ["--d"] if checkers._is_d(q["eq"]) else []
        calls = [["verify", "--eq", q["eq"], "--relation", rel, net, m1, m2],
                 ["closure", *d, "--relation", rel, net, m1, m2]]
    else:
        calls = [["check", "--eq", q["eq"], "--mode", q.get("mode", "auto"), net, m1, m2]]
    calls.append(["lts", "--cap", "200", "--dot", str(tmp_path / "g.dot"), net, m1])
    return calls + [[c[0], "--json", *c[1:]] for c in calls]


def _run_traffic(tmp_path) -> None:
    """What pneq's callers run: the demos, the command line over the
    corpus (with a typo and a small budget), and one pass of each benchmark
    workload at seed 307 through the benchmark's own entry points."""
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    for case in pneq.corpus.load_cases():
        if not case.slow:
            for argv in _cli_calls(case, tmp_path):
                cli.main(argv)
    cli.main(["check", "--eq", "place", str(CORPUS / "handshake.pn"), "s1", "nope"])
    cli.main(["check", "--eq", "bplace", "--node-budget", "1",
              str(CORPUS / "silent_cells.pn"), "s1", "s2"])
    cli.main(["corpus", "run"])
    cli.main(["corpus", "run", "--json"])
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    api = run.entry_points(pneq)
    for workload in ("search", "oracle", "oneshot"):
        queries = run.gen.WORKLOADS[workload](307)
        parsed = run.probe.parse_queries(api, queries)
        rows = run.run_pass(api, pneq, pneq.DecideCaps(), queries, parsed, range(len(queries)))
        assert all(row.error is None for row in rows), workload


def test_the_traffic_enters_every_function(monkeypatch, tmp_path):
    # The AST guards above see names; this one sees operators, dunders and
    # properties too. Every function and method of pneq is entered by the
    # traffic of its callers, or is in NOT_ENTERED with a reason, and an
    # entry there that the traffic does enter is stale.
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py adds perfbench/
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _run_traffic(tmp_path)
    finally:
        sys.setprofile(previous)
    keys = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in entered}
    never = {name for key, name in _definitions().items() if key not in keys}
    assert sorted(never - set(NOT_ENTERED)) == []
    assert sorted(set(NOT_ENTERED) - never) == []


def test_every_stat_key_is_documented(monkeypatch):
    # Each key that decide, verify and decide_interleaving put in their
    # stats appears in README in backticks, the keys of an auto verdict at
    # the node cap among them.
    keys = set()
    for case in pneq.corpus.load_cases():
        keys |= set(pneq.corpus.run_case(case, pneq.corpus.load_net(case.net)).stats)
    monkeypatch.setattr(checkers, "SEARCH_CAP", 0)
    net = pneq.corpus.load_net("silent_cells.pn")
    verdict = pneq.decide(
        net, pneq.parse_marking("s1", net), pneq.parse_marking("s2", net), "bplace")
    assert verdict.status == "unknown" and "reason" in verdict.stats
    keys |= set(verdict.stats)
    documented = set(re.findall(r"`([a-z_]+)`", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert {"relations_checked", "refine_rounds", "relation_ok"} <= keys
    assert sorted(k for k in keys if k not in documented) == []


def test_every_python_file_parses_as_python_3_10():
    # pyproject.toml promises Python 3.10 or later.
    files = [p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")]
    assert len(files) > 40
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_importing_pneq_loads_no_code_generation_modules():
    # Every pneq process pays for its imports before its first query.
    # dataclasses, and the inspect, ast, dis and tokenize it loads, cost
    # about a quarter of importing pneq; its records are named tuples and
    # slotted classes instead. `site` may load some of these modules before
    # pneq, so only what importing pneq adds counts.
    code = (
        "import sys; before = set(sys.modules)\n"
        "import pneq, pneq.corpus, pneq.cli\n"
        "print(pneq.__file__)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    where, added = proc.stdout.splitlines()
    assert Path(where).resolve().is_relative_to(ROOT / "src")
    assert {"pneq.checkers", "pneq.cli", "pneq.corpus"} <= set(added.split())
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert sorted(heavy & set(added.split())) == []


def test_importing_pneq_without_site_loads_neither_typing_nor_pathlib():
    # This machine's `site` may import typing and pathlib before pneq, which
    # would hide them from the check above; under -S nothing is loaded
    # first. pathlib brings urllib.parse and ipaddress; the CLI alone
    # imports it, to read and write the files it is given.
    code = (
        "import sys; before = set(sys.modules)\n"
        "import pneq, pneq.corpus\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    added = set(proc.stdout.split())
    assert "pneq.corpus" in added
    heavy = {"typing", "pathlib", "urllib.parse", "ipaddress", "dataclasses", "inspect"}
    assert sorted(heavy & added) == []
