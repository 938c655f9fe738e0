"""The names the benchmark harness reaches into keep resolving.

`perfbench/spans.py` swaps the cross-module names in `CROSS_MODULE` for
traced wrappers, and `perfbench/run.py` calls pneq through its public
names. A deletion that drops one of them breaks the traced benchmark
passes, which no other test runs. The public names, in turn, are only
those that pneq, its demos or its benchmark use, and so are the methods
of pneq's classes and the defaulted parameters of its public functions:
library code that only the tests run belongs in the tests. This file only
reads `src/pneq/`, `demos/` and `perfbench/`.
"""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pneq
from pneq import ltsbisim
from pneq.net import CompiledNet

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def _cross_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.CROSS_MODULE


def test_traced_cross_module_names_resolve():
    entries = _cross_module()
    assert entries
    for module, attr, _span in entries:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


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
    # strong_bisim and branching_bisim are the state-level graph-oracle API:
    # decide_interleaving answers marking queries without them, and
    # test_ltsbisim.py and the traced-name test below drive them directly.
    exempt = {"strong_bisim", "branching_bisim"}
    names = set(pneq.__all__) | _top_level_definitions()
    assert sorted(names - used - exempt) == []


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
    traced = {(module, attr) for module, attr, _span in _cross_module()}
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
    lts = pneq.reach_lts(net, [m1, m2])
    i, j = lts.initials
    assert pneq.strong_bisim(lts, i, j) and pneq.branching_bisim(lts, i, j)
    assert calls == [("strong_partition", (i, j)), ("branching_relation", (i, j))]
    calls.clear()
    stats = {}
    assert pneq.decide_interleaving(net, m1, m2, False, stats=stats)[0]
    assert pneq.decide_interleaving(net, m1, m2, True)[0]
    assert calls == [("strong_partition", (i, j)), ("branching_relation", (i, j))]
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
