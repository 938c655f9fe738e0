"""The names the benchmark harness reaches into keep resolving.

`perfbench/spans.py` swaps the cross-module names in `CROSS_MODULE` for
traced wrappers, and `perfbench/run.py` calls pneq through its public
names. A deletion that drops one of them breaks the traced benchmark
passes, which no other test runs. This file only reads `perfbench/`.
"""
import importlib
import importlib.util
from pathlib import Path

import pneq

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
