"""In-memory spans at pneq's module boundaries, recorded from outside src/.

A span is (name, start, end, parent index, query id). Spans come from two
places: the benchmark's own calls into pneq, and wrappers installed over
the names one pneq module imports from another (a module-level name is
looked up at call time, so replacing it in the importing module's
namespace intercepts every call made from that module). The wrappers are
installed only while a traced pass runs.
"""
from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# (module, imported name, span name): the cross-module calls whose time is
# subtracted from the caller's self time.
CROSS_MODULE = (
    ("pneq.checkers", "run_search", "silent.run_search"),
    ("pneq.checkers", "silent_reachable", "silent.silent_reachable"),
    ("pneq.checkers", "_match", "relations.match"),
    ("pneq.checkers", "check_relation", "checkers.check_relation"),
    ("pneq.ltsbisim", "reach_lts", "net.reach_lts"),
    ("pneq.ltsbisim", "strong_partition", "ltsbisim.strong_partition"),
    ("pneq.ltsbisim", "branching_relation", "ltsbisim.branching_relation"),
)


class Tracer:
    """Spans of one process; `qid` names the query being run."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, qid]
        self._stack: list = []
        self.qid = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.qid])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    @contextmanager
    def installed(self):
        """Replace each CROSS_MODULE name by its traced wrapper, and restore it."""
        saved = []
        try:
            for module, attr, name in CROSS_MODULE:
                mod = importlib.import_module(module)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, qid in self.spans:
                fh.write(json.dumps([name, start, end, parent, qid]) + "\n")


def durations(spans, start: int = 0) -> list:
    """(name, parent name, qid, seconds, self seconds) for spans[start:],
    where self time is the duration minus the part its direct children
    cover."""
    child = [0.0] * (len(spans) - start)
    for _name, s, e, parent, _qid in spans[start:]:
        if parent is not None and parent >= start:
            child[parent - start] += e - s
    out = []
    for i, (name, s, e, parent, qid) in enumerate(spans[start:]):
        parent_name = spans[parent][0] if parent is not None else None
        out.append((name, parent_name, qid, e - s, e - s - child[i]))
    return out
