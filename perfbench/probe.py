"""Set-up of one benchmark process: import pneq and parse the workload text.

Run as a script, it is a fresh process that times exactly that set-up and
prints one JSON line, {"setup_s": ..., "digest": ...}. The digest covers
the generated inputs, so the parent can check that its seed gave
byte-identical text in a process with another string-hash salt.

    python3 perfbench/probe.py <workload> <seed>
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SRC = gen.ROOT / "src"


def import_pneq():
    """Import pneq from this checkout's source tree, never an installed copy."""
    if not (SRC / "pneq" / "__init__.py").is_file():
        raise SystemExit(f"pneq sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pneq
    import pneq.corpus

    if SRC.resolve() not in Path(pneq.__file__).resolve().parents:
        raise SystemExit(f"imported pneq from {pneq.__file__}, not from {SRC}")
    return pneq


class Parsed:
    """A query's inputs as pneq objects."""

    __slots__ = ("net", "m1", "m2", "rel")

    def __init__(self, net, m1, m2, rel):
        self.net, self.m1, self.m2, self.rel = net, m1, m2, rel


def parse_queries(api, queries) -> list:
    """Parse every query's text with the parse_* functions of `api` (pneq,
    or the benchmark's traced entry points); a net text shared by several
    queries is parsed once, as a user loading one file would."""
    nets: dict = {}
    out = []
    for q in queries:
        net = nets.get(q["net"])
        if net is None:
            net = nets[q["net"]] = api.parse_net(q["net"])
        m1 = api.parse_marking(q["m1"], net) if "m1" in q else None
        m2 = api.parse_marking(q["m2"], net) if "m2" in q else None
        rel = api.parse_relation(q["rel"], net) if "rel" in q else None
        out.append(Parsed(net, m1, m2, rel))
    return out


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    queries = gen.WORKLOADS[workload](seed)
    digest = gen.digest(queries)
    t0 = time.perf_counter()
    parse_queries(import_pneq(), queries)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "digest": digest}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
