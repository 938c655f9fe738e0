"""Run every workload, untraced then traced, and print every metric.

    python3 perfbench/suite.py --seed 1 --seconds 40 [--out perfbench/trend/BENCH_<label>.json]
                               [--spans-dir perfbench/out]

Each workload runs in its own process through run.py. The printed lines
are run.py's own: each metric by name with its unit, the sample counts,
fail_frac and the provenance. With --out, the results of all six runs
are written as one JSON trend point; with --spans-dir, the traced runs
also write their spans there. Exits 1 when any run reports a failure.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("search", "oracle", "oneshot")


def run(workload: str, seed: int, seconds: float, trace: int, spans_dir) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace and spans_dir:
        cmd += ["--spans", str(Path(spans_dir) / f"spans-{workload}-{seed}.jsonl")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    print(f"== {workload} trace={trace} exit={proc.returncode}")
    print("\n".join(lines[:-1]))
    if proc.stderr:
        print(proc.stderr, file=sys.stderr)
    if proc.returncode not in (0, 1) or not lines:
        return {"workload": workload, "trace": trace, "error": proc.stderr[-2000:]}
    provenance = next(
        (json.loads(line[len("provenance "):]) for line in lines
         if line.startswith("provenance ")), {})
    return {"workload": workload, "trace": trace, "provenance": provenance,
            **json.loads(lines[-1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--out", help="write all results to this JSON file")
    ap.add_argument("--spans-dir", help="directory for the traced runs' spans")
    args = ap.parse_args(argv)
    if args.spans_dir:
        Path(args.spans_dir).mkdir(parents=True, exist_ok=True)
    results = [
        run(w, args.seed, args.seconds, trace, args.spans_dir)
        for w in WORKLOADS for trace in (0, 1)
    ]
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": results}, indent=1) + "\n")
    return 0 if all(r.get("correct") for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
