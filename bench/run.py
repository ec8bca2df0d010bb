"""Benchmark entry point: one run of one workload, gated on correct output.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs only the standard library
and the checkout's src/ (there is nothing to build).  With --trace 0 it
prints every end-to-end metric named in BENCHMARK.json, with --trace 1
every per-layer metric.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds the run context (versions, nproc, seed, the
src/elga line count, calibration loops, sample counts).  The exit code
is 0 only when every checked operation was correct.

The workload runs in a fresh interpreter of its own, bench/workloads.py,
with numpy/BLAS thread pools pinned to one thread.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("eval-scenes", "figure-sweep", "cli-cold")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "elga").glob("*.py")))


def version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def run(args) -> int:
    if not (ROOT / "src" / "elga" / "__init__.py").is_file():
        raise BenchError(f"no elga sources under {ROOT / 'src'}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = child_env()

    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    child = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=2 * args.seconds + 60)
    if child.returncode != 0 or not child.stdout.strip():
        raise BenchError(f"workload process exited {child.returncode}:\n{child.stderr[-2000:]}")
    result = json.loads(child.stdout.splitlines()[-1])

    measured = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}

    attempted, failed = result["attempted"], result["failed"]
    context = dict(result["context"], workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   python=platform.python_version(), scipy=version("scipy"),
                   nproc=os.cpu_count(), src_elga_lines=src_lines(),
                   failed_ratio=failed / max(attempted, 1))
    for message in result["failures"]:
        print(f"FAILED: {message}", file=sys.stderr)
    summary = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"context": context, **summary}, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {attempted} operations checked, "
          f"{failed} failed (failed_ratio {context['failed_ratio']:.6g})")
    print(json.dumps({"context": context}))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        return run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
