#!/usr/bin/env python3
"""Benchmark of offgraph's training and scoring paths, run from a checkout.

    python3 perfbench/run.py --workload train-planted --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload eval-checkpoint --seed 7 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test

The program is imported from the checkout's ``src/``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones). A fuller record, with the machine and the seed, goes
to ``perfbench/work/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
BLAS_THREADS = "1"


def _import_program():
    """Import offgraph from this checkout, never from anywhere else."""
    package = ROOT / "src" / "offgraph"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import offgraph

    if Path(offgraph.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported offgraph from {offgraph.__file__}, not {package}")


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _machine(seed: int, workload: str, seconds: int, trace: bool) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run(workload: str, seed: int, seconds: int, trace: bool, specs) -> dict:
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}-{time.time_ns()}"
    workdir.mkdir()
    try:
        result = workloads.run_workload(specs[workload], seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir)
    if not result["correct"]:
        print(f"perfbench: check failed: {result['detail']['check_failed']}", flush=True)
    return result


def main(argv=None) -> int:
    # Before numpy loads: one BLAS thread (at most nproc), one measured process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("train-planted", "train-wide-graph", "eval-checkpoint"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="every workload at tiny size, traced and not, with its checks")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    _import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.self_test:
        return self_test(workloads)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), workloads.WORKLOADS)
    machine = _machine(args.seed, args.workload, args.seconds, bool(args.trace))
    record = {**result, "machine": machine}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1) + "\n")
    for metric, (value, unit) in result["metrics"].items():
        print(f"{metric:28s} {value:14.6f} {unit}")
    print("machine " + json.dumps(machine))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


def self_test(workloads) -> int:
    failures = 0
    for workload in workloads.TINY:
        for trace in (False, True):
            started = time.perf_counter()
            result = run(workload, 7, 1, trace, workloads.TINY)
            status = "ok" if result["correct"] and not result["failed"] else "FAILED"
            failures += status != "ok"
            print(f"self-test {workload:17s} trace={int(trace)} {status} "
                  f"({len(result['metrics'])} metrics, {time.perf_counter() - started:.1f} s)", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
