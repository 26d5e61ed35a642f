"""Benchmark of the two decomposition engines; run from the repository root.

    python3 bench/run.py --workload cl41-rotation --seed 1 --seconds 30 --trace 0

Starts the workload in its own single-threaded process (BLAS and OpenMP
pools pinned to one thread) with ``src/`` of the current directory on the
import path.  With ``--trace 0`` the workload's set-up is also timed in
``SETUP_PROBES`` separate processes that stop after set-up, half of them
before the timed process and half after; ``setup_s`` is the median over
those and the main process.  With ``--trace 1`` one traced
process reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details of the run
go to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cl41-rotation", "rep-blocks", "laurent-paraunitary")
SETUP_PROBES = 4
DEADLINE_S = 170.0


def single_threaded_env(src: str) -> dict:
    env = dict(os.environ)
    env.update({"PYTHONPATH": os.pathsep.join([src, HERE]),
                "PYTHONHASHSEED": "0"})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, env, deadline, setup_only=False) -> dict:
    """One worker process; returns the JSON object on its last line."""
    launched = time.perf_counter()
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--launched", repr(launched)]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=max(deadline - launched, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.perf_counter() + DEADLINE_S
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "algdecomp", "__init__.py")):
        print(f"error: no src/algdecomp under {os.getcwd()}; run from the "
              "repository root", file=sys.stderr)
        return 2
    env = single_threaded_env(src)
    try:
        # set-up probes before and after the timed process, so their
        # median spans the run rather than one phase of the host's speed
        probes = 0 if args.trace else SETUP_PROBES
        setups = [run_worker(args, env, deadline, setup_only=True)["setup_s"]
                  for _ in range(probes // 2)]
        result = run_worker(args, env, deadline)
        setups += [run_worker(args, env, deadline, setup_only=True)["setup_s"]
                   for _ in range(probes - probes // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for name, m in sorted(metrics.items()):
        print(f"{name:28s} {m['value']:14.6f} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")}
                     | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
