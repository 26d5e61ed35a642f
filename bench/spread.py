"""Run the benchmark over several seeds and report the spread of each metric.

    python3 bench/spread.py --workload rep-blocks --seeds 1-10 [--trace 0]

Prints, per metric, the median and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, plus the failed share of attempted operations.  Run from the
repository root; the runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    shares = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    print(f"{args.workload}: failed shares {sorted(set(shares))}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:28s} median {med:12.6g}  iqr/median {spread:.3f}  "
              f"min {min(v):.6g}  max {max(v):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
