"""One workload in one process: set-up, warm-up, timed rounds, checks.

Started by ``run.py``; prints one JSON object as its last line.  With
``--setup-only`` it stops once set-up is done and reports only its set-up
time.  ``--launched`` is the launcher's ``time.perf_counter()`` just before
it started this process; on Linux that clock is CLOCK_MONOTONIC, shared by
all processes, so set-up time counts from the start of the process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

from algdecomp import catalog

import hostspeed
import spans
import workloads

MIN_ROUNDS = 3
ELEM_MUL_PAIRS = 200
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def warm_up(specs):
    """Fill the ``mul_basis`` memo of every lru-cached finite spec in use."""
    fields = [catalog.real_algebra(), catalog.complex_algebra(),
              catalog.quaternion_algebra()]
    for spec in list(specs) + fields:
        labels = spec.labels
        for a in labels:
            for b in labels:
                spec.mul_basis(a, b)


def elem_mul_us(pairs) -> float:
    """Microseconds per product of two full-support cl(4,1) elements."""
    t0 = time.perf_counter()
    for a, b in pairs:
        a * b
    return 1e6 * (time.perf_counter() - t0) / len(pairs)


def report_counts(out) -> dict:
    return {k: getattr(out, k) for k in ("rotations", "qrd_calls", "sweeps")
            if hasattr(out, k)}


def run_rounds(wl, seconds, tracer, on_round):
    """Whole rounds of every set while the next round is expected to end
    within ``seconds`` (at least ``MIN_ROUNDS``).

    Every operation is timed on its own and checked right after, outside
    its timed region.  The reference loop of ``hostspeed`` is timed before
    each set, between its operations and after it.  Returns, per set, the
    times of each operation over the rounds, the set's scaled time and its
    calibrations in each round; the operation tallies; the problems found;
    the engine counters of each set in the first round; and the seconds
    spent in checks.  An operation fails when it raises or when its output
    fails a check; ``wrong`` counts the latter.
    """
    times = {key: [[] for _ in ops] for key, ops in wl.sets.items()}
    scaled = {key: [] for key in wl.sets}
    calibrations = {key: [] for key in wl.sets}
    counts = {}
    tally = {"attempted": 0, "failed": 0, "wrong": 0}
    problems = []
    check_s = 0.0
    traced = tracer is not None
    start = time.perf_counter()
    rounds = 0
    round_s = 0.0
    while (rounds < MIN_ROUNDS
           or time.perf_counter() - start + round_s <= seconds):
        round_start = time.perf_counter()
        for key, ops in wl.sets.items():
            set_counts = {}
            cals = [hostspeed.calibrate()]
            calibrated_at = time.perf_counter()
            raw_s = 0.0
            for op, op_times in zip(ops, times[key]):
                if traced:
                    tracer.active = True
                    span = tracer.open(key)
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:   # a failed operation, not a crash
                    out = exc
                op_times.append(time.perf_counter() - t0)
                raw_s += op_times[-1]
                if traced:
                    tracer.close(span)
                    tracer.active = False
                t0 = time.perf_counter()
                tally["attempted"] += 1
                if isinstance(out, Exception):
                    tally["failed"] += 1
                    problems.append(f"{key}: raised {out!r}")
                else:
                    found = op.check(out)
                    if found:
                        tally["failed"] += 1
                        tally["wrong"] += 1
                        problems.append(f"{key}: {'; '.join(found)}")
                    for k, v in report_counts(out).items():
                        set_counts[k] = set_counts.get(k, 0) + v
                check_s += time.perf_counter() - t0
                if time.perf_counter() - calibrated_at >= hostspeed.EVERY_S:
                    cals.append(hostspeed.calibrate())
                    calibrated_at = time.perf_counter()
            cals.append(hostspeed.calibrate())
            scaled[key].append(hostspeed.scaled(raw_s, cals))
            calibrations[key].append(cals)
            counts.setdefault(key, set_counts)
        on_round()
        rounds += 1
        round_s = time.perf_counter() - round_start
    return times, scaled, calibrations, tally, problems, counts, check_s


def per_round(op_times) -> list:
    """A set's time in each round: the sum over its operations."""
    return [sum(r) for r in zip(*op_times)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.active = True
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        calibrated = hostspeed.calibrate()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warm_up(wl.specs)
        setup_measured_s = time.perf_counter() - args.launched
        setup_s = hostspeed.scaled(setup_measured_s,
                                   [calibrated, hostspeed.calibrate()])
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        layers = []
        if tracer is not None:
            tracer.active = False
            setup_build_s = sum(s.duration for s in tracer.spans
                                if s.name == "rep_build")
            seen = len(tracer.spans)    # rounds start after the set-up spans
        cl41 = catalog.clifford(4, 1)
        rng = np.random.default_rng([args.seed, 99])
        pairs = [(catalog.random_element(cl41, rng),
                  catalog.random_element(cl41, rng))
                 for _ in range(ELEM_MUL_PAIRS)]

        def on_round():
            nonlocal seen
            if tracer is None:
                return
            figures = spans.layer_metrics(tracer.spans[seen:])
            seen = len(tracer.spans)
            value, unit = figures["wedderburn.rep_build_s"]
            figures["wedderburn.rep_build_s"] = (value + setup_build_s, unit)
            figures["core.elem_mul_us"] = (elem_mul_us(pairs), "us")
            layers.append(figures)

        times, scaled, calibrations, tally, problems, counts, check_s = \
            run_rounds(wl, args.seconds, tracer, on_round)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if tracer is None:
            metrics = {key: {"value": statistics.median(v), "unit": "s"}
                       for key, v in scaled.items()}
            metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        else:
            metrics = {name: {"value": statistics.median(l[name][0]
                                                         for l in layers),
                              "unit": unit}
                       for name, (_, unit) in layers[0].items()}
        result = {"correct": tally["wrong"] == 0,
                  "attempted": tally["attempted"], "failed": tally["failed"],
                  "metrics": metrics, "setup_s": setup_s}
        detail = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace, counts=counts, check_s=check_s,
                      setup_measured_s=setup_measured_s,
                      round_times={k: per_round(v) for k, v in times.items()},
                      round_scaled=scaled, calibration_s=calibrations,
                      op_times=times,
                      ops={k: len(v) for k, v in wl.sets.items()},
                      problems=problems[:20],
                      python=sys.version.split()[0], numpy=np.__version__)
        if tracer is not None:
            detail["layers_per_round"] = layers
            tracer.dump(os.path.join(
                OUT_DIR, f"{args.workload}-s{args.seed}.spans.jsonl"),
                workload=args.workload, seed=args.seed)
        with open(os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}"
                               f"-t{args.trace}.json"), "w") as fh:
            json.dump(detail, fh, indent=1)
        print(json.dumps(result))
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
