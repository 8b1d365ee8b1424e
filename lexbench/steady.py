"""Steadiness check: run one workload N times and summarise each metric.

    python3 lexbench/steady.py --workload acd-13lang --runs 10 [--trace 0]

Each run is `run.py` with its own seed: 1, 2, ..., runs.
Before each run it times a fixed pure-Python reference kernel and prints
that time beside the run, so a slow run can be traced to the host. The
kernel time is only reported; no metric is divided by it, because
normalising by it measured no gain. The summary gives, per metric, the
median, the quartiles (`statistics.quantiles(n=4)`), the quartile spread
as a share of the median, and the largest deviation from the median as
a share of it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import ROOT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def reference_kernel_ms() -> float:
    """Median of five timings of a fixed integer loop, in milliseconds."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ok = True
    for seed in range(1, args.runs + 1):
        ref_ms = reference_kernel_ms()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        took = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        ok &= proc.returncode == 0 and result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        shown = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"seed={seed} ref_kernel_ms={ref_ms:.2f} took_s={took:.1f} rc={proc.returncode} "
              f"correct={result['correct']} {shown}", flush=True)
        if proc.returncode:
            print(proc.stderr[-2000:], file=sys.stderr)

    print(f"{'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'max_dev':>8s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        dev = max(abs(v - med) for v in vals) / med if med else 0.0
        print(f"{name:34s} {units[name]:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {dev:8.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
