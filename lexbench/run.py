"""lexinduce benchmark: one measured run of one workload.

    python3 lexbench/run.py --workload acd-13lang --seed 1 --seconds 55 --trace 0

`--seconds` counts from the start of the run in both modes, set-up
included; the run ends after the pass or repetition under way at the
deadline, plus the output checks. With `--trace 0` the run writes the
workload's instances for `--seed`, then drives the `lexinduce` CLI as
sequential child processes: one untimed warm-up pass, then short full
passes that visit the instances in turn until the deadline, with a bare
CLI start probed after each pass. `wall_s` and `cpu_s` are per-instance
medians over passes, and `peak_rss_mb` the per-instance largest child
max-RSS, each averaged over the instances; `setup_s` is the median
probe; quality pools the instances' counts. With `--trace 1` the run calls the library's public
functions in-process and reports per-layer spans and counters (see
trace_run.py).

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only when every
output check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

from passes import (Pass, PassRunner, check_predictions, check_sweep_report, own_peak_rss_kb, probe_setup,
                    quality_counts, ratios)
from workloads import ROOT, SRC, WORKLOADS, write_in_child

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
    "precision": "ratio",
    "recall": "ratio",
    "coverage": "ratio",
}
MIN_VISITS = 2
WORK_DIR = os.path.join(ROOT, ".lexbench_work")


def measure(workload: str, seed: int, deadline: float, work: str) -> tuple[dict, list[str]]:
    w = WORKLOADS[workload]
    runners = [PassRunner(w, inst.manifest, inst.gold, os.path.dirname(inst.manifest))
               for inst in write_in_child(w, seed, work)]
    problems: list[str] = []

    # An untimed pass warms the file cache and the bytecode cache.
    warm = runners[0].run()
    if not warm.ok:
        return {"attempted": 1, "failed": 1}, [warm.error]
    passes = [warm]
    refs = {0: warm.outputs}
    if w.threads > 1:
        pooled = runners[0].run(threads=w.threads)
        if pooled.ok and pooled.outputs != warm.outputs:
            pooled.ok, pooled.error = False, f"--threads {w.threads} output differs from --threads 1"
        passes.append(pooled)

    # Passes visit the instances in turn, each at least MIN_VISITS times.
    timed: list[list[Pass]] = [[] for _ in runners]
    probes: list[float] = []
    i = 0
    while i < MIN_VISITS * len(runners) or time.perf_counter() < deadline:
        k = i % len(runners)
        i += 1
        p = runners[k].run()
        if p.ok and p.outputs != refs.setdefault(k, p.outputs):
            p.ok, p.error = False, "output differs from the first pass on the same instance"
        timed[k].append(p)
        passes.append(p)
        t = probe_setup(work, runners[k].env)
        if t is None:
            problems.append("bare CLI start failed")
        else:
            probes.append(t)
    own_rss = own_peak_rss_kb()

    totals: Counter = Counter()
    for k, runner in enumerate(runners):
        if k not in refs:
            problems.append(f"instance {k}: no pass succeeded")
            continue
        found, keys = check_predictions(w, refs[k][0], runner.manifest)
        q = quality_counts(keys, runner.gold)
        if w.sweep:
            found += check_sweep_report(refs[k][1], ratios(q), len(keys))
        if found:  # every pass that wrote this output failed
            problems += [f"instance {k}: {f}" for f in found]
            for p in passes:
                if p.ok and p.outputs == refs[k]:
                    p.ok, p.error = False, f"instance {k}: output fails the checks"
        totals.update(q)
    failed = [p for p in passes if not p.ok]
    problems += sorted({p.error for p in failed})

    # One figure per instance, averaged over the run's instances, so that
    # the seed-to-seed spread of the work per instance averages out.
    visited = [ok for ok in ([p for p in ps if p.ok] for ps in timed) if ok]

    def instance_mean(figure):
        return statistics.fmean(figure(ps) for ps in visited) if visited else None

    peaks = [max(p.maxrss_kb for p in ps) for ps in visited]
    if peaks and min(peaks) <= own_rss:
        problems.append(f"child peak RSS {min(peaks)} kB does not exceed the harness's own {own_rss} kB")
    metrics = {
        "wall_s": instance_mean(lambda ps: statistics.median(p.wall_s for p in ps)),
        "cpu_s": instance_mean(lambda ps: statistics.median(p.cpu_s for p in ps)),
        "peak_rss_mb": instance_mean(lambda ps: max(p.maxrss_kb for p in ps) / 1024),
        "setup_s": statistics.median(probes) if probes else None,
        "success_rate": (len(passes) - len(failed)) / len(passes),
        **ratios(totals),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items() if v is not None}
    return {"attempted": len(passes), "failed": len(failed), "metrics": metrics,
            "passes": len(passes) - 1, "probes": len(probes)}, problems


def main(argv=None) -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = start + args.seconds
    if not os.path.isfile(os.path.join(SRC, "lexinduce", "cli.py")):
        print(f"lexbench: no lexinduce sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR)
    try:
        if args.trace:
            from trace_run import traced

            result, problems = traced(args.workload, args.seed, deadline, work)
        else:
            result, problems = measure(args.workload, args.seed, deadline, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"lexbench: check failed: {problem}", file=sys.stderr)
    correct = not problems and result["failed"] == 0
    print(json.dumps({k: v for k, v in result.items() if k not in ("attempted", "failed", "metrics")}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result.get("metrics", {})}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
