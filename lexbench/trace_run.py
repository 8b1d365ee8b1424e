"""Traced run: per-layer spans and counters from in-process library calls.

The pipeline below composes the public functions the CLI calls, in the
CLI's order, and wraps each call in a span. Nothing inside `src/` is
instrumented. The run checks that the composition reproduces the CLI's
output files byte for byte (and `acd_predict`, for ACD), that every
counter repeats exactly across repetitions, that the cycle counting
pass finds exactly `cd_predict`'s candidates, and that the workload does
the work claimed for it. Like the timed passes, the CLI passes and the
composed calls run at `--threads 1`; the workload's `--threads` pool is
timed apart from them, for `inference.cd_parallel_speedup` alone.
"""
from __future__ import annotations

import contextlib
import math
import os
import statistics
import time

from workloads import WORKLOADS, Workload, import_lexinduce, write_in_child

PER_LAYER = {
    "dictio.parse_s": "s",
    "dictio.lines": "count",
    "entries.distinct_ratio": "ratio",
    "metagraph.bcc_s": "s",
    "metagraph.dicts_kept": "count",
    "graph.build_s": "s",
    "graph.vertices": "count",
    "graph.edges": "count",
    "graph.rss_mb": "MB",
    "otic.pivot_s": "s",
    "otic.type_a_s": "s",
    "otic.type_b_s": "s",
    "otic.type_a_pairs": "count",
    "otic.type_b_pairs": "count",
    "inference.cd_s": "s",
    "inference.enumerate_s": "s",
    "inference.sources": "count",
    "inference.cycles": "count",
    "inference.cycles_useful": "count",
    "inference.useful_cycle_ratio": "ratio",
    "inference.cycles_p50": "count",
    "inference.cycles_p99": "count",
    "inference.cycles_max": "count",
    "inference.cycles_top1pct_share": "ratio",
    "inference.cd_candidates": "count",
    "inference.cd_parallel_speedup": "ratio",
    "inference.transitive_s": "s",
    "inference.transitive_pairs": "count",
    "acd.merge_s": "s",
    "acd.threshold_s": "s",
    "acd.predictions": "count",
    "acd.pred_cycle": "count",
    "acd.pred_type_b": "count",
    "acd.pred_transitive": "count",
    "dictio.write_s": "s",
    "dictio.rows_written": "count",
    "dictio.read_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.sweep_s": "s",
    "cli.overhead_s": "s",
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
    "synth.generate_s": "s",
}
MIN_CLI_PASSES = 3
MIN_REPS = 2
PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * PAGE


class Tracer:
    """Accumulates span durations by name; only top-level spans add to the total."""

    def __init__(self):
        self.spans: dict[str, float] = {}
        self.total = 0.0
        self._depth = 0

    @contextlib.contextmanager
    def span(self, name: str):
        self._depth += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._depth -= 1
            self.spans[name] = self.spans.get(name, 0.0) + elapsed
            if self._depth == 0:
                self.total += elapsed


def _untraced(name: str):
    return contextlib.nullcontext()


def generate_pass(w: Workload, manifest: str, out: str, span) -> dict:
    """What `lexinduce generate` does, as public library calls.

    `span(name)` wraps each call. Returns the counters, and the graph and
    predictions for the checks.
    """
    from lexinduce import dictio
    from lexinduce.acd import merge_scored, threshold_filter
    from lexinduce.graph import build_graph
    from lexinduce.inference import InferenceParams, ScoredPair, cd_predict, transitive_predict
    from lexinduce.metagraph import largest_biconnected_language_component
    from lexinduce.otic import build_pivot_table, otic_type_a, otic_type_b

    params = InferenceParams()
    n: dict[str, float] = {}
    with span("dictio.parse_s"):
        specs = dictio.parse_manifest(manifest)
    if w.bcc_filter:
        with span("metagraph.bcc_s"):
            specs = largest_biconnected_language_component(specs)
        n["metagraph.dicts_kept"] = len(specs)
    with span("dictio.parse_s"):
        pairs = [p for spec in specs for p in dictio.parse_dictionary(spec)]
    rss = rss_bytes()
    with span("graph.build_s"):
        g = build_graph(pairs)
    n["graph.rss_mb"] = (rss_bytes() - rss) / 2**20
    n["dictio.lines"] = len(pairs)
    n["graph.vertices"], n["graph.edges"] = g.vertex_count, g.edge_count
    n["entries.distinct_ratio"] = g.vertex_count / (2 * len(pairs))

    scored = cd = None
    if w.algo == "otic":
        with span("otic.pivot_s"):
            table = build_pivot_table(g, w.src, w.pivot, w.tgt)
        with span("otic.type_b_s"):
            type_b = otic_type_b(table)
        with span("otic.type_a_s"):
            type_a = otic_type_a(table)
        n["otic.type_a_pairs"], n["otic.type_b_pairs"] = len(type_a), len(type_b)
        rows = [(a, b, 1.0, "type_b") for a, b in type_b]
        rows += [(a, b, 1.0, "type_a") for a, b in type_a - type_b]
    else:
        groups = []
        if w.algo == "acd":  # acd_predict's steps, in its order
            with span("otic.pivot_s"):
                table = build_pivot_table(g, w.src, w.pivot, w.tgt)
            with span("otic.type_b_s"):
                type_b = {ScoredPair(a, b, 1.0, "type_b") for a, b in otic_type_b(table) if not g.has_edge(a, b)}
            n["otic.type_b_pairs"] = len(type_b)
            groups.append(type_b)
        with span("inference.cd_s"):
            cd = cd_predict(g, w.src, w.tgt, params)
        with span("inference.transitive_s"):
            transitive = transitive_predict(g, w.src, w.tgt, params.transitive_pos, params.transitive_depth)
        n["inference.transitive_pairs"] = len(transitive)
        with span("acd.merge_s"):
            merged = merge_scored(cd, *groups, transitive)
        with span("acd.threshold_s"):
            scored = threshold_filter(merged, params.threshold)
        rows = [(sp.source, sp.target, sp.confidence, sp.provenance) for sp in scored]
        n["acd.predictions"] = len(rows)
        for prov in ("cycle", "type_b", "transitive"):
            n[f"acd.pred_{prov}"] = sum(1 for r in rows if r[3] == prov)
    with span("dictio.write_s"):
        dictio.write_predictions(out, rows)
    n["dictio.rows_written"] = len(rows)
    return {"counts": n, "graph": g, "cd": cd, "scored": scored}


def evaluate_pass(w: Workload, manifest: str, gold: str, pred: str, span) -> tuple[dict, list[str]]:
    """What `lexinduce evaluate --manifest --sweep` does; returns counters and stdout lines."""
    from lexinduce import dictio
    from lexinduce.evaluation import evaluate
    from lexinduce.graph import build_graph

    with span("dictio.read_s"):
        preds = dictio.read_predictions(pred, w.src, w.tgt)
    with span("dictio.parse_s"):
        gold_pairs = dictio.parse_dictionary(dictio.DictionarySpec(gold, w.src, w.tgt))
        specs = dictio.parse_manifest(manifest)
        pairs = [p for spec in specs for p in dictio.parse_dictionary(spec)]
    with span("graph.build_s"):
        g = build_graph(pairs)
    vocab = {lang: g.entries_of_lang(lang) for lang in g.languages}
    start, stop, step = (float(x) for x in w.sweep.split(":"))
    lines = ["threshold\tprecision\trecall\tf1\tcoverage\tpredicted"]
    with span("evaluation.sweep_s"):
        tau = start
        while tau <= stop + 1e-9:
            kept = [(a, b) for a, b, conf in preds if conf >= tau - 1e-12]
            with span("evaluation.evaluate_s"):
                r = evaluate(kept, gold_pairs, vocab)
            lines.append(f"{tau:.2f}\t{r.precision:.4f}\t{r.recall:.4f}\t{r.f1:.4f}\t{r.coverage:.4f}\t{r.predicted}")
            tau += step
    return {"dictio.lines": len(gold_pairs) + len(pairs)}, lines


def count_cycles(g, w: Workload) -> tuple[dict[str, float], float, dict]:
    """Enumerate every source's cycles with `enumerate_cycles` and count them.

    A cycle is useful when it holds a candidate: a target-language vertex
    with the source's POS that is not adjacent to the source. Returns the
    counters, the time spent in `enumerate_cycles`, and the candidates
    per source, which must equal `cd_predict`'s.
    """
    from lexinduce.inference import InferenceParams, enumerate_cycles

    c = InferenceParams().constraints
    per_source, candidates = [], {}
    useful = 0
    busy = 0.0
    for s in g.entries_of_lang(w.src):
        start = time.perf_counter()
        cycles = enumerate_cycles(g, s, c)
        busy += time.perf_counter() - start
        per_source.append(len(cycles))
        found = set()
        for cyc in cycles:
            hits = {v for v in cyc[1:] if v.lang == w.tgt and v.pos == s.pos and not g.has_edge(s, v)}
            if hits:
                useful += 1
                found |= hits
        if found:
            candidates[s] = found
    total = sum(per_source)
    ranked = sorted(per_source)
    top = ranked[-math.ceil(len(ranked) / 100):] if ranked else []

    def rank(q):  # nearest-rank percentile
        return ranked[max(0, math.ceil(q * len(ranked)) - 1)] if ranked else 0

    counts = {
        "inference.sources": len(per_source),
        "inference.cycles": total,
        "inference.cycles_useful": useful,
        "inference.useful_cycle_ratio": useful / total if total else 0.0,
        "inference.cycles_p50": rank(0.50),
        "inference.cycles_p99": rank(0.99),
        "inference.cycles_max": ranked[-1] if ranked else 0,
        "inference.cycles_top1pct_share": sum(top) / total if total else 0.0,
        "inference.cd_candidates": sum(len(v) for v in candidates.values()),
    }
    return counts, busy, candidates


def claimed_work(w: Workload, n: dict[str, float], dictionaries: int) -> list[str]:
    """Problems if the workload no longer does the work it was chosen for."""
    problems = []
    if w.algo == "acd":
        for name in ("inference.transitive_pairs", "acd.pred_type_b"):
            if not n[name] > 0:
                problems.append(f"{name} is {n[name]}, expected > 0")
    if w.bridge:
        if n["metagraph.dicts_kept"] != dictionaries - 1:
            problems.append(f"the BCC filter kept {n['metagraph.dicts_kept']} of {dictionaries} dictionaries, "
                            "expected all but the bridge")
    return problems


def traced(workload: str, seed: int, deadline: float, work: str) -> tuple[dict, list[str]]:
    from passes import PassRunner, read_manifest

    import_lexinduce()
    from lexinduce.acd import AcdConfig, acd_predict
    from lexinduce.inference import InferenceParams, cd_predict

    w = WORKLOADS[workload]
    inst = write_in_child(w, seed, work, count=1)[0]  # one instance: counters must repeat
    runner = PassRunner(w, inst.manifest, inst.gold, work)
    problems: list[str] = []

    passes = [runner.run() for _ in range(MIN_CLI_PASSES + 1)]
    ref = passes[0]
    for p in passes:
        if p.ok and p.outputs != ref.outputs:
            p.ok, p.error = False, "output differs from the run's first pass"
    failed = [p for p in passes if not p.ok]
    if failed:
        return {"attempted": len(passes), "failed": len(failed)}, [p.error for p in failed]
    cli_wall = statistics.median(p.wall_s for p in passes[1:])

    out = os.path.join(work, "traced.tsv")
    reps: list[dict] = []
    untraced: list[float] = []
    pooled_s: list[float] = []  # cd_predict at the workload's --threads
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        tracer = Tracer()
        start = time.perf_counter()
        gen = generate_pass(w, inst.manifest, out, tracer.span)
        wall = time.perf_counter() - start
        n, spans, g = gen["counts"], tracer.spans, gen["graph"]
        with open(out, "rb") as fh:
            composed = [fh.read()]
        if w.algo != "otic":
            counts, spans["inference.enumerate_s"], candidates = count_cycles(g, w)
            n.update(counts)
            cd_pairs: dict = {}
            for sp in gen["cd"]:
                cd_pairs.setdefault(sp.source, set()).add(sp.target)
            if cd_pairs != candidates:
                problems.append("cycle counting pass disagrees with cd_predict's candidates")
            start = time.perf_counter()
            pooled = cd_predict(g, w.src, w.tgt, InferenceParams(), threads=w.threads)
            pooled_s.append(time.perf_counter() - start)
            if pooled != gen["cd"]:
                problems.append(f"cd_predict at threads={w.threads} differs from threads=1")
        if w.algo == "acd" and not reps:
            if acd_predict(g, w.src, w.tgt, AcdConfig(InferenceParams(), w.pivot)) != gen["scored"]:
                problems.append("composed public calls differ from acd_predict")
        del gen, g  # as between the CLI's two processes
        if w.sweep:
            start = time.perf_counter()
            counts, lines = evaluate_pass(w, inst.manifest, inst.gold, out, tracer.span)
            wall += time.perf_counter() - start
            n["dictio.lines"] += counts["dictio.lines"]
            composed.append(("\n".join(lines) + "\n").encode())
        if tuple(composed) != ref.outputs:
            problems.append("composed public calls differ from the CLI's output")
        reps.append({"n": n, "spans": spans, "total": tracer.total, "wall": wall})

        start = time.perf_counter()
        generate_pass(w, inst.manifest, out, _untraced)
        if w.sweep:
            evaluate_pass(w, inst.manifest, inst.gold, out, _untraced)
        untraced.append(time.perf_counter() - start)

    first = reps[0]["n"]
    counters = [k for k in first if PER_LAYER[k] != "MB"]
    if any(rep["n"][k] != first[k] for rep in reps[1:] for k in counters):
        problems.append("counters differ between traced repetitions")
    problems += claimed_work(w, first, len(read_manifest(inst.manifest)))

    metrics: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)  # a layer the workload never calls reads 0
    for name in {k for rep in reps for k in rep["spans"]}:
        metrics[name] = statistics.median(rep["spans"].get(name, 0.0) for rep in reps)
    metrics.update(first)  # graph.rss_mb too: later builds reuse the memory the first one freed
    if pooled_s:
        metrics["inference.cd_parallel_speedup"] = metrics["inference.cd_s"] / statistics.median(pooled_s)
    pipeline_s = statistics.median(rep["total"] for rep in reps)
    metrics["trace.pipeline_s"] = pipeline_s
    metrics["cli.overhead_s"] = cli_wall - pipeline_s
    metrics["trace.overhead_s"] = statistics.median(rep["wall"] for rep in reps) - statistics.median(untraced)
    metrics["synth.generate_s"] = inst.meta["synth_generate_s"]
    result = {
        "attempted": len(passes) + len(reps),
        "failed": 0,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in PER_LAYER.items()},
        "reps": len(reps),
        "cli_wall_s": cli_wall,
    }
    return result, problems
