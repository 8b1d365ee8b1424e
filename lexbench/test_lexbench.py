"""Tests of the benchmark itself: `python3 -m pytest lexbench`."""
from __future__ import annotations

import dataclasses
import json
import os
import re

from passes import PassRunner, check_predictions
from run import END_TO_END
from trace_run import PER_LAYER, count_cycles
from workloads import ROOT, WORKLOADS, import_lexinduce, instance_paths, main as write_instances

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


def small(name: str, **changes):
    return dataclasses.replace(WORKLOADS[name], **changes)


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [*END_TO_END, *PER_LAYER, *WORKLOADS]
    assert all(NAME_RE.match(n) for n in names)
    assert len(set(names)) == len(names)


def _tsv_files(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            if f.endswith(".tsv"):
                path = os.path.join(dirpath, f)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, root)] = fh.read()
    return out


def test_same_seed_writes_identical_instances(tmp_path):
    for name in WORKLOADS:
        runs = []
        for attempt, seed in enumerate((5, 5, 6)):
            out = tmp_path / f"{name}-{attempt}"
            write_instances(["--workload", name, "--seed", str(seed), "--count", "1", "--out", str(out)])
            runs.append(_tsv_files(out))
        assert runs[0] and runs[0] == runs[1], name
        assert runs[0] != runs[2], name


def test_generated_instances_have_the_claimed_features(tmp_path):
    import_lexinduce()
    from workloads import build

    acd = WORKLOADS["acd-13lang"]
    dictionaries, gold, _ = build(acd, 7)
    assert any(e.pos == "np" for pairs in dictionaries.values() for pair in pairs for e in pair)
    assert any(a.pos == "np" and b.pos == "np" for a, b in gold)

    otic = WORKLOADS["otic-eval"]
    dictionaries, _, _ = build(otic, 7)
    langs = {la for pair in dictionaries for la in pair}
    assert len(langs) == otic.langs + 1
    extra = max(langs)
    assert sum(extra in pair for pair in dictionaries) == 1  # joined by a single dictionary

    from lexinduce.dictio import DictionarySpec
    from lexinduce.metagraph import largest_biconnected_language_component

    specs = [DictionarySpec(f"dict_{la}-{lb}.tsv", la, lb) for la, lb in dictionaries]
    kept = largest_biconnected_language_component(specs)
    assert [s for s in specs if s not in kept] == [s for s in specs if extra in (s.lang_a, s.lang_b)]


def test_cycle_counting_agrees_with_cd_predict():
    import_lexinduce()
    from lexinduce.graph import build_graph
    from lexinduce.inference import InferenceParams, cd_predict
    from workloads import build

    for w in (small("acd-13lang", langs=6, senses=120, polysemy=0.4, edge_prob=0.5), small("acd-13lang", senses=60)):
        dictionaries, _, _ = build(w, 3)
        g = build_graph([p for pairs in dictionaries.values() for p in pairs])
        counts, _, candidates = count_cycles(g, w)
        expected: dict = {}
        for sp in cd_predict(g, w.src, w.tgt, InferenceParams()):
            expected.setdefault(sp.source, set()).add(sp.target)
        assert candidates == expected
        assert counts["inference.cd_candidates"] == sum(len(v) for v in expected.values())
        assert 0 < counts["inference.cycles_useful"] <= counts["inference.cycles"]
        assert counts["inference.cycles_p50"] <= counts["inference.cycles_p99"] <= counts["inference.cycles_max"]


def test_output_checks_accept_the_cli_output_and_catch_corruption(tmp_path):
    w = small("acd-13lang", senses=80)
    import_lexinduce()
    from workloads import write

    write(w, 11, str(tmp_path))
    manifest, gold = instance_paths(w, str(tmp_path))
    p = PassRunner(w, manifest, gold, str(tmp_path)).run()
    assert p.ok, p.error
    problems, keys = check_predictions(w, p.outputs[0], manifest)
    assert problems == [] and keys

    header, *rows = p.outputs[0].decode().splitlines(keepends=True)
    corrupt = [
        header + "".join(reversed(rows)),  # sort order
        header + rows[0].replace("\tn\t", "\tnp\t", 1) + "".join(rows[1:]),  # POS mismatch
        header + "".join(rows) + rows[-1],  # repeated pair
        header + "".join(r.rsplit("\t", 2)[0] + "\t0.1000\tcycle\n" for r in rows),  # below threshold
    ]
    for text in corrupt:
        assert check_predictions(w, text.encode(), manifest)[0], text[:200]
