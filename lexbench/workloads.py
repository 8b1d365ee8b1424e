"""Seeded workload instances for the lexinduce benchmark.

Every instance comes from `lexinduce.synth.generate` and is written out
with `lexinduce.dictio.write_dictionary`; the program under test only
ever sees the TSV files. A run's seed fixes `INSTANCES` instances,
each with its own synth seed (`seed * 1000 + index`). Run as a script
to write them:

    python3 lexbench/workloads.py --workload acd-13lang --seed 1 --out DIR

which writes `DIR/<index>/`: the dictionaries, `manifest.tsv`, the gold
dictionary for the evaluated pair and `meta.json` (sizes and the time
spent in `synth.generate`).
"""
from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Instances per run. The work of one instance varies with its seed (the
# cycle count has a heavy tail); a run spreads over several.
INSTANCES = 8


def import_lexinduce() -> None:
    """Import lexinduce from this checkout's `src`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "lexinduce", "cli.py")):
        raise SystemExit(f"lexbench: no lexinduce sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import lexinduce

    if os.path.dirname(os.path.dirname(os.path.abspath(lexinduce.__file__))) != SRC:
        raise SystemExit(f"lexbench: lexinduce imported from {lexinduce.__file__}, not {SRC}")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    langs: int
    senses: int
    polysemy: float
    edge_prob: float
    algo: str
    src: str = "aa"
    tgt: str = "ab"
    pivot: str | None = None
    # --threads of one untimed pass whose output must equal the timed
    # passes' (those run at 1), and of cd_predict in the traced run.
    threads: int = 1
    bcc_filter: bool = False
    np_share: float = 0.0  # share of senses whose words are relabelled POS `np`
    bridge: bool = False  # add one language joined by a single dictionary
    sweep: str | None = None  # run `evaluate --sweep` after `generate`

    def generate_argv(self, manifest: str, out: str, threads: int = 1) -> list[str]:
        argv = ["generate", "--manifest", manifest, "--algo", self.algo,
                "--src", self.src, "--tgt", self.tgt, "--out", out]
        if self.pivot:
            argv += ["--pivot", self.pivot]
        if self.bcc_filter:
            argv.append("--bcc-filter")
        if threads != 1:
            argv += ["--threads", str(threads)]
        return argv

    def evaluate_argv(self, manifest: str, pred: str, gold: str) -> list[str]:
        return ["evaluate", "--pred", pred, "--gold", gold, "--src", self.src,
                "--tgt", self.tgt, "--manifest", manifest, "--sweep", self.sweep]


WORKLOADS = {
    w.name: w
    for w in (
        # The criterion-7 shape (13 languages, polysemy 0.1, edge_prob 0.3)
        # shrunk to about 1.6 s per pass; the `np` senses make the
        # transitive pass do real work. Timed passes run at --threads 1;
        # the 2-thread pool is checked and timed per layer (README.md).
        Workload(
            name="acd-13lang",
            why="the paper's many-language ACD setting: ingest, CD, Type B, transitive and write all do work",
            langs=13, senses=1000, polysemy=0.1, edge_prob=0.3,
            algo="acd", pivot="ac", np_share=0.1, threads=2,
        ),
        # Many sparse dictionaries: ingest dominates and no CD runs; the
        # bridged extra language gives the BCC filter something to drop.
        # 600 senses keep a pass (generate, then evaluate) near 1.3 s.
        Workload(
            name="otic-eval",
            why="ingest-bound OTIC with the BCC filter, then evaluate: no CD, reads beside writes",
            langs=20, senses=600, polysemy=0.0, edge_prob=0.37,
            algo="otic", pivot="ac", bcc_filter=True, bridge=True, sweep="0:1:0.1",
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    manifest: str
    gold: str
    meta: dict


def synth_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def build(w: Workload, seed: int):
    """Return (dictionaries, gold pairs of src->tgt, generation seconds) for one synth seed.

    `dictionaries` maps a language pair to its entry pairs, in the order
    written to disk.
    """
    import_lexinduce()
    from lexinduce.entries import LexicalEntry
    from lexinduce.synth import SynthParams, generate, lang_codes

    params = SynthParams(n_langs=w.langs, n_senses=w.senses, polysemy_rate=w.polysemy,
                         edge_prob=w.edge_prob, seed=seed)
    start = time.perf_counter()
    inst = generate(params)
    generate_s = time.perf_counter() - start

    rng = random.Random(f"np-{seed}")
    np_senses = {s for s in range(w.senses) if rng.random() < w.np_share}

    def relabel(e):
        # synth names a word `w<sense>[+<sense>]_<lang>_<index>`; a word
        # becomes a proper noun when every one of its senses was drawn.
        senses = e.rep.split("_", 1)[0][1:].split("+")
        if np_senses and all(int(s) in np_senses for s in senses):
            return LexicalEntry(e.rep, e.lang, "np")
        return e

    dictionaries = {}
    for i, la in enumerate(inst.languages):
        for lb in inst.languages[i + 1:]:
            dictionaries[(la, lb)] = [(relabel(a), relabel(b)) for a, b in inst.dictionaries.get((la, lb), ())]
    gold = sorted((relabel(a), relabel(b)) for a, b in inst.gold[(w.src, w.tgt)])

    if w.bridge:
        extra = lang_codes(w.langs + 1)[-1]
        anchor = inst.languages[-1]
        brng = random.Random(f"bridge-{seed}")
        words = sorted({e for pairs in dictionaries.values() for pair in pairs for e in pair if e.lang == anchor})
        dictionaries[(anchor, extra)] = [
            (a, LexicalEntry(f"b{i}_{extra}", extra, a.pos))
            for i, a in enumerate(words) if brng.random() < 0.5
        ]
    return dictionaries, gold, generate_s


def instance_paths(w: Workload, out_dir: str) -> tuple[str, str]:
    """(manifest, gold) paths of the instance written to `out_dir`."""
    return os.path.join(out_dir, "manifest.tsv"), os.path.join(out_dir, f"gold_{w.src}-{w.tgt}.tsv")


def write(w: Workload, seed: int, out_dir: str) -> None:
    """Write the instance of one synth seed into `out_dir`."""
    from lexinduce.dictio import write_dictionary

    dictionaries, gold, generate_s = build(w, seed)
    os.makedirs(out_dir, exist_ok=True)
    manifest, gold_path = instance_paths(w, out_dir)
    rows = []
    for (la, lb), pairs in dictionaries.items():
        name = f"dict_{la}-{lb}.tsv"
        write_dictionary(os.path.join(out_dir, name), pairs)
        rows.append(f"{la}\t{lb}\t{name}\n")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.writelines(rows)
    write_dictionary(gold_path, gold)
    meta = {
        "workload": w.name,
        "synth_seed": seed,
        "dictionaries": len(rows),
        "pairs": sum(len(p) for p in dictionaries.values()),
        "gold_pairs": len(gold),
        "synth_generate_s": generate_s,
    }
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def write_in_child(w: Workload, seed: int, out_dir: str, count: int = INSTANCES) -> list[Instance]:
    """Write a run's instances from a child process, so this one stays small.

    A child's peak RSS includes its parent's at spawn time, and a build
    after freeing an instance reuses its memory; either would skew the
    RSS figures measured afterwards.
    """
    subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w.name, "--seed", str(seed),
                    "--count", str(count), "--out", out_dir], check=True, timeout=150)
    out = []
    for index in range(count):
        d = os.path.join(out_dir, str(index))
        with open(os.path.join(d, "meta.json"), encoding="utf-8") as fh:
            out.append(Instance(*instance_paths(w, d), json.load(fh)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, default=INSTANCES, help="instances to write")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    import_lexinduce()
    for index in range(args.count):
        write(w, synth_seed(args.seed, index), os.path.join(args.out, str(index)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
