"""Command-line entry point.

Subcommands:
  generate   build a translation graph from a manifest and predict one
             language pair with otic, cd, or acd
  evaluate   score a prediction file against a gold dictionary
  synth      emit a synthetic instance (dictionaries + gold + manifest)

Exit codes: 0 success, 1 usage error, 2 input/format error, 3 internal.
"""
from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from collections import Counter
from itertools import chain

# Only what builds the parser is imported here; each command imports the
# modules it runs, so a process loads no code its command does not use.
from . import dictio
from .entries import lang_code, normalize_field
from .errors import LexinduceError, UnknownLanguage

EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def _write(stream, text: str) -> None:
    """Write and flush `text`; a stream closed at start (`None`) takes nothing.

    On a failed write the stream's fd is pointed at the null device before
    the error is raised, so the interpreter's final flush cannot fail too.
    """
    if stream is None:
        return
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


def _say(text: str) -> None:
    """A line on stderr, which carries no output of any command.

    If stderr cannot be written (closed, or a full device), the line and
    every later one are dropped: the command goes on, and its exit status
    stays its own.
    """
    try:
        _write(sys.stderr, text + "\n")
    except OSError:
        pass


def _info(message: str) -> None:
    """One progress line on stderr."""
    _say(f"INFO {message}")


def _print(text: str) -> None:
    """Output on stdout; a reader that stops early (`| head`) is not an error, any other failed write is."""
    try:
        _write(sys.stdout, text)
    except BrokenPipeError:
        pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve 2 for input errors
        _say(f"{self.format_usage()}{self.prog}: error: {message}")
        raise SystemExit(EXIT_USAGE)

    def _print_message(self, message, file=None):
        # Only help comes here, as `error` above is ours. argparse's own method
        # swallows a failed write and sends help for a closed stdout to stderr.
        _print(message)


def _switch(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")
    return word in ("1", "true", "yes")


# Each `generate` setting and the parser of its text. The table gives each
# its `--flag` and is the set of config keys; defaults live in `inference`.
SETTINGS = {
    "algo": str,
    "pivot": lang_code,
    "threads": int,  # validated only: the search is serial
    "bcc_filter": _switch,
    "min_len": int,
    "max_len": int,
    "threshold": float,
    "transitive_pos": lambda text: frozenset(t for t in map(normalize_field, text.split(",")) if t),
    "transitive_depth": int,
}


def load_config(path, flags: dict | None = None) -> dict:
    """Flat key=value config; `#` comments and blank lines ignored.

    Returns the file's settings with `flags`, the settings given as flags,
    over them. A key outside `SETTINGS`, a key given twice, a value that
    does not parse, and a value that its record rejects in the merged
    settings each fail with `path:line` instead of being ignored. A value
    rejected beside one that a flag gives is raised as the record raises it.
    """
    from .acd import ALGORITHMS

    out, lines = {}, {}
    for lineno, line in dictio._data_lines(path):
        if "=" not in line:
            raise dictio.MalformedLine(path, lineno, "expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise dictio.MalformedLine(path, lineno, f"unknown key: {key!r}")
        if key in lines:
            raise dictio.MalformedLine(path, lineno, f"{key} is already set on line {lines[key]}")
        try:
            out[key] = SETTINGS[key](value)
        except ValueError as exc:
            raise dictio.MalformedLine(path, lineno, f"{key}: {exc}") from None
        lines[key] = lineno
    for key, value in (flags or {}).items():
        out[key] = value
        lines.pop(key, None)
    if "algo" in lines and out["algo"] not in ALGORITHMS:
        raise dictio.MalformedLine(path, lines["algo"], f"unknown algorithm: {out['algo']!r}")
    try:
        _params(out)
    except ValueError as exc:
        # A record's message names the settings it checks: the latest line
        # among them is to blame, unless a flag gave one of them.
        named = [key for key in str(exc).split() if key in out]
        if named and all(key in lines for key in named):
            raise dictio.MalformedLine(path, max(map(lines.get, named)), str(exc)) from None
        raise
    return out


def _given(cls, settings: dict) -> dict:
    """The settings that name a field of `cls`; the other fields keep their defaults."""
    return {name: settings[name] for name in cls._fields if name in settings}


def _params(settings: dict):
    """The `InferenceParams` of `settings`, whose records check every range."""
    from .inference import CycleConstraints, InferenceParams

    constraints = CycleConstraints(**_given(CycleConstraints, settings))
    return InferenceParams(constraints=constraints, **_given(InferenceParams, settings))


def _check_pair(args) -> None:
    if args.src == args.tgt:
        raise UsageError(f"--src and --tgt are both {args.src!r}")


def _select(specs: list, keep) -> list:
    """The specs that `keep` accepts, logging how many of them are read."""
    chosen = dictio.select_dictionaries(specs, keep)
    _info(f"read {len(chosen)} of {len(specs)} dictionaries")
    return chosen


def cmd_generate(args) -> int:
    from .acd import ALGORITHMS, predict
    from .graph import build_graph

    _check_pair(args)
    flags = {k: v for k in SETTINGS if (v := getattr(args, k)) is not None}
    settings = load_config(args.config, flags) if args.config else flags
    algo = settings.get("algo", "acd")
    if algo not in ALGORITHMS:
        raise UsageError(f"unknown algorithm: {algo!r}")
    pivot = settings.get("pivot")
    if algo != "cd" and not pivot:
        raise UsageError(f"--pivot is required for --algo {algo}")
    if algo != "cd" and pivot in (args.src, args.tgt):
        raise UsageError(f"--pivot {pivot!r} is the source or target language")
    params = _params(settings)

    # Ingest allocates only acyclic containers, so the cyclic collector
    # would find nothing there; and the graph lives to the end of the run,
    # so freezing it keeps later collections from walking it.
    gc.disable()
    try:
        specs = dictio.parse_manifest(args.manifest)
        if settings.get("bcc_filter"):
            from .metagraph import largest_biconnected_language_component

            specs = largest_biconnected_language_component(specs)
            _info(f"bcc filter kept {len(specs)} dictionaries")
        # Every edge joins the two languages of its row, so a language that no
        # kept row names has no word in the graph, and fails before any file
        # is read. OTIC reads only the (src, pivot) and (pivot, tgt) rows, as
        # no other row can reach its output.
        named = {lang for spec in specs for lang in (spec.lang_a, spec.lang_b)}
        for lang in (args.src, args.tgt) if algo == "cd" else (args.src, args.tgt, pivot):
            if lang not in named:
                raise UnknownLanguage(lang)
        pivot_pairs = ({args.src, pivot}, {pivot, args.tgt})
        chosen = _select(specs, lambda spec: algo != "otic" or {spec.lang_a, spec.lang_b} in pivot_pairs)
        # The graph takes each file's pairs as that file is read, so the
        # whole input is never held as one list.
        g = build_graph(chain.from_iterable(dictio.read_dictionaries(chosen)))
    finally:
        gc.enable()
    gc.freeze()
    _info(f"graph: {g.vertex_count} vertices, {g.edge_count} edges")

    scored = predict(g, algo, args.src, args.tgt, params, pivot)
    counts = Counter(sp.provenance for sp in scored)
    for prov in sorted(counts):
        _info(f"predictions: {counts[prov]} {prov}")
    dictio.write_predictions(args.out, scored)
    _info(f"wrote {len(scored)} predictions to {args.out}")
    return 0


def _report_lines(report):
    d = report.as_dict()
    summary = " ".join(f"{k}={d[k]:.4f}" for k in ("precision", "recall", "f1", "coverage", "bwp", "bwr"))
    yield f"{summary} predicted={report.predicted} gold={report.gold} correct={report.correct}"
    for key, value in d.items():
        yield f"{key}={value}"
    for warning in report.warnings:
        yield f"warning={warning}"


MAX_SWEEP_ROWS = 10_001


def _parse_sweep(text: str) -> tuple[float, float, int, int]:
    """`start:stop:step` with finite values, start <= stop and step > 0.

    Returns the start, the step, the row count, which is at most
    `MAX_SWEEP_ROWS`, and the decimal places that tell every row's
    threshold apart: as many as `start` and `step` need, and at least 2.
    """
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise UsageError("--sweep expects start:stop:step") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError("--sweep values must be finite")
    if step <= 0 or start > stop:
        raise UsageError("--sweep needs step > 0 and start <= stop")
    spans = (stop + 1e-9 - start) / step
    if spans >= MAX_SWEEP_ROWS:
        raise UsageError(f"--sweep gives more than {MAX_SWEEP_ROWS} rows")
    from decimal import Decimal

    places = max(2, *(-Decimal(repr(x)).normalize().as_tuple().exponent for x in (start, step)))
    return start, step, math.floor(spans) + 1, places


def cmd_evaluate(args) -> int:
    from .evaluation import evaluate

    _check_pair(args)
    sweep = _parse_sweep(args.sweep) if args.sweep else None
    preds = dictio.read_predictions(args.pred, args.src, args.tgt)
    gold_pairs = dictio.parse_dictionary(dictio.DictionarySpec(args.gold, args.src, args.tgt))
    vocab = None
    if args.manifest:
        # BWR reads only the source and target vocabularies, so only the rows
        # that name either language are read, and no graph is built.
        vocab = {args.src: set(), args.tgt: set()}
        specs = dictio.parse_manifest(args.manifest)
        for pair in dictio.parse_dictionaries(_select(specs, lambda spec: spec.lang_a in vocab or spec.lang_b in vocab)):
            for entry in pair:
                if entry.lang in vocab:
                    vocab[entry.lang].add(entry)

    if sweep:
        start, step, rows, places = sweep
        lines = ["threshold\tprecision\trecall\tf1\tcoverage\tpredicted"]
        for i in range(rows):
            tau = start + i * step  # not a running sum, which a tiny step would never move
            kept = [(a, b) for a, b, conf in preds if conf >= tau - 1e-12]
            r = evaluate(kept, gold_pairs, vocab)
            lines.append(f"{tau:.{places}f}\t{r.precision:.4f}\t{r.recall:.4f}\t{r.f1:.4f}\t{r.coverage:.4f}\t{r.predicted}")
    else:
        lines = list(_report_lines(evaluate([(a, b) for a, b, _ in preds], gold_pairs, vocab)))
    text = "".join(line + "\n" for line in lines)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    _print(text)  # after the report, so the file is complete whatever happens to stdout
    return 0


def cmd_synth(args) -> int:
    from .synth import SynthParams, generate

    params = SynthParams(
        n_langs=args.langs,
        n_senses=args.senses,
        words_per_sense_per_lang=args.words_per_sense,
        polysemy_rate=args.polysemy,
        edge_prob=args.edge_prob,
        seed=args.seed,
    )
    inst = generate(params)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest_rows = []
    for i, la in enumerate(inst.languages):
        for lb in inst.languages[i + 1 :]:
            name = f"dict_{la}-{lb}.tsv"
            dictio.write_dictionary(
                os.path.join(args.out_dir, name), inst.dictionaries.get((la, lb), ())
            )
            dictio.write_dictionary(
                os.path.join(args.out_dir, f"gold_{la}-{lb}.tsv"),
                sorted(inst.gold.get((la, lb), ())),
            )
            manifest_rows.append(f"{la}\t{lb}\t{name}\n")
    with open(os.path.join(args.out_dir, "manifest.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(manifest_rows)
    _info(
        f"synth: {len(inst.languages)} languages, {inst.graph.vertex_count} vertices,"
        f" {inst.graph.edge_count} edges -> {args.out_dir}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lexinduce", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="predict one language pair from a dictionary manifest")
    gen.add_argument("--manifest", required=True)
    gen.add_argument("--src", required=True, type=lang_code)
    gen.add_argument("--tgt", required=True, type=lang_code)
    gen.add_argument("--out", required=True)
    gen.add_argument("--config")
    for name, parse in SETTINGS.items():
        kind = {"action": "store_const", "const": True} if parse is _switch else {"type": parse}
        gen.add_argument("--" + name.replace("_", "-"), dest=name, **kind)
    gen.set_defaults(func=cmd_generate)

    ev = sub.add_parser("evaluate", help="score a prediction file against a gold dictionary")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--gold", required=True)
    ev.add_argument("--src", required=True, type=lang_code)
    ev.add_argument("--tgt", required=True, type=lang_code)
    ev.add_argument("--manifest", help="input dictionaries, used for the BWR vocabulary")
    ev.add_argument("--sweep", help="threshold sweep start:stop:step, one output row per threshold")
    ev.add_argument("--report", help="also write the output lines to this file")
    ev.set_defaults(func=cmd_evaluate)

    sy = sub.add_parser("synth", help="generate a synthetic instance with exact gold")
    sy.add_argument("--out-dir", required=True)
    sy.add_argument("--langs", type=int, default=3)
    sy.add_argument("--senses", type=int, default=50)
    sy.add_argument("--words-per-sense", dest="words_per_sense", type=int, default=1)
    sy.add_argument("--polysemy", type=float, default=0.0)
    sy.add_argument("--edge-prob", dest="edge_prob", type=float, default=1.0)
    sy.add_argument("--seed", type=int, default=0)
    sy.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # inside, so a failed `--help` write is reported
        return args.func(args)
    except UsageError as exc:
        _say(f"lexinduce: usage error: {exc}")
        return EXIT_USAGE
    except (LexinduceError, OSError, ValueError) as exc:
        _say(f"lexinduce: {type(exc).__name__}: {exc}")
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover
        _say(f"lexinduce: internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
