"""CLI passes: spawn `python3 -m lexinduce` as a user would, and check what it wrote.

Children are started with `os.posix_spawn` and reaped with `os.wait4`,
so each pass gets its own CPU time and peak RSS. One child runs at a
time; a child that outlives its timeout is killed and reaped.
"""
from __future__ import annotations

import os
import re
import signal
import sys
import time
from collections import Counter
from dataclasses import dataclass

from workloads import SRC, Workload, import_lexinduce

CHILD_TIMEOUT_S = 60
PREDICTION_HEADER = "# rep_a\tpos_a\trep_b\tpos_b\tconfidence\tprovenance\n"
CONFIDENCE_RE = re.compile(r"(0\.\d{4}|1\.0000)\Z")
PROVENANCES = {"otic": {"type_a", "type_b"}, "cd": {"cycle", "transitive"},
               "acd": {"cycle", "type_b", "transitive"}}


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


@dataclass(frozen=True)
class ChildResult:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def run_child(args: list[str], stdout: str, stderr: str, env: dict[str, str]) -> ChildResult:
    """Run `python3 <args>` with its output in files, and wait for it."""
    wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, wr, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, wr, 0o644),
    ]
    old = signal.signal(signal.SIGALRM, _alarm)
    pid = None
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
        signal.alarm(CHILD_TIMEOUT_S)
        _, status, ru = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
        pid = None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
        if pid is not None:  # timed out or interrupted: do not leave it running
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    return ChildResult(os.waitstatus_to_exitcode(status), wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss)


def probe_setup(work: str, env: dict[str, str]) -> float | None:
    """Wall time of a bare CLI start: spawn plus `import lexinduce.cli`."""
    log = os.path.join(work, "probe.log")
    r = run_child(["-c", "import lexinduce.cli"], log, log, env)
    return r.wall_s if r.rc == 0 else None


@dataclass
class Pass:
    ok: bool
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    outputs: tuple[bytes, ...]
    error: str = ""


class PassRunner:
    """Runs full CLI passes of one workload on one written instance."""

    def __init__(self, w: Workload, manifest: str, gold: str, work: str):
        self.w, self.manifest, self.gold, self.work = w, manifest, gold, work
        self.env = child_env()
        self.pred = os.path.join(work, "pred.tsv")
        self.stdout = os.path.join(work, "stdout.txt")
        self.stderr = os.path.join(work, "stderr.txt")

    def commands(self, threads: int = 1) -> list[list[str]]:
        cmds = [["-m", "lexinduce", *self.w.generate_argv(self.manifest, self.pred, threads)]]
        if self.w.sweep:
            cmds.append(["-m", "lexinduce", *self.w.evaluate_argv(self.manifest, self.pred, self.gold)])
        return cmds

    def run(self, threads: int = 1) -> Pass:
        """One pass: the workload's commands in order, then their outputs.

        The outputs are the prediction file and, when the pass evaluates,
        the evaluation report printed on stdout.
        """
        if os.path.exists(self.pred):
            os.remove(self.pred)
        wall = cpu = 0.0
        rss = 0
        outputs = []
        for args in self.commands(threads):
            r = run_child(args, self.stdout, self.stderr, self.env)
            wall += r.wall_s
            cpu += r.cpu_s
            rss = max(rss, r.maxrss_kb)
            if r.rc != 0:
                with open(self.stderr, encoding="utf-8", errors="replace") as fh:
                    tail = fh.read()[-500:]
                return Pass(False, wall, cpu, rss, (), f"{args[2]} exited {r.rc}: {tail}")
            if args[2] == "evaluate":
                with open(self.stdout, "rb") as fh:
                    outputs.append(fh.read())
        with open(self.pred, "rb") as fh:
            outputs.insert(0, fh.read())
        return Pass(True, wall, cpu, rss, tuple(outputs))


# -- output checks ---------------------------------------------------------


def read_pairs(path: str) -> list[tuple[tuple[str, str], tuple[str, str]]]:
    """(rep, pos) pairs of a 4-column dictionary file written by lexinduce."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rep_a, pos_a, rep_b, pos_b = line.rstrip("\n").split("\t")
            out.append(((rep_a, pos_a), (rep_b, pos_b)))
    return out


def read_manifest(path: str) -> list[tuple[str, str, str]]:
    base = os.path.dirname(path)
    with open(path, encoding="utf-8") as fh:
        return [(a, b, os.path.join(base, p)) for a, b, p in (line.rstrip("\n").split("\t") for line in fh)]


def check_predictions(w: Workload, data: bytes, manifest: str) -> tuple[list[str], set]:
    """Check one prediction file against the format and the algorithm's promises.

    Returns the problems found and the set of predicted (source, target)
    keys. The checks: the pinned header and sort order, 6 columns, a
    4-place confidence, a provenance the algorithm can emit, source and
    target words from the input in the right languages with the same POS,
    no pair twice, and for CD and ACD no direct input edge and no
    confidence below the threshold.
    """
    import_lexinduce()
    from lexinduce.inference import InferenceParams

    threshold = InferenceParams().threshold  # what the CLI runs with
    vocab: dict[str, set] = {w.src: set(), w.tgt: set()}
    direct = set()
    for la, lb, path in read_manifest(manifest):
        if la not in vocab and lb not in vocab:
            continue
        for a, b in read_pairs(path):
            vocab.get(la, set()).add(a)  # a throwaway set for the other language
            vocab.get(lb, set()).add(b)
            if (la, lb) == (w.src, w.tgt):
                direct.add((a, b))
            elif (lb, la) == (w.src, w.tgt):
                direct.add((b, a))

    problems: list[str] = []
    text = data.decode("utf-8")
    if not text.startswith(PREDICTION_HEADER):
        problems.append("missing prediction header")
    keys: set = set()
    prev = None
    for n, line in enumerate(text.splitlines()[1:], start=2):
        cols = line.split("\t")
        if len(cols) != 6:
            problems.append(f"line {n}: {len(cols)} columns")
            continue
        rep_a, pos_a, rep_b, pos_b, conf_s, prov = cols
        a, b = (rep_a, pos_a), (rep_b, pos_b)
        if not CONFIDENCE_RE.match(conf_s):
            problems.append(f"line {n}: confidence {conf_s!r}")
            continue
        conf = float(conf_s)
        sort_key = (rep_a, pos_a, -conf, rep_b, pos_b, prov)
        if prev is not None and sort_key < prev:
            problems.append(f"line {n}: out of order")
        prev = sort_key
        if prov not in PROVENANCES[w.algo]:
            problems.append(f"line {n}: provenance {prov!r}")
        if a not in vocab[w.src] or b not in vocab[w.tgt]:
            problems.append(f"line {n}: word not in the input languages")
        if pos_a != pos_b:
            problems.append(f"line {n}: POS differs")
        if (a, b) in keys:
            problems.append(f"line {n}: pair repeated")
        keys.add((a, b))
        if prov != "cycle" and conf != 1.0:
            problems.append(f"line {n}: {prov} below confidence 1")
        if w.algo != "otic":
            if (a, b) in direct:
                problems.append(f"line {n}: direct edge predicted")
            if conf < threshold:
                problems.append(f"line {n}: below threshold")
    if not keys:
        problems.append("no predictions")
    return problems[:20], keys


def quality_counts(pred: set, gold_path: str) -> Counter:
    """Counts behind precision, recall and coverage against the gold file.

    Counts, not ratios, so that several instances pool into one score.
    """
    gold = set(read_pairs(gold_path))
    gold_sources = {a for a, _ in gold}
    return Counter(correct=len(pred & gold), predicted=len(pred), gold=len(gold),
                   sources=len(gold_sources), covered=len(gold_sources & {a for a, _ in pred}))


def ratios(q: Counter) -> dict[str, float]:
    return {
        "precision": q["correct"] / q["predicted"] if q["predicted"] else 0.0,
        "recall": q["correct"] / q["gold"] if q["gold"] else 0.0,
        "coverage": q["covered"] / q["sources"] if q["sources"] else 0.0,
    }


def check_sweep_report(report: bytes, q: dict[str, float], n_pred: int) -> list[str]:
    """The sweep's threshold-0 row must agree with the benchmark's own scoring."""
    lines = report.decode("utf-8").splitlines()
    if not lines or lines[0] != "threshold\tprecision\trecall\tf1\tcoverage\tpredicted":
        return ["evaluate: missing sweep header"]
    if len(lines) != 12:
        return [f"evaluate: {len(lines) - 1} sweep rows, expected 11"]
    p, r = q["precision"], q["recall"]
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    want = f"0.00\t{p:.4f}\t{r:.4f}\t{f1:.4f}\t{q['coverage']:.4f}\t{n_pred}"
    if lines[1] != want:
        return [f"evaluate: threshold-0 row {lines[1]!r} != {want!r}"]
    return []


def own_peak_rss_kb() -> int:
    """This process's high-water RSS; a child's max RSS includes it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0

