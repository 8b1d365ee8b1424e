import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lexinduce
from lexinduce.cli import SETTINGS, load_config, main
from lexinduce.inference import MAX_CYCLE_LEN


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "inst"
    code = main(["synth", "--out-dir", str(out), "--langs", "3", "--senses", "50", "--seed", "7"])
    assert code == 0
    return out


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_synth_deterministic_byte_identical(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        assert main(["synth", "--out-dir", str(d), "--langs", "3", "--senses", "30", "--polysemy", "0.2", "--edge-prob", "0.6", "--seed", "3"]) == 0
    for name in sorted(os.listdir(d1)):
        assert read(d1 / name) == read(d2 / name)


def test_synth_edge_prob_zero_header_only(tmp_path):
    d = tmp_path / "empty"
    assert main(["synth", "--out-dir", str(d), "--langs", "2", "--senses", "5", "--edge-prob", "0", "--seed", "1"]) == 0
    lines = read(d / "dict_aa-ab.tsv").splitlines()
    assert lines == ["# rep_a\tpos_a\trep_b\tpos_b"]


def test_synth_rejects_more_languages_than_two_letter_codes(tmp_path, capsys):
    out = tmp_path / "many"
    assert main(["synth", "--out-dir", str(out), "--langs", "700", "--senses", "1"]) == 2
    assert "n_langs" in capsys.readouterr().err
    assert not out.exists()


def test_generate_acd_roundtrip(synth_dir, tmp_path):
    pred = tmp_path / "pred.tsv"
    code = main([
        "generate", "--algo", "acd", "--src", "aa", "--tgt", "ab", "--pivot", "ac",
        "--manifest", str(synth_dir / "manifest.tsv"), "--out", str(pred), "--threshold", "0.5",
    ])
    assert code == 0
    body = [l for l in read(pred).splitlines() if not l.startswith("#")]
    assert all(len(l.split("\t")) == 6 for l in body)


def test_generate_deterministic_and_thread_invariant(synth_dir, tmp_path):
    outs = []
    for name, threads in (("p1.tsv", "1"), ("p2.tsv", "1"), ("p4.tsv", "4")):
        path = tmp_path / name
        code = main([
            "generate", "--algo", "acd", "--src", "aa", "--tgt", "ab", "--pivot", "ac",
            "--manifest", str(synth_dir / "manifest.tsv"), "--out", str(path),
            "--threads", threads,
        ])
        assert code == 0
        outs.append(read(path))
    assert outs[0] == outs[1] == outs[2]


def test_generate_otic_requires_pivot(synth_dir, tmp_path, capsys):
    code = main([
        "generate", "--algo", "otic", "--src", "aa", "--tgt", "ab",
        "--manifest", str(synth_dir / "manifest.tsv"), "--out", str(tmp_path / "p.tsv"),
    ])
    assert code == 1


def test_generate_unknown_language_is_input_error(synth_dir, tmp_path):
    code = main([
        "generate", "--algo", "cd", "--src", "zz", "--tgt", "ab",
        "--manifest", str(synth_dir / "manifest.tsv"), "--out", str(tmp_path / "p.tsv"),
    ])
    assert code == 2


def test_config_unknown_algo_fails_before_ingest(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algo=foo\n", encoding="utf-8")
    code = main(["generate", "--src", "aa", "--tgt", "ab", "--manifest", str(tmp_path / "nope.tsv"),
                 "--config", str(cfg), "--out", str(tmp_path / "p.tsv")])
    assert code == 2
    assert f"{cfg}:1: unknown algorithm: 'foo'" in capsys.readouterr().err


@pytest.mark.parametrize("algo, threshold", [
    pytest.param("otic", 0.5, id="otic"),
    pytest.param("cd", 0.5, id="cd"),
    pytest.param("acd", 0.5, id="acd"),
    pytest.param(None, None, id="no-settings"),  # the CLI's defaults are the parameter classes'
])
def test_generate_writes_predict_rows(tmp_path, algo, threshold):
    from lexinduce import InferenceParams, build_graph, parse_dictionaries, parse_manifest, predict, write_predictions

    inst = tmp_path / "inst"
    assert main(["synth", "--out-dir", str(inst), "--langs", "4", "--senses", "60",
                 "--polysemy", "0.2", "--edge-prob", "0.6", "--seed", "5"]) == 0
    manifest = str(inst / "manifest.tsv")
    cli, lib = tmp_path / "cli.tsv", tmp_path / "lib.tsv"
    flags = [] if algo is None else ["--algo", algo, "--threshold", str(threshold)]
    assert main(["generate", *flags, "--src", "aa", "--tgt", "ab", "--pivot", "ac",
                 "--manifest", manifest, "--out", str(cli)]) == 0
    params = InferenceParams() if threshold is None else InferenceParams(threshold=threshold)
    g = build_graph(parse_dictionaries(parse_manifest(manifest)))
    scored = predict(g, algo or "acd", "aa", "ab", params, pivot="ac")
    write_predictions(str(lib), [(p.source, p.target, p.confidence, p.provenance) for p in scored])
    assert len(read(cli).splitlines()) > 1
    assert read(cli) == read(lib)


def test_generate_missing_manifest_is_input_error(tmp_path):
    code = main([
        "generate", "--algo", "cd", "--src", "aa", "--tgt", "ab",
        "--manifest", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "p.tsv"),
    ])
    assert code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate"])  # missing required flags
    assert exc.value.code == 1


def test_verbose_flag_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["-v", "synth", "--out-dir", str(tmp_path / "inst")])
    assert exc.value.code == 1
    assert not (tmp_path / "inst").exists()


@pytest.mark.parametrize("command, flag", [("generate", "--src"), ("generate", "--tgt"), ("generate", "--pivot"),
                                           ("evaluate", "--src"), ("evaluate", "--tgt")])
def test_bad_language_code_flag_is_usage_error(tmp_path, capsys, command, flag):
    missing = str(tmp_path / "nope.tsv")  # no file exists: the check comes before any read
    if command == "generate":
        argv = ["generate", "--manifest", missing, "--out", str(tmp_path / "p.tsv"), "--pivot", "ac"]
    else:
        argv = ["evaluate", "--pred", missing, "--gold", missing, "--manifest", missing]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--src", "aa", "--tgt", "ab", flag, "english"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "'english'" in err
    assert "INFO" not in err


def test_context_depth_flag_is_a_usage_error(synth_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--algo", "cd", "--src", "aa", "--tgt", "ab", "--manifest", str(synth_dir / "manifest.tsv"),
              "--out", str(tmp_path / "p.tsv"), "--context-depth", "3"])
    assert exc.value.code == 1
    assert not (tmp_path / "p.tsv").exists()


@pytest.mark.parametrize("max_len", [7, 8])
def test_max_len_alone_sets_the_context_depth(tmp_path, max_len):
    from lexinduce import CycleConstraints, InferenceParams, build_graph, parse_dictionaries, parse_manifest, predict

    inst = tmp_path / "inst"
    assert main(["synth", "--out-dir", str(inst), "--langs", "4", "--senses", "40",
                 "--polysemy", "0.2", "--edge-prob", "0.6", "--seed", "5"]) == 0
    manifest = str(inst / "manifest.tsv")
    cli, lib = tmp_path / "cli.tsv", tmp_path / "lib.tsv"
    assert main(["generate", "--algo", "cd", "--src", "aa", "--tgt", "ab", "--max-len", str(max_len),
                 "--threshold", "0", "--manifest", manifest, "--out", str(cli)]) == 0
    params = InferenceParams(constraints=CycleConstraints(4, max_len), threshold=0.0)
    g = build_graph(parse_dictionaries(parse_manifest(manifest)))
    lexinduce.write_predictions(str(lib), predict(g, "cd", "aa", "ab", params))
    assert len(read(cli).splitlines()) > 1
    assert read(cli) == read(lib)


def _ring_rows(n):
    """A dictionary whose `n` words, alternating `aa` and `ab`, form one ring."""
    return "".join(f"w{i}\tn\tw{i + 1}\tn\n" if i % 2 == 0 else f"w{(i + 1) % n}\tn\tw{i}\tn\n" for i in range(n))


# The CD search recurses once per path vertex, so a cycle this long would
# overflow the stack even under hypothesis, which lifts the interpreter's
# recursion limit by 2,000 frames.
RING_WORDS = 2_600


@pytest.fixture(scope="module")
def ring(tmp_path_factory):
    """A ring of `RING_WORDS` words, and a pivot word `p` (`ac`) beside two of them: a manifest path."""
    return _write_instance(tmp_path_factory.mktemp("ring") / "inst",
                           [("aa", "ab", "ring.tsv"), ("aa", "ac", "ac.tsv"), ("ac", "ab", "ca.tsv")],
                           {"ring.tsv": _ring_rows(RING_WORDS), "ac.tsv": "w0\tn\tp\tn\n", "ca.tsv": "p\tn\tw3\tn\n"})


def _ring_generate(ring, out, *argv):
    return main(["generate", "--src", "aa", "--tgt", "ab", "--manifest", str(ring), "--out", str(out), *argv])


@pytest.mark.parametrize("max_len", [MAX_CYCLE_LEN + 1, RING_WORDS])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_max_len_above_the_cap_is_an_input_error(ring, tmp_path, capsys, how, max_len):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"max_len={max_len}\n", encoding="utf-8")
    out = tmp_path / "p.tsv"
    setting = ["--max-len", str(max_len)] if how == "flag" else ["--config", str(cfg)]
    assert _ring_generate(ring, out, "--algo", "cd", *setting) == 2
    err = capsys.readouterr().err
    assert f"max_len must be <= {MAX_CYCLE_LEN}" in err and not out.exists()
    assert (f"{cfg}:1:" in err) == (how == "config")


def test_max_len_at_the_cap_runs(ring, tmp_path):
    out = tmp_path / "p.tsv"
    assert _ring_generate(ring, out, "--algo", "cd", "--max-len", str(MAX_CYCLE_LEN)) == 0
    assert out.exists()


# Numbers at and around each range's ends, text that parses as no number,
# and the one algorithm and pivot that the ring instance can run.
CONFIG_VALUES = ["-1", "0", "3", "6", "8", str(MAX_CYCLE_LEN), str(MAX_CYCLE_LEN + 1), "100000000", "nan", "1.5",
                 "x y", "cd", "ac"]


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.tuples(st.sampled_from(sorted(SETTINGS)), st.sampled_from(CONFIG_VALUES)), max_size=3),
       flags=st.sampled_from([[], ["--algo", "cd"], ["--pivot", "ac"]]))
@example(lines=[("algo", "cd"), ("max_len", str(RING_WORDS))], flags=[])
def test_no_config_exits_internal(ring, lines, flags):
    cfg = ring.parent / "run.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in lines), encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = _ring_generate(ring, ring.parent / "p.tsv", "--config", str(cfg), *flags)
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        # A pivot such as `cd` is a well-formed code that no manifest row names.
        pivot = dict(lines).get("pivot")
        assert f"{cfg}:" in err.getvalue() or f"UnknownLanguage: {pivot}\n" in err.getvalue(), err.getvalue()


def test_bcc_filter_flag(tmp_path, capsys):
    # triangle aa-ab-ac plus pendant ac-ad; pendant pair must be dropped
    inst = tmp_path / "inst"
    assert main(["synth", "--out-dir", str(inst), "--langs", "4", "--senses", "40", "--seed", "5"]) == 0
    manifest = inst / "manifest.tsv"
    rows = [l for l in read(manifest).splitlines() if not l.startswith(("aa\tad", "ab\tad"))]
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    code = main([
        "generate", "--algo", "cd", "--src", "aa", "--tgt", "ab",
        "--manifest", str(manifest), "--out", str(pred), "--bcc-filter", "--threshold", "0",
    ])
    assert code == 0


def test_evaluate_identical_files(synth_dir, capsys):
    gold = str(synth_dir / "gold_aa-ab.tsv")
    code, out = run(capsys, "evaluate", "--pred", gold, "--gold", gold, "--src", "aa", "--tgt", "ab")
    assert code == 0
    assert "precision=1.0" in out and "recall=1.0" in out and "f1=1.0" in out


def test_evaluate_empty_pred(tmp_path, synth_dir, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# rep_a\tpos_a\trep_b\tpos_b\n", encoding="utf-8")
    code, out = run(capsys, "evaluate", "--pred", str(empty), "--gold", str(synth_dir / "gold_aa-ab.tsv"), "--src", "aa", "--tgt", "ab")
    assert code == 0
    assert "precision=0.0" in out and "warning=" in out


def test_evaluate_sweep_rows_non_increasing(synth_dir, tmp_path, capsys):
    pred = tmp_path / "pred.tsv"
    assert main([
        "generate", "--algo", "acd", "--src", "aa", "--tgt", "ab", "--pivot", "ac",
        "--manifest", str(synth_dir / "manifest.tsv"), "--out", str(pred), "--threshold", "0",
    ]) == 0
    code, out = run(
        capsys, "evaluate", "--pred", str(pred), "--gold", str(synth_dir / "gold_aa-ab.tsv"),
        "--src", "aa", "--tgt", "ab", "--manifest", str(synth_dir / "manifest.tsv"),
        "--sweep", "0:1:0.1",
    )
    assert code == 0
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    assert len(rows) == 11
    counts = [int(r[-1]) for r in rows]
    assert counts == sorted(counts, reverse=True)


def test_config_file_with_flag_override(synth_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algo=acd\npivot=ac\nthreshold=0.9\nmin_len=4\nmax_len=4\n", encoding="utf-8")
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    base = ["generate", "--src", "aa", "--tgt", "ab", "--manifest", str(synth_dir / "manifest.tsv"), "--config", str(cfg)]
    assert main(base + ["--out", str(p1)]) == 0
    assert main(base + ["--out", str(p2), "--threshold", "0"]) == 0
    n1 = len(read(p1).splitlines())
    n2 = len(read(p2).splitlines())
    assert n2 >= n1  # lower threshold keeps at least as many rows


def test_config_unknown_key_is_input_error(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algo=acd\npivot=ac\ntreshold=0.9\n", encoding="utf-8")
    code = main(["generate", "--src", "aa", "--tgt", "ab", "--manifest", str(synth_dir / "manifest.tsv"),
                 "--config", str(cfg), "--out", str(tmp_path / "p.tsv")])
    assert code == 2
    assert f"{cfg}:3: unknown key: 'treshold'" in capsys.readouterr().err
    assert not (tmp_path / "p.tsv").exists()


@pytest.mark.parametrize("line", ["min_len=abc", "threads=x", "threshold=high", "bcc_filter=ture", "pivot=english",
                                  "context_depth=3", "threshold=2", "min_len=2", "transitive_depth=0", "max_len=3",
                                  "min_len=7", "algo=cd"])
def test_config_bad_value_fails_on_its_line(synth_dir, tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"algo=acd\n{line}\npivot=ac\n", encoding="utf-8")
    out = tmp_path / "p.tsv"
    code = main(["generate", "--src", "aa", "--tgt", "ab", "--manifest", str(synth_dir / "manifest.tsv"),
                 "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert f"{cfg}:2:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, flags, error", [
    ("min_len=7\nmax_len=8\n", [], None),
    ("max_len=3\n", ["--min-len", "3"], None),
    ("threshold=2\n", ["--threshold", "0.5"], None),
    ("min_len=7\n", ["--max-len", "5"], "lexinduce: ValueError: max_len must be >= min_len\n"),
    ("max_len=5\nthreshold=0.5\nmin_len=6\n", [], ":3: max_len must be >= min_len\n"),
], ids=["later-line-completes", "flag-completes", "flag-overrides", "flag-is-blamed", "latest-line-is-blamed"])
def test_config_ranges_are_checked_with_the_flags_merged(synth_dir, tmp_path, capsys, text, flags, error):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "p.tsv"
    code = main(["generate", "--algo", "otic", "--pivot", "ac", "--src", "aa", "--tgt", "ab",
                 "--manifest", str(synth_dir / "manifest.tsv"), "--config", str(cfg), "--out", str(out), *flags])
    err = capsys.readouterr().err
    if error is None:
        assert code == 0 and out.exists()
    else:
        assert code == 2 and err.endswith(error) and not out.exists()


@pytest.mark.parametrize("word, on", [("1", True), ("TRUE", True), ("Yes", True),
                                      ("0", False), ("false", False), ("NO", False)])
def test_config_switch_words(synth_dir, tmp_path, monkeypatch, word, on):
    calls = []
    monkeypatch.setattr("lexinduce.metagraph.largest_biconnected_language_component", lambda specs: calls.append(specs) or specs)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"bcc_filter={word}\n", encoding="utf-8")
    assert main(["generate", "--algo", "cd", "--src", "aa", "--tgt", "ab", "--manifest", str(synth_dir / "manifest.tsv"),
                 "--config", str(cfg), "--out", str(tmp_path / "p.tsv")]) == 0
    assert bool(calls) is on


def test_language_codes_are_case_insensitive(tmp_path):
    inst = tmp_path / "inst"
    assert main(["synth", "--out-dir", str(inst), "--langs", "4", "--senses", "60",
                 "--polysemy", "0.2", "--edge-prob", "0.6", "--seed", "5"]) == 0
    manifest = str(inst / "manifest.tsv")
    cfg = tmp_path / "run.cfg"
    # POS tags are read as entry POS tags are: trimmed, and case kept
    cfg.write_text("pivot=AC\ntransitive_pos=num, n\n", encoding="utf-8")
    assert load_config(str(cfg))["transitive_pos"] == {"n", "num"}
    runs = {
        "lower": ["--src", "aa", "--tgt", "ab", "--pivot", "ac", "--transitive-pos", "n,num"],
        "upper": ["--src", "AA", "--tgt", "AB", "--pivot", "AC", "--transitive-pos", " n , num,"],
        "config": ["--src", "aa", "--tgt", "ab", "--config", str(cfg)],
    }
    outs = []
    for name, flags in runs.items():
        out = tmp_path / f"{name}.tsv"
        assert main(["generate", "--algo", "acd", *flags, "--manifest", manifest, "--out", str(out)]) == 0
        outs.append(read(out))
    assert "\ttransitive\n" in outs[0]
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_same_source_and_target_is_usage_error(tmp_path, capsys, command):
    missing = str(tmp_path / "nope.tsv")  # no file exists: the check comes before any read
    if command == "generate":
        argv = ["generate", "--src", "aa", "--tgt", "AA", "--pivot", "ac", "--manifest", missing,
                "--config", missing, "--out", str(tmp_path / "p.tsv")]
    else:
        argv = ["evaluate", "--pred", missing, "--gold", missing, "--src", "aa", "--tgt", "AA"]
    assert main(argv) == 1
    assert "usage error: --src and --tgt are both 'aa'" in capsys.readouterr().err


@pytest.mark.parametrize("algo, pivot, code", [
    ("acd", "AA", 1),
    ("otic", "ab", 1),
    ("otic", None, 1),  # pivot=ab from the config file
    ("cd", "aa", 2),  # cd takes no pivot; the missing manifest fails
])
def test_pivot_equal_to_source_or_target_is_usage_error(tmp_path, capsys, algo, pivot, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pivot=ab\n", encoding="utf-8")
    flags = ["--config", str(cfg)] if pivot is None else ["--pivot", pivot]
    argv = ["generate", "--algo", algo, "--src", "aa", "--tgt", "ab", *flags,
            "--manifest", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "p.tsv")]
    assert main(argv) == code
    if code == 1:
        assert "usage error: --pivot" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", ["0:1:0", "0:1:-0.1", "1:0:0.1", "nan:1:0.1", "0:inf:0.1", "0:1:nan", "1:2:1e-17"])
def test_evaluate_bad_sweep_is_usage_error(tmp_path, sweep):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("chien\tn\tdog\tn\n", encoding="utf-8")
    # A separate process, so a sweep that never ends fails on the timeout instead of hanging the suite.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lexinduce.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "lexinduce", "evaluate", "--pred", str(pairs), "--gold", str(pairs),
         "--src", "fr", "--tgt", "en", "--sweep", sweep],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, timeout=20,
    )
    assert proc.returncode == 1
    assert b"usage error: --sweep" in proc.stderr


def test_prediction_file_reparses_as_dictionary(synth_dir, tmp_path):
    from lexinduce import DictionarySpec, parse_dictionary

    pred = tmp_path / "pred.tsv"
    assert main([
        "generate", "--algo", "otic", "--src", "aa", "--tgt", "ab", "--pivot", "ac",
        "--manifest", str(synth_dir / "manifest.tsv"), "--out", str(pred), "--threshold", "0",
    ]) == 0
    stripped = tmp_path / "stripped.tsv"
    body = [l for l in read(pred).splitlines() if not l.startswith("#")]
    stripped.write_text("".join("\t".join(l.split("\t")[:4]) + "\n" for l in body), encoding="utf-8")
    pairs = parse_dictionary(DictionarySpec(str(stripped), "aa", "ab"))
    assert len(pairs) == len(body)


def _shuffled_copy(src_dir, dst_dir, seed):
    """Copy an instance with its manifest rows and each dictionary's lines shuffled."""
    rng = random.Random(seed)
    dst_dir.mkdir()
    rows = read(src_dir / "manifest.tsv").splitlines()
    rng.shuffle(rows)
    (dst_dir / "manifest.tsv").write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    for row in rows:
        name = row.split("\t")[2]
        lines = read(src_dir / name).splitlines()
        rng.shuffle(lines)
        (dst_dir / name).write_text("".join(l + "\n" for l in lines), encoding="utf-8")


def _bridged_instance(tmp_path):
    """A 5-language synth instance whose `ae` is joined by one dictionary only."""
    inst = tmp_path / "inst"
    assert main(["synth", "--out-dir", str(inst), "--langs", "5", "--senses", "60",
                 "--polysemy", "0.2", "--edge-prob", "0.7", "--seed", "11"]) == 0
    # leave `ae` joined by one dictionary, so the BCC filter has a bridge to drop
    manifest = inst / "manifest.tsv"
    rows = [l for l in read(manifest).splitlines() if not l.startswith(("aa\tae", "ab\tae", "ac\tae"))]
    manifest.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    return inst


# The sha256 of each prediction file on `_bridged_instance`, so a change to
# any algorithm's output shows here. OTIC reads only the pivot dictionaries,
# which the BCC filter keeps, so filtering leaves its file as it is.
GOLDEN_SHA256 = {
    "otic": "7e7253b61fa4f6d11b5added94aee6b402a4437b9b3a23dc8c2762e5176f575a",
    "cd": "9e55c54e95f64257195765144b8447d2ad3fdc345d4c33a7303066199ac4876f",
    "acd": "53522016e4f6f58b6d9ffc5b14f039e842647eb99c03f7eca53c10ecec420eed",
    "otic --bcc-filter": "7e7253b61fa4f6d11b5added94aee6b402a4437b9b3a23dc8c2762e5176f575a",
}


@pytest.mark.parametrize("algo", sorted(GOLDEN_SHA256))
def test_generate_output_matches_golden_digest(tmp_path, algo):
    inst = _bridged_instance(tmp_path)
    pred = tmp_path / "pred.tsv"
    assert main(["generate", "--algo", *algo.split(), "--src", "aa", "--tgt", "ab", "--pivot", "ac",
                 "--manifest", str(inst / "manifest.tsv"), "--out", str(pred)]) == 0
    assert hashlib.sha256(pred.read_bytes()).hexdigest() == GOLDEN_SHA256[algo]


@pytest.mark.parametrize("algo", sorted(GOLDEN_SHA256))
def test_generate_builds_no_whole_input_pair_list(tmp_path, monkeypatch, algo):
    def refuse(specs):
        raise AssertionError("generate read every dictionary into one list")

    monkeypatch.setattr(lexinduce.dictio, "parse_dictionaries", refuse)
    inst = _bridged_instance(tmp_path)
    pred = tmp_path / "pred.tsv"
    assert main(["generate", "--algo", *algo.split(), "--src", "aa", "--tgt", "ab", "--pivot", "ac",
                 "--manifest", str(inst / "manifest.tsv"), "--out", str(pred)]) == 0
    assert hashlib.sha256(pred.read_bytes()).hexdigest() == GOLDEN_SHA256[algo]


def _write_instance(d, rows, files, form=lambda text: text):
    """Write a manifest of `rows` and the dictionaries `files` ({name: text}) under `d`.

    Every file's text goes through `form`, and is written as UTF-8 bytes
    with its line ends as they are. Returns the manifest's path.
    """
    d.mkdir()
    for name, text in {"manifest.tsv": "".join("\t".join(r) + "\n" for r in rows), **files}.items():
        (d / name).write_bytes(form(text).encode("utf-8"))
    return d / "manifest.tsv"


def _swapped(text):
    """A dictionary's text with the two languages' columns swapped and its lines in reverse."""
    out = []
    for line in reversed(text.splitlines()):
        cols = line.split("\t")
        out.append(line if line.startswith("#") else "\t".join(cols[2:] + cols[:2]))
    return "".join(line + "\n" for line in out)


@pytest.mark.parametrize("algo_flags", [["--algo", "acd"], ["--algo", "otic", "--bcc-filter"], ["--algo", "otic"],
                                        ["--algo", "cd"]])
def test_generate_independent_of_input_order(tmp_path, monkeypatch, algo_flags):
    """Each variant of one instance writes the same prediction bytes: manifest
    rows and dictionary lines shuffled, CRLF ends and a leading BOM, upper-case
    language codes, every line given twice and every dictionary listed again
    under the swapped pair, a child process with another hash seed, and NFD
    against NFC written forms."""
    inst = _bridged_instance(tmp_path)
    rows = [row.split("\t") for row in read(inst / "manifest.tsv").splitlines()]
    # every written form starts with an NFC `é`, so the NFD variant has something to decompose
    files = {name: read(inst / name).replace("w", "\u00e9") for _, _, name in rows}
    lower, upper = ("aa", "ab", "ac"), ("AA", "AB", "AC")
    variants = {"base": (_write_instance(tmp_path / "base", rows, files), lower)}
    for seed in (1, 2):
        _shuffled_copy(tmp_path / "base", tmp_path / f"shuffled{seed}", seed)
        variants[f"shuffled{seed}"] = (tmp_path / f"shuffled{seed}" / "manifest.tsv", lower)
    variants["crlf-bom"] = (_write_instance(tmp_path / "crlf", rows, files,
                                            lambda text: "\ufeff" + text.replace("\n", "\r\n")), lower)
    variants["upper-case"] = (_write_instance(tmp_path / "upper", [[a.upper(), b.upper(), n] for a, b, n in rows],
                                              files), upper)
    # every line twice in its own file, and once more in a file listed under the swapped pair
    twice = {**{n: t + t for n, t in files.items()}, **{"swapped_" + n: _swapped(t) for n, t in files.items()}}
    variants["listed-twice"] = (_write_instance(tmp_path / "twice", rows + [[b, a, "swapped_" + n] for a, b, n in rows],
                                                twice), lower)
    variants["nfd"] = (_write_instance(tmp_path / "nfd", rows, files, lambda text: unicodedata.normalize("NFD", text)),
                       lower)

    def argv(name, out):
        manifest, (src, tgt, pivot) = variants[name]
        return ["generate", *algo_flags, "--src", src, "--tgt", tgt, "--pivot", pivot,
                "--manifest", str(manifest), "--out", str(tmp_path / f"pred_{out}.tsv")]

    for name in variants:
        assert main(argv(name, name)) == 0
    monkeypatch.setenv("PYTHONHASHSEED", "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1")
    code, _, err = _cli(*argv("base", "hash-seed"))
    assert code == 0, err
    outs = {name: (tmp_path / f"pred_{name}.tsv").read_bytes() for name in [*variants, "hash-seed"]}
    assert len(outs["base"].splitlines()) > 1 and "\u00e9".encode() in outs["base"]
    assert {name: out for name, out in outs.items() if out != outs["base"]} == {}


def _quiet_main(*argv):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(list(argv))
    return code, err.getvalue()


ORDER_ALGOS = (["--algo", "otic"], ["--algo", "cd"], ["--algo", "acd"], ["--algo", "acd", "--bcc-filter"])


@settings(max_examples=30, deadline=None)
@given(langs=st.integers(3, 5), senses=st.integers(1, 60), polysemy=st.floats(0, 0.5),
       edge_prob=st.floats(0.05, 1), seed=st.integers(0, 2**16), order_seed=st.integers(0, 2**16))
def test_generate_independent_of_input_order_on_random_instances(tmp_path_factory, langs, senses, polysemy,
                                                                  edge_prob, seed, order_seed):
    """On a random synth instance, every algorithm writes the same bytes (or
    fails the same way) with the manifest rows shuffled, with each
    dictionary's lines shuffled, and with one dictionary's columns swapped
    under the swapped manifest row."""
    root = tmp_path_factory.mktemp("order")
    assert _quiet_main("synth", "--out-dir", str(root / "base"), "--langs", str(langs), "--senses", str(senses),
                       "--polysemy", str(polysemy), "--edge-prob", str(edge_prob), "--seed", str(seed))[0] == 0
    rows = [row.split("\t") for row in read(root / "base" / "manifest.tsv").splitlines()]
    files = {name: read(root / "base" / name) for _, _, name in rows}
    rng = random.Random(order_seed)

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    i = rng.randrange(len(rows))
    a, b, name = rows[i]
    manifests = {
        "base": root / "base" / "manifest.tsv",
        "rows-shuffled": _write_instance(root / "rows", shuffled(rows), files),
        "lines-shuffled": _write_instance(root / "lines", rows, {n: "".join(line + "\n" for line in
                                                                            shuffled(t.splitlines()))
                                                                 for n, t in files.items()}),
        "one-swapped": _write_instance(root / "swapped", [*rows[:i], [b, a, name], *rows[i + 1:]],
                                       {**files, name: _swapped(files[name])}),
    }
    for flags in ORDER_ALGOS:
        outs = {}
        for variant, manifest in manifests.items():
            out = root / f"{variant}.tsv"
            out.unlink(missing_ok=True)
            code, _ = _quiet_main("generate", *flags, "--src", "aa", "--tgt", "ab", "--pivot", "ac",
                                  "--manifest", str(manifest), "--out", str(out))
            outs[variant] = (code, out.read_bytes() if code == 0 else None)
        assert {v: out for v, out in outs.items() if out != outs["base"]} == {}, flags


# What a fuzzed dictionary or manifest row is made of: the bytes that end
# lines, split fields, start comments, start a BOM or are not UTF-8, and the
# words, lines and file names of the instance below.
MAIN_FUZZ_PIECES = [b"\t", b"\r", b"\n", b"\x00", b"#", b" ", b"\xef", b"\xbb", b"\xbf", b"\xff", b"n", b"a1", b"c1",
                    b"aa", b"ab", b"ac", b"a1\tn\tc1\tn\n", b"a2\tn\tc2\tn\n", b"ab\tac\tdict_ab-ac.tsv",
                    b"fuzz.tsv"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A 3-language instance whose `aa-ac` dictionary, `fuzz.tsv`, and third manifest row are drawn."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "dict_aa-ab.tsv").write_bytes(b"a1\tn\tb1\tn\na2\tn\tb2\tn\n")
    (d / "dict_ab-ac.tsv").write_bytes(b"b1\tn\tc1\tn\nb2\tn\tc2\tn\n")
    return d


def _line_count(data):
    return len(data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n"))


@settings(max_examples=150, deadline=None)
@given(dictionary=st.lists(st.sampled_from(MAIN_FUZZ_PIECES), max_size=12).map(b"".join),
       row=st.lists(st.sampled_from(MAIN_FUZZ_PIECES), max_size=6).map(b"".join),
       algo=st.sampled_from(["otic", "cd", "acd"]))
@example(dictionary=b"a1\tn\tc1\tn\na2\tn\tc2\tn\n", row=b"ab\tac\tdict_ab-ac.tsv", algo="acd")
def test_generate_on_fuzzed_input_bytes_never_exits_internal(fuzz_dir, dictionary, row, algo):
    """`generate` takes a drawn dictionary and manifest row in, or fails with
    an input error; a malformed line fails at its file and line."""
    manifest = fuzz_dir / "manifest.tsv"
    files = {manifest: b"aa\tab\tdict_aa-ab.tsv\naa\tac\tfuzz.tsv\n" + row, fuzz_dir / "fuzz.tsv": dictionary}
    for path, data in files.items():
        path.write_bytes(data)
    code, err = _quiet_main("generate", "--algo", algo, "--src", "aa", "--tgt", "ab", "--pivot", "ac",
                            "--manifest", str(manifest), "--out", str(fuzz_dir / "p.tsv"))
    assert code in (0, 1, 2), err
    if "MalformedLine" in err:
        named = {str(path): _line_count(data) for path, data in files.items()}
        path, lineno = err.split("MalformedLine: ", 1)[1].split(":")[:2]
        assert path in named and 1 <= int(lineno) <= named[path], err


def test_evaluate_manifest_report_matches_graph_vocabulary(tmp_path, capsys):
    from lexinduce import (
        DictionarySpec, build_graph, evaluate, parse_dictionaries, parse_dictionary, parse_manifest, read_predictions,
    )

    inst = tmp_path / "inst"
    assert main(["synth", "--out-dir", str(inst), "--langs", "3", "--senses", "80",
                 "--polysemy", "0.1", "--edge-prob", "0.5", "--seed", "4"]) == 0
    manifest, gold = inst / "manifest.tsv", inst / "gold_aa-ab.tsv"
    pred = tmp_path / "pred.tsv"
    assert main(["generate", "--algo", "acd", "--src", "aa", "--tgt", "ab", "--pivot", "ac",
                 "--manifest", str(manifest), "--out", str(pred), "--threshold", "0"]) == 0
    capsys.readouterr()

    g = build_graph(parse_dictionaries(parse_manifest(str(manifest))))
    report = evaluate(
        [(a, b) for a, b, _ in read_predictions(str(pred), "aa", "ab")],
        parse_dictionary(DictionarySpec(str(gold), "aa", "ab")),
        {lang: g.entries_of_lang(lang) for lang in g.languages},
    )
    assert 0 < report.bwr_denominator < report.gold  # the vocabulary matters
    expected = [f"{k}={v}" for k, v in report.as_dict().items()] + [f"warning={w}" for w in report.warnings]
    for src, tgt in (("aa", "ab"), ("AA", "AB")):
        code, out = run(capsys, "evaluate", "--pred", str(pred), "--gold", str(gold),
                        "--src", src, "--tgt", tgt, "--manifest", str(manifest))
        assert code == 0
        assert out.splitlines()[1:] == expected


def test_evaluate_manifest_rejects_malformed_dictionary(synth_dir, tmp_path, capsys):
    bad = synth_dir / "dict_ab-ac.tsv"
    lineno = len(read(bad).splitlines()) + 1
    with open(bad, "a", encoding="utf-8") as fh:
        fh.write("x\tn\ty\n")
    gold = str(synth_dir / "gold_aa-ab.tsv")
    code = main(["evaluate", "--pred", gold, "--gold", gold, "--src", "aa", "--tgt", "ab",
                 "--manifest", str(synth_dir / "manifest.tsv")])
    assert code == 2
    assert f"{bad}:{lineno}:" in capsys.readouterr().err


def _cli(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """Run the CLI in a child process; return (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lexinduce.__file__)))
    proc = subprocess.run([sys.executable, "-m", "lexinduce", *argv], stdout=stdout, stderr=stderr,
                          env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


OTIC = ["generate", "--algo", "otic", "--src", "aa", "--tgt", "ab", "--pivot", "ac"]


@pytest.mark.parametrize("bcc", [[], ["--bcc-filter"]], ids=["all-rows", "bcc-filter"])
def test_otic_file_equals_predict_on_every_row(tmp_path, capsys, bcc):
    from lexinduce import InferenceParams, build_graph, parse_dictionaries, parse_manifest, predict, write_predictions

    inst = _bridged_instance(tmp_path)
    manifest = str(inst / "manifest.tsv")
    cli, lib = tmp_path / "cli.tsv", tmp_path / "lib.tsv"
    capsys.readouterr()
    assert main([*OTIC, *bcc, "--manifest", manifest, "--out", str(cli)]) == 0
    rows = len(parse_manifest(manifest)) - (1 if bcc else 0)  # the filter drops the `ad-ae` bridge
    assert f"INFO read 2 of {rows} dictionaries" in capsys.readouterr().err.splitlines()
    g = build_graph(parse_dictionaries(parse_manifest(manifest)))
    scored = predict(g, "otic", "aa", "ab", InferenceParams(), pivot="ac")
    write_predictions(str(lib), [(p.source, p.target, p.confidence, p.provenance) for p in scored])
    assert len(read(cli).splitlines()) > 1
    assert read(cli) == read(lib)


@pytest.mark.parametrize("sweep", [[], ["--sweep", "0:1:0.1"]], ids=["summary", "sweep"])
def test_evaluate_report_equals_full_vocabulary_report(tmp_path, capsys, monkeypatch, sweep):
    inst = _bridged_instance(tmp_path)
    manifest, gold, pred = str(inst / "manifest.tsv"), str(inst / "gold_aa-ab.tsv"), str(tmp_path / "pred.tsv")
    assert main(["generate", "--algo", "acd", "--src", "aa", "--tgt", "ab", "--pivot", "ac",
                 "--manifest", manifest, "--out", pred, "--threshold", "0"]) == 0
    argv = ["evaluate", "--pred", pred, "--gold", gold, "--src", "aa", "--tgt", "ab", "--manifest", manifest, *sweep]
    outs = []
    for keep_all in (False, True):
        if keep_all:  # the parse of every row that BWR read before rows were selected
            select = lexinduce.dictio.select_dictionaries
            monkeypatch.setattr(lexinduce.dictio, "select_dictionaries", lambda specs, keep: select(specs, lambda s: True))
        capsys.readouterr()
        assert main(argv) == 0
        cap = capsys.readouterr()
        outs.append(cap.out)
        # of the 7 rows, only `ac-ad` and the `ad-ae` bridge name neither `aa` nor `ab`
        assert f"INFO read {7 if keep_all else 5} of 7 dictionaries" in cap.err.splitlines()
    assert outs[0] == outs[1]
    assert ("threshold\t" if sweep else "bwr_denominator=") in outs[0]


@pytest.mark.parametrize("damage", ["missing-row", "empty-file"])
def test_otic_without_a_pivot_dictionary_is_missing_pivot(tmp_path, damage):
    inst = _bridged_instance(tmp_path)
    manifest = inst / "manifest.tsv"
    if damage == "missing-row":
        # `aa` still appears in other rows, so it is a known language
        manifest.write_text("".join(r + "\n" for r in read(manifest).splitlines() if not r.startswith("aa\tac")), encoding="utf-8")
    else:
        (inst / "dict_aa-ac.tsv").write_text("# rep_a\tpos_a\trep_b\tpos_b\n", encoding="utf-8")
    code, _, err = _cli(*OTIC, "--manifest", str(manifest), "--out", str(tmp_path / "p.tsv"))
    assert code == 2
    assert b"lexinduce: MissingPivotDictionaries: need non-empty (aa,ac) and (ac,ab)" in err


@pytest.mark.parametrize("flags, error", [
    (["--algo", "otic", "--src", "zz", "--tgt", "ab", "--pivot", "ac"], b"UnknownLanguage: zz"),
    # `ae` is named only by the bridge row, which the filter drops
    (["--algo", "otic", "--src", "aa", "--tgt", "ab", "--pivot", "ae", "--bcc-filter"], b"UnknownLanguage: ae"),
    # without the filter the bridge row names `ae`, but no pivot dictionary joins it to `aa` or `ab`
    (["--algo", "otic", "--src", "aa", "--tgt", "ab", "--pivot", "ae"], b"MissingPivotDictionaries"),
    *[(["--algo", algo, "--src", "aa", "--tgt", "zz", "--pivot", "ac"], b"UnknownLanguage: zz")
      for algo in ("otic", "cd", "acd")],
    (["--algo", "cd", "--src", "zz", "--tgt", "ab"], b"UnknownLanguage: zz"),
    (["--algo", "acd", "--src", "zz", "--tgt", "ab", "--pivot", "ac"], b"UnknownLanguage: zz"),
    (["--algo", "acd", "--src", "aa", "--tgt", "ab", "--pivot", "ae", "--bcc-filter"], b"UnknownLanguage: ae"),
    (["--algo", "acd", "--src", "aa", "--tgt", "ab", "--pivot", "ae"], b"MissingPivotDictionaries"),
    # CD uses no pivot, so its `--pivot` is not checked
    (["--algo", "cd", "--src", "aa", "--tgt", "ab", "--pivot", "ae", "--bcc-filter"], None),
])
def test_otic_language_is_known_from_the_kept_rows(tmp_path, flags, error):
    """Every algorithm knows a language from the kept manifest rows alone,
    so an unknown one fails before any dictionary is opened: a byte that is
    not UTF-8 in the unrelated `ad-ae` dictionary is never reached."""
    inst = _bridged_instance(tmp_path)
    unknown = error is not None and error.startswith(b"UnknownLanguage")
    if unknown:
        with open(inst / "dict_ad-ae.tsv", "ab") as fh:
            fh.write(b"x\xff\tn\ty\tn\n")
    code, _, err = _cli("generate", *flags, "--manifest", str(inst / "manifest.tsv"), "--out", str(tmp_path / "p.tsv"))
    assert code == (0 if error is None else 2), err
    assert error is None or error in err
    if unknown:
        kept = [b"INFO bcc filter kept 6 dictionaries"] if "--bcc-filter" in flags else []
        assert [line for line in err.splitlines() if line.startswith(b"INFO")] == kept


def _damaged_run(tmp_path, command):
    """argv of `command` on a bridged instance; the `ad-ae` dictionary names none of aa, ab, ac."""
    inst = _bridged_instance(tmp_path)
    manifest = str(inst / "manifest.tsv")
    if command == "evaluate":
        gold = str(inst / "gold_aa-ab.tsv")
        argv = ["evaluate", "--pred", gold, "--gold", gold, "--src", "aa", "--tgt", "ab", "--manifest", manifest]
    else:
        argv = ["generate", "--algo", command, "--src", "aa", "--tgt", "ab", "--pivot", "ac",
                "--manifest", manifest, "--out", str(tmp_path / "p.tsv")]
    return argv, inst / "dict_ad-ae.tsv"


@pytest.mark.parametrize("command", ["otic", "cd", "acd", "evaluate"])
def test_missing_unrelated_dictionary_is_input_error(tmp_path, command):
    argv, unrelated = _damaged_run(tmp_path, command)
    unrelated.unlink()
    code, _, err = _cli(*argv)
    assert code == 2
    assert f"lexinduce: MissingFile: {unrelated}".encode() in err


@pytest.mark.parametrize("command", ["otic", "acd", "evaluate"])
def test_manifest_row_with_empty_path_fails_on_its_line(tmp_path, capsys, command):
    argv, _ = _damaged_run(tmp_path, command)
    manifest = tmp_path / "inst" / "manifest.tsv"
    lineno = len(read(manifest).splitlines()) + 1
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("ab\tad\t\n")
    assert main(argv) == 2
    assert f"lexinduce: MalformedLine: {manifest}:{lineno}: empty dictionary path" in capsys.readouterr().err


# `aa-ac` is read by every command here; `ad-ae` only by acd.
@pytest.mark.parametrize("name", ["dict_aa-ac.tsv", "dict_ad-ae.tsv"])
@pytest.mark.parametrize("command", ["otic", "acd", "evaluate"])
def test_manifest_path_naming_a_directory_is_missing_file(tmp_path, capsys, command, name):
    argv, _ = _damaged_run(tmp_path, command)
    listed = tmp_path / "inst" / name
    listed.unlink()
    listed.mkdir()
    assert main(argv) == 2
    assert f"lexinduce: MissingFile: {listed}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command, code", [("otic", 0), ("evaluate", 0), ("cd", 2), ("acd", 2)])
def test_malformed_unrelated_dictionary_fails_only_where_it_is_read(tmp_path, command, code):
    argv, unrelated = _damaged_run(tmp_path, command)
    lineno = len(read(unrelated).splitlines()) + 1
    with open(unrelated, "a", encoding="utf-8") as fh:
        fh.write("x\tn\ty\n")
    got, _, err = _cli(*argv)
    assert got == code
    assert (f"{unrelated}:{lineno}: expected 4 columns".encode() in err) is (code == 2)


def test_evaluate_into_a_closed_pipe_keeps_the_report(tmp_path):
    inst = _bridged_instance(tmp_path)
    gold = str(inst / "gold_aa-ab.tsv")
    argv = ["evaluate", "--pred", gold, "--gold", gold, "--src", "aa", "--tgt", "ab", "--sweep", "0:1:0.001"]
    code, out, _ = _cli(*argv, "--report", str(tmp_path / "open.txt"))
    assert code == 0 and len(out.splitlines()) == 1002

    # The reader is gone before the first write, as after `| head -1` has read its line.
    read_end, write_end = os.pipe()
    os.close(read_end)
    report = tmp_path / "closed.txt"
    try:
        code, _, err = _cli(*argv, "--report", str(report), stdout=write_end)
    finally:
        os.close(write_end)
    assert code == 0
    assert err == b""
    assert report.read_bytes() == out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_evaluate_into_a_full_stdout_is_input_error_and_keeps_the_report(tmp_path, monkeypatch):
    # Buffered stdout, as by default: the interpreter flushes it once more at exit.
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    inst = _bridged_instance(tmp_path)
    gold = str(inst / "gold_aa-ab.tsv")
    argv = ["evaluate", "--pred", gold, "--gold", gold, "--src", "aa", "--tgt", "ab", "--sweep", "0:1:0.1"]
    code, out, _ = _cli(*argv)
    assert code == 0
    report = tmp_path / "report.txt"
    with open("/dev/full", "wb") as full:
        code, _, err = _cli(*argv, "--report", str(report), stdout=full)
    assert code == 2
    assert [line for line in err.splitlines() if line.startswith(b"lexinduce: ")] == [
        b"lexinduce: OSError: [Errno 28] No space left on device"
    ]
    assert b"Exception ignored" not in err
    assert report.read_bytes() == out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_stderr_exits_0_with_the_same_outputs(tmp_path, monkeypatch):
    # Buffered stderr, as by default: the interpreter flushes it once more at exit.
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    inst = _bridged_instance(tmp_path)
    manifest, gold = str(inst / "manifest.tsv"), str(inst / "gold_aa-ab.tsv")
    outputs = {}
    with open("/dev/full", "wb") as full:
        for name, stderr in (("pipe", subprocess.PIPE), ("full", full)):
            pred, report = tmp_path / f"{name}.tsv", tmp_path / f"{name}.txt"
            code, _, _ = _cli("generate", "--algo", "cd", "--src", "aa", "--tgt", "ab", "--manifest", manifest,
                              "--out", str(pred), stderr=stderr)
            assert code == 0
            code, out, _ = _cli("evaluate", "--pred", str(pred), "--gold", gold, "--src", "aa", "--tgt", "ab",
                                "--manifest", manifest, "--report", str(report), stderr=stderr)
            assert code == 0
            outputs[name] = (pred.read_bytes(), report.read_bytes(), out)
        # An error keeps its own exit status: usage (argparse's and ours) 1, input 2.
        for code, argv in ((1, ["generate", "--algo", "cd"]),
                           (1, ["generate", "--algo", "zz", "--src", "aa", "--tgt", "ab", "--manifest", manifest,
                                "--out", str(tmp_path / "zz.tsv")]),
                           (2, ["generate", "--algo", "cd", "--src", "aa", "--tgt", "ab",
                                "--manifest", str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "m.tsv")])):
            assert _cli(*argv, stderr=full)[0] == code, argv
    assert outputs["full"] == outputs["pipe"]


# Each state of the standard streams a run may start in, as a shell redirection.
# `broken-pipe` is a stdout pipe whose reader is gone before the first write.
STREAM_STATES = {
    "stdout-closed": ">&-",
    "stderr-closed": "2>&-",
    "both-closed": ">&- 2>&-",
    "stdout-full": ">/dev/full",
    "stderr-full": "2>/dev/full",
    "broken-pipe": "",
}
STREAM_COMMANDS = ("generate", "evaluate", "evaluate-sweep", "synth", "usage-error", "help", "generate-help")
# The commands that print to stdout, for which a full stdout is an error.
PRINTING = ("evaluate", "evaluate-sweep", "help", "generate-help")


def _stream_argv(command, inst, out):
    """argv of `command` on the instance `inst`, writing every file it makes under `out`."""
    manifest = str(inst / "manifest.tsv")
    evaluate = ["evaluate", "--pred", str(inst / "pred.tsv"), "--gold", str(inst / "gold_aa-ab.tsv"), "--src", "aa",
                "--tgt", "ab", "--manifest", manifest, "--report", str(out / "report.txt")]
    return {
        "generate": ["generate", "--algo", "acd", "--src", "aa", "--tgt", "ab", "--pivot", "ac",
                     "--manifest", manifest, "--out", str(out / "pred.tsv")],
        "evaluate": evaluate,
        "evaluate-sweep": [*evaluate, "--sweep", "0:1:0.1"],
        "synth": ["synth", "--out-dir", str(out / "synth"), "--langs", "4", "--senses", "40", "--seed", "3"],
        "usage-error": ["generate", "--algo", "cd"],
        "help": ["--help"],
        "generate-help": ["generate", "--help"],
    }[command]


def _files(root):
    """Every file under `root`, as {relative path: bytes}."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _run_in_state(state, argv):
    """Run the CLI in a child whose streams start in `state`; return (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lexinduce.__file__)))
    env.pop("PYTHONUNBUFFERED", None)  # buffered, as by default: the interpreter flushes once more at exit
    shell = ["sh", "-c", f'exec "$@" {STREAM_STATES[state]}', "sh", sys.executable, "-m", "lexinduce", *argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        stdout = write_end if state == "broken-pipe" else subprocess.PIPE
        proc = subprocess.run(shell, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def stream_runs(tmp_path_factory):
    """A 4-language instance with a prediction file, and each command's run with both streams on pipes."""
    inst = tmp_path_factory.mktemp("streams") / "inst"
    assert main(["synth", "--out-dir", str(inst), "--langs", "4", "--senses", "40", "--polysemy", "0.2",
                 "--edge-prob", "0.7", "--seed", "5"]) == 0
    assert main(["generate", "--algo", "acd", "--src", "aa", "--tgt", "ab", "--pivot", "ac",
                 "--manifest", str(inst / "manifest.tsv"), "--out", str(inst / "pred.tsv")]) == 0
    normal = {}
    for command in STREAM_COMMANDS:
        out = inst.parent / f"normal-{command}"
        out.mkdir()
        code, stdout, _ = _cli(*_stream_argv(command, inst, out))
        normal[command] = code, stdout, _files(out)
    return inst, normal


@pytest.mark.parametrize("state", sorted(STREAM_STATES))
@pytest.mark.parametrize("command", STREAM_COMMANDS)
def test_every_command_in_every_stream_state(stream_runs, tmp_path, command, state):
    if "/dev/full" in STREAM_STATES[state] and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    inst, normal = stream_runs
    normal_code, normal_out, normal_files = normal[command]
    code, out, err = _run_in_state(state, _stream_argv(command, inst, tmp_path))
    assert normal_code == (1 if command == "usage-error" else 0)
    # Only a full stdout is an error, and only for a command that prints.
    assert code == (2 if state == "stdout-full" and command in PRINTING else normal_code)
    assert b"Exception ignored" not in err
    if command.endswith("help") and not state.startswith("stderr"):
        assert err == (b"lexinduce: OSError: [Errno 28] No space left on device\n" if state == "stdout-full" else b"")
    assert _files(tmp_path) == normal_files
    if state.startswith("stderr"):  # stdout is the pipe the normal run had
        assert out == normal_out


@pytest.mark.parametrize("sweep, labels", [
    ("0:1:0.1", [f"{i / 10:.2f}" for i in range(11)]),
    ("0:0.01:0.002", ["0.000", "0.002", "0.004", "0.006", "0.008", "0.010"]),
    ("0.0005:0.003:0.001", ["0.0005", "0.0015", "0.0025"]),
    ("1:3:1", ["1.00", "2.00", "3.00"]),
])
def test_sweep_threshold_labels_are_distinct(tmp_path, capsys, sweep, labels):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("chien\tn\tdog\tn\n", encoding="utf-8")
    code, out = run(capsys, "evaluate", "--pred", str(pairs), "--gold", str(pairs), "--src", "fr", "--tgt", "en",
                    "--sweep", sweep)
    assert code == 0
    got = [line.split("\t")[0] for line in out.splitlines()[1:]]
    assert got == labels
    assert len(set(got)) == len(got)
