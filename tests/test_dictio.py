import gc
import re
import sys
import tracemalloc
from itertools import chain

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lexinduce import (
    DictionarySpec,
    InvalidSpec,
    LexicalEntry,
    LexinduceError,
    MalformedLine,
    MissingFile,
    build_graph,
    parse_dictionaries,
    parse_dictionary,
    parse_manifest,
    read_dictionaries,
    read_predictions,
    write_predictions,
)
from lexinduce.cli import load_config, main


def write(tmp_path, name, text):
    """Write `text` to `tmp_path / name`, as UTF-8 if it is a str, and return the path."""
    p = tmp_path / name
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text, encoding="utf-8")
    return str(p)


def test_parse_basic(tmp_path):
    path = write(tmp_path, "d.tsv", "chien\tn\tdog\tn\n")
    pairs = parse_dictionary(DictionarySpec(path, "fr", "en"))
    assert pairs == [(LexicalEntry("chien", "fr", "n"), LexicalEntry("dog", "en", "n"))]


def test_parse_dedup_and_skip_comments(tmp_path):
    path = write(tmp_path, "d.tsv", "# header\n\nchien\tn\tdog\tn\nchien\tn\tdog\tn\n")
    assert len(parse_dictionary(DictionarySpec(path, "fr", "en"))) == 1


def test_parse_wrong_arity(tmp_path):
    path = write(tmp_path, "d.tsv", "chien\tn\tdog\n")
    with pytest.raises(MalformedLine) as exc:
        parse_dictionary(DictionarySpec(path, "fr", "en"))
    assert exc.value.lineno == 1


def test_parse_empty_field(tmp_path):
    path = write(tmp_path, "d.tsv", "chien\t\tdog\tn\n")
    with pytest.raises(MalformedLine):
        parse_dictionary(DictionarySpec(path, "fr", "en"))


def test_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        parse_dictionary(DictionarySpec(str(tmp_path / "nope.tsv"), "fr", "en"))


def test_identical_langs_rejected(tmp_path):
    with pytest.raises(InvalidSpec):
        DictionarySpec("x.tsv", "fr", "fr")


def test_manifest_row_naming_one_language_twice_fails_on_its_line(tmp_path):
    manifest = write(tmp_path, "manifest.tsv", "fr\ten\td1.tsv\naa\tAA\td2.tsv\n")
    with pytest.raises(MalformedLine) as exc:
        parse_manifest(manifest)
    assert (exc.value.path, exc.value.lineno) == (manifest, 2)


def test_leading_bom_dropped(tmp_path):
    bom = "\ufeff"
    path = write(tmp_path, "d.tsv", bom + "# rep_a\tpos_a\trep_b\tpos_b\nchien\tn\tdog\tn\n")
    pairs = parse_dictionary(DictionarySpec(path, "fr", "en"))
    assert pairs == [(LexicalEntry("chien", "fr", "n"), LexicalEntry("dog", "en", "n"))]
    mpath = write(tmp_path, "m.tsv", bom + "fr\ten\td.tsv\n")
    (spec,) = parse_manifest(mpath)
    assert (spec.lang_a, spec.lang_b) == ("fr", "en")


def test_manifest_relative_paths(tmp_path):
    write(tmp_path, "d.tsv", "chien\tn\tdog\tn\n")
    mpath = write(tmp_path, "m.tsv", "fr\ten\td.tsv\n")
    (spec,) = parse_manifest(mpath)
    assert spec.lang_a == "fr" and spec.lang_b == "en"
    assert parse_dictionary(spec)


def test_prediction_roundtrip_and_sorting(tmp_path):
    a1 = LexicalEntry("apple", "en", "n")
    a2 = LexicalEntry("banana", "en", "n")
    b1 = LexicalEntry("poma", "ca", "n")
    b2 = LexicalEntry("fruita", "ca", "n")
    rows = [(a2, b1, 0.5, "cycle"), (a1, b1, 0.25, "cycle"), (a1, b2, 1.0, "type_b")]
    path = str(tmp_path / "pred.tsv")
    write_predictions(path, rows)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("#")
    # sorted by source rep, then descending confidence
    assert lines[1].split("\t")[:2] == ["apple", "n"] and lines[1].split("\t")[4] == "1.0000"
    assert lines[2].split("\t")[4] == "0.2500"
    back = read_predictions(path, "en", "ca")
    assert {(a, b) for a, b, _ in back} == {(a, b) for a, b, _, _ in rows}


def test_read_predictions_accepts_plain_dictionary(tmp_path):
    path = write(tmp_path, "d.tsv", "chien\tn\tdog\tn\n")
    ((a, b, conf),) = read_predictions(path, "fr", "en")
    assert conf == 1.0 and a.rep == "chien"


@pytest.mark.parametrize("conf", ["nan", "inf", "-inf", "7.5", "-2", "1.0001"])
def test_read_predictions_rejects_confidence_outside_unit_interval(tmp_path, conf):
    path = write(tmp_path, "p.tsv", f"chat\tn\tcat\tn\t0.5\tcycle\nchien\tn\tdog\tn\t{conf}\tcycle\n")
    with pytest.raises(MalformedLine) as exc:
        read_predictions(path, "fr", "en")
    assert exc.value.lineno == 2


@pytest.mark.parametrize("text,expected", [
    ("a\rb\r\rc", [(1, "a"), (2, "b"), (4, "c")]),
    ("a\nb", [(1, "a"), (2, "b")]),
    ("a\n \t \n\t\nb\n", [(1, "a"), (4, "b")]),
    ("  # note\na\n\t#x\tn\nb # not a comment\n", [(2, "a"), (4, "b # not a comment")]),
    ("\ufeff# header\r\na\r\n\r\nb\r\n", [(2, "a"), (4, "b")]),
])
def test_data_line_numbers(tmp_path, text, expected):
    from lexinduce.dictio import _data_lines

    path = tmp_path / "d.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert list(_data_lines(str(path))) == expected


@pytest.mark.parametrize("line", ["chi\x00en\tn\tdog\tn", "chien\tn\tdog\tn\x00"])
def test_nul_byte_rejected(tmp_path, line):
    path = write(tmp_path, "d.tsv", f"chat\tn\tcat\tn\n{line}\n")
    with pytest.raises(MalformedLine) as exc:
        parse_dictionary(DictionarySpec(path, "fr", "en"))
    assert exc.value.lineno == 2


def test_crlf_parses_like_lf(tmp_path):
    text = "# rep_a\tpos_a\trep_b\tpos_b\nchien\tn\tdog\tn\n\nchat\tn\tcat\tn\n"
    lf = write(tmp_path, "lf.tsv", text)
    crlf = tmp_path / "crlf.tsv"
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    pairs = parse_dictionary(DictionarySpec(lf, "fr", "en"))
    assert len(pairs) == 2
    assert parse_dictionary(DictionarySpec(str(crlf), "fr", "en")) == pairs


def test_whitespace_and_nfc_variants_collapse(tmp_path):
    # precomposed, decomposed (e + combining acute) and padded forms of one pair
    lines = ["caf\u00e9\tn\tcoffee\tn", " cafe\u0301 \tn\tcoffee\t n", "caf\u00e9 \t n\t coffee\tn"]
    path = write(tmp_path, "d.tsv", "\n".join(lines) + "\n")
    pairs = parse_dictionary(DictionarySpec(path, "fr", "en"))
    assert pairs == [(LexicalEntry("caf\u00e9", "fr", "n"), LexicalEntry("coffee", "en", "n"))]


@pytest.mark.parametrize("bad", ["chien\tn\t\tn", "\tn\tdog\tn", "chien\tn\tdog\t\x00"])
def test_bad_field_beside_cached_entry_reports_its_line(tmp_path, bad):
    path = write(tmp_path, "d.tsv", f"chien\tn\tdog\tn\n# comment\n{bad}\n")
    with pytest.raises(MalformedLine) as exc:
        parse_dictionary(DictionarySpec(path, "fr", "en"))
    assert exc.value.lineno == 3
    assert str(exc.value).startswith(f"{path}:3:")


def test_parse_dictionaries_builds_each_raw_entry_once(tmp_path, monkeypatch):
    import lexinduce.dictio as dictio

    fr_en = write(tmp_path, "fr-en.tsv", "chien\tn\tdog\tn\nchien\tn\thound\tn\nchien\tn\tdog\tn\n chien\tn\tdog\tn\n")
    en_de = write(tmp_path, "en-de.tsv", "dog\tn\tHund\tn\nhound\tn\tHund\tn\ndog\tv\tjagen\tv\n")
    specs = [DictionarySpec(fr_en, "fr", "en"), DictionarySpec(en_de, "en", "de")]
    calls = []
    real = dictio.make_entry

    def counting(rep, lang, pos):
        calls.append((lang, rep, pos))
        return real(rep, lang, pos)

    monkeypatch.setattr(dictio, "make_entry", counting)
    pairs = dictio.parse_dictionaries(specs)
    raw = {("fr", "chien", "n"), ("fr", " chien", "n"), ("en", "dog", "n"), ("en", "hound", "n"),
           ("de", "Hund", "n"), ("en", "dog", "v"), ("de", "jagen", "v")}
    assert sorted(calls) == sorted(raw)
    assert pairs == [p for spec in specs for p in parse_dictionary(spec)]
    assert len(pairs) == 2 + 3


def _read_pred(path):
    return read_predictions(path, "fr", "en")


def _read_dict(path):
    return parse_dictionary(DictionarySpec(path, "fr", "en"))


@pytest.mark.parametrize("read, text, lineno", [
    (_read_pred, "chien\tn\tdog\tn\t0.5\tcycle\nchat\tn\tcat\n", 2),
    (_read_pred, "chien\tn\tdog\tn\t0.5\tcycle\tx\n", 1),
    (_read_pred, "chien\tn\tdog\tn\tabc\n", 1),
    (_read_pred, "chien\tn\tdog\tn\tnan\n", 1),
    (_read_pred, "chien\tn\tdog\tn\tinf\n", 1),
    (_read_pred, "# header\nchien\tn\tdog\tn\t-0.1\n", 2),
    (_read_pred, "chien\tn\tdog\tn\t1.5\n", 1),
    (_read_pred, "chien\tn\tdog\tn\n\tn\tcat\tn\t0.5\n", 2),
    (_read_pred, "chien\tn\tdog\tn\t0.5\tcycle\nchat\tn\tcat\tn\t0.5\tbogus\n", 2),
    (parse_manifest, "fr\ten\td.tsv\ne1\ten\td.tsv\n", 2),
    (parse_manifest, "english\tfr\td.tsv\n", 1),
    (parse_manifest, "fr\ten\td.tsv\nfr\td.tsv\n", 2),
    (parse_manifest, "fr\ten\td.tsv\tx\n", 1),
    (load_config, "# settings\nalgo=cd\nmin_len 4\n", 3),
    (load_config, "algo=acd\npivot=english\n", 2),
    (load_config, "# settings\nalgo=xyz\n", 2),
    (load_config, "threshold=0.9\nthreshold=0.1\n", 2),
    (load_config, "threshold=0.5\nthreshold=2\n", 2),
    (load_config, "algo=cd\ntransitive_depth=0\n", 2),
    (load_config, "max_len=5\nthreshold=0.5\nmin_len=6\n", 3),
    (_read_dict, b"chien\tn\tdog\tn\nchat\tn\tc\xfft\tn\n", 2),
    (parse_manifest, b"fr\ten\td.tsv\nfr\ten\t\xff.tsv\n", 2),
    (load_config, b"algo=cd\n# \xff\n", 2),
    (_read_pred, b"chien\tn\tdog\tn\t0.5\nchat\tn\tc\xfft\tn\t0.5\n", 2),
    (_read_dict, b"chien\tn\tdog\tn\r\n# c\r\nchat\tn\tc\xfft\tn\r\n", 3),
    (_read_dict, b"chien\tn\tdog\tn\r# c\rchat\tn\tc\xfft\tn\r", 3),
    (_read_dict, b"\xef\xbb\xbfchien\tn\tdog\tn\n\nchat\tn\tc\xfft\tn\n", 3),
    (_read_dict, b"\xef", 1),
    (_read_dict, b"\xef\xbb", 1),
], ids=["3-columns", "7-columns", "confidence-abc", "confidence-nan", "confidence-inf", "confidence-below-0",
        "confidence-above-1", "empty-rep", "provenance-bogus", "manifest-e1", "manifest-english", "manifest-2-columns",
        "manifest-4-columns", "config-without-equals", "config-pivot-english", "config-algo-xyz", "config-key-twice",
        "config-key-twice-out-of-range", "config-transitive-depth-0", "config-max-below-min", "utf8-dictionary",
        "utf8-manifest", "utf8-config", "utf8-predictions", "utf8-crlf", "utf8-lone-cr", "utf8-bom",
        "utf8-bom-first-byte", "utf8-bom-first-two-bytes"])
def test_malformed_input_line_names_its_file_and_line(tmp_path, read, text, lineno):
    path = write(tmp_path, "input.tsv", text)
    with pytest.raises(MalformedLine) as exc:
        read(path)
    assert (exc.value.path, exc.value.lineno) == (path, lineno)


def _read_manifest_dictionaries(path):
    return parse_dictionaries(parse_manifest(path))


# What fuzzed input files are made of: the bytes that end lines, split
# fields, start comments, start a BOM or are not UTF-8, a decomposed `é`,
# and words that the readers take as fields, keys or values.
FUZZ_PIECES = [b"\t", b"\r", b"\n", b"\x00", b"#", b"=", b" ", b"\xef", b"\xbb", b"\xbf", b"\xff", b"e\xcc\x81",
               b"fr", b"en", b"n", b"chien", b"0.5", b"cycle", b"d.tsv", b"algo", b"cd", b"min_len", b"7"]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.lists(st.sampled_from(FUZZ_PIECES), max_size=16).map(b"".join))
@example(data=b"\xef")
@example(data=b"\xef\xbb")
@example(data=b"fr\ten\td\x00.tsv")
def test_fuzzed_input_reads_or_fails_at_its_line(tmp_path, data):
    """Each reader takes a file in, or fails at one of its lines; bytes that
    are not UTF-8 never read, and fail at the line of the first bad byte."""
    write(tmp_path, "d.tsv", "chien\tn\tdog\tn\n")  # the dictionary a manifest row may name
    path = write(tmp_path, "input.tsv", data)
    try:
        data.decode("utf-8")
        bad_line = None
    except UnicodeDecodeError as exc:
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        bad_line = head.count(b"\n") + 1
    lines = len(data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n"))
    for read in (_read_dict, _read_manifest_dictionaries, _read_pred, load_config):
        try:
            read(path)
        except MissingFile:
            assert read is _read_manifest_dictionaries and bad_line is None
            continue
        except LexinduceError as exc:
            match = re.match(re.escape(path) + r":(\d+): ", str(exc))
            assert match and 1 <= int(match[1]) <= lines, str(exc)
            if bad_line is not None:
                assert exc.lineno == bad_line and exc.reason.startswith("invalid UTF-8"), str(exc)
            continue
        assert bad_line is None, f"{read.__name__} took in {data!r}"


def _synth_specs(tmp_path, seed, langs, edge_prob):
    """The dictionary specs of a 100-sense synth instance written under `tmp_path`."""
    out = tmp_path / f"inst{seed}"
    assert main(["synth", "--out-dir", str(out), "--langs", str(langs), "--senses", "100", "--polysemy", "0.1",
                 "--edge-prob", str(edge_prob), "--seed", str(seed)]) == 0
    return parse_manifest(str(out / "manifest.tsv"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_streamed_pairs_and_graph_equal_the_pair_list(tmp_path, seed):
    specs = _synth_specs(tmp_path, seed, 5, 0.6)
    for spec in specs:  # list every pair twice, so each file has duplicates to drop
        with open(spec.path, encoding="utf-8") as fh:
            text = fh.read()
        with open(spec.path, "w", encoding="utf-8") as fh:
            fh.write(text + text)
    pairs = parse_dictionaries(specs)
    assert len(set(pairs)) == len(pairs) > 0
    assert pairs == list(chain.from_iterable(read_dictionaries(specs)))
    listed = build_graph(pairs)
    streamed = build_graph(chain.from_iterable(read_dictionaries(specs)))
    assert streamed.vertices == listed.vertices
    assert [list(streamed.adj(v)) for v in range(streamed.vertex_count)] == \
        [list(listed.adj(v)) for v in range(listed.vertex_count)]
    assert streamed.edge_count == listed.edge_count


def test_entries_of_one_manifest_row_share_its_language_codes(tmp_path):
    specs = _synth_specs(tmp_path, 1, 5, 0.6)
    graph = build_graph(chain.from_iterable(read_dictionaries(specs)))
    assert graph.vertex_count > 2 * len(specs)
    assert len({id(v.lang) for v in graph.vertices}) <= 2 * len(specs)


def test_read_dictionaries_yields_each_file_as_it_is_read(tmp_path):
    first = write(tmp_path, "fr-en.tsv", "chien\tn\tdog\tn\nchien\tn\tdog\tn\n")
    files = read_dictionaries([DictionarySpec(first, "fr", "en"), DictionarySpec(str(tmp_path / "gone.tsv"), "en", "de")])
    assert next(files) == [(LexicalEntry("chien", "fr", "n"), LexicalEntry("dog", "en", "n"))]
    with pytest.raises(MissingFile):
        next(files)


def test_streamed_build_peaks_below_the_list_build(tmp_path):
    # The benchmark's acd-13lang shape at a tenth of its senses: 78
    # dictionaries, none of them a large share of the input.
    specs = _synth_specs(tmp_path, 4, 13, 0.3)

    def peak(build):
        gc.collect()
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    pairs = parse_dictionaries(specs)  # also warms every cache the builds below touch
    held = sys.getsizeof(pairs) + sum(map(sys.getsizeof, pairs))
    del pairs
    listed = peak(lambda: build_graph(parse_dictionaries(specs)))
    streamed = peak(lambda: build_graph(chain.from_iterable(read_dictionaries(specs))))
    assert listed - streamed >= held / 2
