"""Reading and writing dictionary, manifest, and prediction files.

Dictionary files are UTF-8 TSV with 4 columns per line: rep_a, pos_a,
rep_b, pos_b. Blank lines and lines starting with `#` are skipped, and a
leading UTF-8 byte order mark is dropped. The two languages are supplied
out of band (manifest row or CLI flag).
"""
from __future__ import annotations

import math
import os
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import chain

from .entries import LexicalEntry, Validated, lang_code, make_entry
from .errors import InvalidSpec, MalformedLine, MissingFile

Pair = tuple[LexicalEntry, LexicalEntry]

# The sixth column of a prediction file, in merge preference: on equal
# confidence the more specific provenance wins.
PROVENANCES = ("type_b", "type_a", "transitive", "cycle")


class DictionarySpec(Validated, namedtuple("DictionarySpec", "path lang_a lang_b")):
    __slots__ = ()

    def __new__(cls, path: str, lang_a: str, lang_b: str):
        if lang_a == lang_b:
            raise InvalidSpec(f"identical languages in {path}: {lang_a}")
        return tuple.__new__(cls, (path, lang_a, lang_b))


def _data_lines(path):
    """Yield `(lineno, line)` for each data line of a UTF-8 text file.

    The file is read in one call and closed before the first line is
    yielded. Universal newlines make CR and CRLF ends read as LF, and a
    leading byte order mark is dropped; a file that holds only part of
    one is not UTF-8. A byte that is not UTF-8 raises `MalformedLine` at
    its line, counted as the lines are: CR, LF and CRLF each end one.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise MissingFile(str(path)) from None
    except UnicodeDecodeError as exc:
        before = exc.object[: exc.start]
        lineno = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise MalformedLine(path, lineno, f"invalid UTF-8: byte 0x{exc.object[exc.start]:02x}") from None
    for lineno, line in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        head = line.lstrip()
        if head and head[0] != "#":
            yield lineno, line


def _rows(path, least: int, most: int | None = None):
    """Yield `(lineno, fields)` for each data line of a TSV file.

    A line must have `least` tab-separated fields, or between `least` and
    `most`; any other count raises `MalformedLine` at its line.
    """
    most = most or least
    for lineno, line in _data_lines(path):
        cols = line.split("\t")
        if not least <= len(cols) <= most:
            span = least if most == least else f"{least}-{most}"
            raise MalformedLine(path, lineno, f"expected {span} columns, got {len(cols)}")
        yield lineno, cols


def read_dictionaries(specs: Iterable[DictionarySpec]) -> Iterator[list[Pair]]:
    """Yield each dictionary file's entry pairs, deduplicated, as one list.

    A file's list comes as soon as that file is read, in spec order, its
    pairs in line order, so a caller that chains the lists never holds the
    whole input at once. Entries are built through one cache, keyed by
    the raw `(lang, rep, pos)` field text and kept while the generator
    lives, so each distinct raw entry is normalized and validated once.
    Duplicate pairs are still found on the normalized entries.
    """
    cache: dict[tuple[str, str, str], LexicalEntry] = {}
    cached = cache.get
    for spec in specs:
        lang_a, lang_b = spec.lang_a, spec.lang_b
        pairs: dict[Pair, None] = {}  # insertion-ordered, so one hash per pair dedupes it
        for lineno, (rep_a, pos_a, rep_b, pos_b) in _rows(spec.path, 4):
            key_a, key_b = (lang_a, rep_a, pos_a), (lang_b, rep_b, pos_b)
            a, b = cached(key_a), cached(key_b)
            if a is None or b is None:
                try:
                    if a is None:
                        a = cache[key_a] = make_entry(rep_a, lang_a, pos_a)
                    if b is None:
                        b = cache[key_b] = make_entry(rep_b, lang_b, pos_b)
                except ValueError as exc:
                    raise MalformedLine(spec.path, lineno, str(exc)) from None
            pairs[a, b] = None
        yield list(pairs)


def parse_dictionaries(specs: Iterable[DictionarySpec]) -> list[Pair]:
    """Load bilingual dictionary files as entry pairs, deduplicated per file.

    The pairs of `read_dictionaries(specs)`, in one list.
    """
    return list(chain.from_iterable(read_dictionaries(specs)))


def select_dictionaries(specs: list[DictionarySpec], keep: Callable[[DictionarySpec], bool]) -> list[DictionarySpec]:
    """The specs that `keep` accepts, in order, once every listed path exists.

    Only existence is checked for the specs left out: a missing file, or
    a path that names a directory, raises `MissingFile` whichever rows
    are kept, but a spec that is not kept is never opened or parsed.
    """
    for spec in specs:
        if not os.path.exists(spec.path) or os.path.isdir(spec.path):
            raise MissingFile(spec.path)
    return [spec for spec in specs if keep(spec)]


def parse_dictionary(spec: DictionarySpec) -> list[Pair]:
    """Load one bilingual dictionary file as deduplicated entry pairs."""
    return parse_dictionaries((spec,))


def parse_manifest(path) -> list[DictionarySpec]:
    """Manifest: one dictionary per line, `lang_a<TAB>lang_b<TAB>path`.

    Relative dictionary paths are resolved against the manifest's directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    specs = []
    for lineno, (lang_a, lang_b, dict_path) in _rows(path, 3):
        try:
            lang_a, lang_b = lang_code(lang_a), lang_code(lang_b)
        except ValueError as exc:
            raise MalformedLine(path, lineno, str(exc)) from None
        if lang_a == lang_b:
            raise MalformedLine(path, lineno, f"both languages are {lang_a!r}")
        if not dict_path:
            raise MalformedLine(path, lineno, "empty dictionary path")
        if "\0" in dict_path:
            raise MalformedLine(path, lineno, "NUL byte in the dictionary path")
        if not os.path.isabs(dict_path):
            dict_path = os.path.join(base, dict_path)
        specs.append(DictionarySpec(dict_path, lang_a, lang_b))
    return specs


def write_dictionary(path, pairs: Iterable[Pair]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# rep_a\tpos_a\trep_b\tpos_b\n")
        for a, b in pairs:
            fh.write(f"{a.rep}\t{a.pos}\t{b.rep}\t{b.pos}\n")


def format_confidence(value: float) -> str:
    """Render a confidence as a 4-place decimal with half-even rounding."""
    from decimal import ROUND_HALF_EVEN, Decimal  # only writing predictions needs it

    return str(Decimal(repr(value)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN))


def write_predictions(path, rows: Iterable[tuple[LexicalEntry, LexicalEntry, float, str]]) -> None:
    """Prediction TSV: rep_a, pos_a, rep_b, pos_b, confidence, provenance.

    Rows are sorted by source rep, source pos, descending confidence,
    target rep, so repeated runs produce byte-identical files.
    """
    ordered = sorted(rows, key=lambda r: (r[0].rep, r[0].pos, -r[2], r[1].rep, r[1].pos, r[3]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# rep_a\tpos_a\trep_b\tpos_b\tconfidence\tprovenance\n")
        for a, b, conf, prov in ordered:
            fh.write(f"{a.rep}\t{a.pos}\t{b.rep}\t{b.pos}\t{format_confidence(conf)}\t{prov}\n")


def read_predictions(path, lang_a: str, lang_b: str) -> list[tuple[LexicalEntry, LexicalEntry, float]]:
    """Load a prediction TSV.

    Confidence and provenance columns are optional; a plain 4-column
    dictionary file reads as predictions at confidence 1. A confidence
    must be a number in [0, 1], and a provenance one of `PROVENANCES`.
    """
    out = []
    for lineno, cols in _rows(path, 4, 6):
        if len(cols) == 4:
            conf = 1.0
        else:
            try:
                conf = float(cols[4])
            except ValueError:
                conf = math.nan
            if not 0.0 <= conf <= 1.0:
                raise MalformedLine(path, lineno, f"bad confidence: {cols[4]!r}")
            if len(cols) == 6 and cols[5] not in PROVENANCES:
                raise MalformedLine(path, lineno, f"bad provenance: {cols[5]!r}")
        try:
            out.append((make_entry(cols[0], lang_a, cols[1]), make_entry(cols[2], lang_b, cols[3]), conf))
        except ValueError as exc:
            raise MalformedLine(path, lineno, str(exc)) from None
    return out
