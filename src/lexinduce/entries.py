"""Lexical entries: the vertices of a translation graph.

An entry is the triple (written form, language code, part-of-speech tag).
Written forms are normalized with NFC and surrounding whitespace is
stripped; case is preserved because proper nouns are a supported POS.
POS tags are opaque tokens, no tagset is enforced. Empty fields and NUL
bytes are rejected.
"""
from __future__ import annotations

import re
import unicodedata
from collections import namedtuple

LANG_RE = re.compile(r"[a-z]{2,3}\Z")


class Validated:
    """Base for a `namedtuple` subclass whose `__new__` validates its fields.

    namedtuple's own `_make`, which `_replace` calls, skips `__new__`;
    this one goes through it, so every constructor validates. List it
    before the namedtuple base.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class LexicalEntry(Validated, namedtuple("LexicalEntry", "rep lang pos")):
    """An immutable, validated `(rep, lang, pos)` tuple.

    Hashing, equality and ordering are the tuple's own, done in C: an
    entry sorts by rep, then lang, then POS, and equals the plain tuple
    `(rep, lang, pos)` with the same fields. Every constructor, including
    `_make` and `_replace`, validates the fields.
    """

    __slots__ = ()

    def __new__(cls, rep: str, lang: str, pos: str):
        if not rep:
            raise ValueError("empty written form")
        if not pos:
            raise ValueError("empty POS tag")
        if "\0" in rep or "\0" in pos:
            raise ValueError("NUL byte in a field")
        if not LANG_RE.match(lang):
            raise ValueError(f"bad language code: {lang!r}")
        return tuple.__new__(cls, (rep, lang, pos))


def normalize_field(text: str) -> str:
    """Strip surrounding whitespace and apply Unicode NFC.

    Internal spaces survive; multi-word expressions are allowed.
    """
    return unicodedata.normalize("NFC", text.strip())


def normalize_lang(code: str) -> str:
    """The code stripped, NFC-normalized and lower-cased.

    A code that is already normalized comes back as the same object, so
    the entries built from one checked code all share one string.
    """
    norm = normalize_field(code).lower()
    return code if norm == code else norm


def lang_code(text: str) -> str:
    """A normalized, checked language code from a manifest row, flag or config line."""
    code = normalize_lang(text)
    if not LANG_RE.match(code):
        raise ValueError(f"bad language code: {code!r}")
    return code


def make_entry(rep: str, lang: str, pos: str) -> LexicalEntry:
    """Build a normalized entry from raw field text."""
    return LexicalEntry(normalize_field(rep), normalize_lang(lang), normalize_field(pos))
