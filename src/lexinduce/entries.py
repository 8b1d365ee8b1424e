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
from dataclasses import dataclass

LANG_RE = re.compile(r"[a-z]{2,3}\Z")


@dataclass(frozen=True, order=True, slots=True)
class LexicalEntry:
    rep: str
    lang: str
    pos: str

    def __post_init__(self):
        if not self.rep:
            raise ValueError("empty written form")
        if not self.pos:
            raise ValueError("empty POS tag")
        if "\0" in self.rep or "\0" in self.pos:
            raise ValueError("NUL byte in a field")
        if not LANG_RE.match(self.lang):
            raise ValueError(f"bad language code: {self.lang!r}")


def normalize_field(text: str) -> str:
    """Strip surrounding whitespace and apply Unicode NFC.

    Internal spaces survive; multi-word expressions are allowed.
    """
    return unicodedata.normalize("NFC", text.strip())


def normalize_lang(code: str) -> str:
    return normalize_field(code).lower()


def make_entry(rep: str, lang: str, pos: str) -> LexicalEntry:
    """Build a normalized entry from raw field text."""
    return LexicalEntry(normalize_field(rep), normalize_lang(lang), normalize_field(pos))
