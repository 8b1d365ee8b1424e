"""One Time Inverse Consultation over a single pivot language.

Given dictionaries (A, C) and (C, B), a pair (a, b) is accepted when
either a and b share at least two pivot translations (Type A) or b is
the only transitive image of a in the target language (Type B).
"""
from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator

from .entries import LexicalEntry
from .errors import MissingPivotDictionaries
from .graph import TranslationGraph

Pair = tuple[LexicalEntry, LexicalEntry]


class PivotTable(namedtuple("PivotTable", "forward onward")):
    """Source -> pivot (`forward`) and pivot -> target (`onward`) maps from
    an entry to the frozenset of its translations."""

    __slots__ = ()


def build_pivot_table(
    g: TranslationGraph, source_lang: str, pivot_lang: str, target_lang: str
) -> PivotTable:
    """Read the two pivot dictionaries off the graph's adjacency rows."""
    forward = _translations(g, source_lang, pivot_lang)
    onward = _translations(g, pivot_lang, target_lang)
    if not forward or not onward:
        raise MissingPivotDictionaries(
            f"need non-empty ({source_lang},{pivot_lang}) and ({pivot_lang},{target_lang}) pair sets"
        )
    return PivotTable(forward, onward)


def _translations(g: TranslationGraph, lang: str, other: str) -> dict[LexicalEntry, frozenset[LexicalEntry]]:
    """Each `lang` entry joined to some `other` entry, mapped to all such
    entries; a language that `g` does not hold has none."""
    if lang not in g.languages or other not in g.languages:
        return {}
    others = set(g.ids_of_lang(other))
    found: dict[int, list[int]] = {}
    for vid in g.ids_of_lang(lang):
        for w in g.adj(vid):
            if w in others:
                found.setdefault(vid, []).append(w)
    entry_of = g.entry_of
    return {entry_of(u): frozenset(map(entry_of, ws)) for u, ws in found.items()}


def _images(t: PivotTable) -> Iterator[tuple[LexicalEntry, Counter[LexicalEntry]]]:
    """Each source and the count of pivots that lead to each same-POS target."""
    for a, pivots in t.forward.items():
        yield a, Counter(b for c in pivots for b in t.onward.get(c, ()) if b.pos == a.pos)


def otic_type_a(t: PivotTable) -> set[Pair]:
    """Pairs whose source and target share at least two pivot translations."""
    return {(a, b) for a, counts in _images(t) for b, n in counts.items() if n >= 2}


def otic_type_b(t: PivotTable) -> set[Pair]:
    """Pairs whose source has exactly one same-POS transitive image."""
    return {(a, next(iter(counts))) for a, counts in _images(t) if len(counts) == 1}


def otic_predict(t: PivotTable) -> set[Pair]:
    return otic_type_a(t) | otic_type_b(t)
