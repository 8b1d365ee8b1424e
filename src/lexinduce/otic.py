"""One Time Inverse Consultation over a single pivot language.

Given dictionaries (A, C) and (C, B), a pair (a, b) is accepted when
either a and b share at least two pivot translations (Type A) or b is
the only transitive image of a in the target language (Type B).
"""
from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
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
    """Materialize the two pivot dictionaries out of the translation graph."""
    ac = g.edges_between(source_lang, pivot_lang)
    cb = g.edges_between(pivot_lang, target_lang)
    if not ac or not cb:
        raise MissingPivotDictionaries(
            f"need non-empty ({source_lang},{pivot_lang}) and ({pivot_lang},{target_lang}) pair sets"
        )
    forward: dict[LexicalEntry, set[LexicalEntry]] = defaultdict(set)
    onward: dict[LexicalEntry, set[LexicalEntry]] = defaultdict(set)
    for a, c in ac:
        forward[a].add(c)
    for c, b in cb:
        onward[c].add(b)
    return PivotTable(
        {a: frozenset(cs) for a, cs in forward.items()},
        {c: frozenset(bs) for c, bs in onward.items()},
    )


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
