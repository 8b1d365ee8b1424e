"""Immutable undirected translation graph with per-language indexes.

Vertices are interned to dense integer ids so that cycle enumeration can
work on plain int adjacency lists; everything exposed publicly speaks in
:class:`LexicalEntry` triples.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence

from .entries import LexicalEntry
from .errors import IntraLanguagePair, UnknownLanguage, UnknownVertex

Pair = tuple[LexicalEntry, LexicalEntry]


class TranslationGraph:
    """Simple undirected graph over lexical entries.

    No self-loops, no duplicate edges, and no edge joins two entries of
    the same language. Instances are immutable once built; all query
    methods are read-only and safe to call concurrently.
    """

    __slots__ = ("_entries", "_ids", "_adj", "_edge_count", "_lang_ids")

    def __init__(self, pairs: Iterable[Pair], extra_vertices: Iterable[LexicalEntry] = ()):
        self._entries: list[LexicalEntry] = []
        self._ids: dict[LexicalEntry, int] = {}
        self._lang_ids: dict[str, list[int]] = {}
        ids = self._ids
        # Only the two ids of each pair are kept while the pairs stream in;
        # the rows are built once the input, and any cache its reader
        # holds, is gone. The ids are the int objects that `_ids` holds.
        ends: list[int] = []
        push = ends.append
        for u, v in pairs:
            if u.lang == v.lang:
                raise IntraLanguagePair(f"{u} -- {v}")
            iu = ids.get(u)
            if iu is None:
                iu = self._add_vertex(u)
            iv = ids.get(v)
            if iv is None:
                iv = self._add_vertex(v)
            push(iu)
            push(iv)
        for v in extra_vertices:
            if v not in ids:
                self._add_vertex(v)
        adj: list[list[int]] = [[] for _ in self._entries]
        it = iter(ends)
        for iu, iv in zip(it, it):
            adj[iu].append(iv)
            adj[iv].append(iu)
        del ends, push, it
        # Duplicate pairs, in either orientation, collapse here in one pass
        # per vertex, each row in place, so no second adjacency is built.
        for nbrs in adj:
            nbrs[:] = sorted(set(nbrs))
        self._adj = adj
        self._edge_count = sum(map(len, adj)) // 2

    def _add_vertex(self, entry: LexicalEntry) -> int:
        vid = len(self._entries)
        self._ids[entry] = vid
        self._entries.append(entry)
        self._lang_ids.setdefault(entry.lang, []).append(vid)
        return vid

    # -- public queries -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._entries)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def vertices(self) -> tuple[LexicalEntry, ...]:
        return tuple(self._entries)

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(self._lang_ids))

    def entries_of_lang(self, lang: str) -> tuple[LexicalEntry, ...]:
        return tuple(self._entries[i] for i in self.ids_of_lang(lang))

    def edges(self) -> Iterator[Pair]:
        for u in range(len(self._adj)):
            for v in self._adj[u]:
                if u < v:
                    yield (self._entries[u], self._entries[v])

    def edges_between(self, lang_a: str, lang_b: str) -> tuple[Pair, ...]:
        """All edges joining the two languages, endpoints ordered (lang_a, lang_b)."""
        entries = self._entries
        out = []
        for iu in self._lang_ids.get(lang_a, ()):
            u = entries[iu]
            for iv in self._adj[iu]:
                v = entries[iv]
                if v.lang == lang_b:
                    out.append((u, v))
        return tuple(out)

    def has_edge(self, u: LexicalEntry, v: LexicalEntry) -> bool:
        iu, iv = self._ids.get(u), self._ids.get(v)
        if iu is None or iv is None:
            return False
        row = self._adj[iu]
        i = bisect_left(row, iv)
        return i < len(row) and row[i] == iv

    # -- id-level access (used by the inference algorithms) --------------

    def id_of(self, entry: LexicalEntry) -> int:
        try:
            return self._ids[entry]
        except KeyError:
            raise UnknownVertex(repr(entry)) from None

    def entry_of(self, vid: int) -> LexicalEntry:
        return self._entries[vid]

    def ids_of_lang(self, lang: str) -> Sequence[int]:
        try:
            return self._lang_ids[lang]
        except KeyError:
            raise UnknownLanguage(lang) from None

    def adj(self, vid: int) -> Sequence[int]:
        return self._adj[vid]


def build_graph(pairs: Iterable[Pair], extra_vertices: Iterable[LexicalEntry] = ()) -> TranslationGraph:
    """Assemble an immutable graph from translation pairs.

    Duplicate pairs (in either orientation) collapse to one edge. A pair
    joining two entries of the same language raises IntraLanguagePair.
    """
    return TranslationGraph(pairs, extra_vertices)
