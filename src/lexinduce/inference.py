"""Cycle-density translation inference.

A candidate pair (a, b) gets the density of the densest bounded simple
cycle through both words as its confidence; density of a cycle is the
edge ratio 2|E'|/(|V'|(|V'|-1)) of the subgraph induced by the cycle's
vertices. Non-polysemous POS (proper nouns, numerals by default) are
instead translated transitively at confidence 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .entries import LexicalEntry
from .errors import NotACycle, UnknownLanguage
from .graph import TranslationGraph

PROVENANCES = ("cycle", "type_b", "transitive")


@dataclass(frozen=True, slots=True)
class CycleConstraints:
    min_len: int = 4
    max_len: int = 6
    context_depth: int = 3

    def __post_init__(self):
        if self.min_len < 3:
            raise ValueError("min_len must be >= 3")
        if self.max_len < self.min_len:
            raise ValueError("max_len must be >= min_len")
        if self.context_depth < 1:
            raise ValueError("context_depth must be >= 1")
        if self.max_len > 2 * self.context_depth:
            # a cycle through the source cannot reach beyond half its length
            raise ValueError("max_len must be <= 2 * context_depth")


@dataclass(frozen=True, slots=True)
class InferenceParams:
    constraints: CycleConstraints = field(default_factory=CycleConstraints)
    threshold: float = 0.6
    transitive_pos: frozenset[str] = frozenset({"np", "num"})
    transitive_depth: int = 4

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if self.transitive_depth < 1:
            raise ValueError("transitive_depth must be >= 1")


@dataclass(frozen=True, order=True, slots=True)
class ScoredPair:
    source: LexicalEntry
    target: LexicalEntry
    confidence: float
    provenance: str

    def __post_init__(self):
        if self.source.lang == self.target.lang:
            raise ValueError("source and target share a language")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance: {self.provenance!r}")


def _induced_density(g: TranslationGraph, vids: Sequence[int]) -> float:
    k = len(vids)
    edges = 0
    for i in range(k):
        nbrs = g.adj_set(vids[i])
        for j in range(i + 1, k):
            if vids[j] in nbrs:
                edges += 1
    return 2.0 * edges / (k * (k - 1))


def cycle_density(g: TranslationGraph, cycle: Sequence[LexicalEntry]) -> float:
    """Density of the subgraph induced by a simple cycle's vertices."""
    vids = [g.id_of(v) for v in cycle]
    if len(vids) < 3 or len(set(vids)) != len(vids):
        raise NotACycle("need >= 3 distinct vertices")
    for u, v in zip(vids, vids[1:] + vids[:1]):
        if v not in g.adj_set(u):
            raise NotACycle(f"missing edge {g.entry_of(u)} -- {g.entry_of(v)}")
    return _induced_density(g, vids)


def _ball_nbrs(g: TranslationGraph, dist: dict[int, int]) -> dict[int, list[int]]:
    """Adjacency lists restricted to the ball whose BFS distances are `dist`."""
    return {u: [w for w in g.adj(u) if w in dist] for u in dist}


def _return_via(
    nbrs: dict[int, list[int]], dist: dict[int, int], sid: int, marked: set[int], limit: int
) -> dict[int, int]:
    """Fewest edges from each ball vertex through some marked vertex back to `sid`.

    Bucketed multi-source BFS: a marked vertex `t` starts at `dist[t]`,
    and each step away from it costs one edge. Walks are not required to
    be simple, so the result is a lower bound on any cycle completion.
    Values above `limit` are dropped; a missing vertex cannot finish a
    cycle within the budget.
    """
    h = {t: dist[t] for t in marked if dist[t] <= limit}
    buckets: list[list[int]] = [[] for _ in range(limit + 1)]
    for t, d in h.items():
        buckets[d].append(t)
    for d in range(limit):
        for u in buckets[d]:
            if h[u] != d:
                continue  # reached cheaper after it was queued
            for w in nbrs[u]:
                if w != sid and h.get(w, limit + 1) > d + 1:
                    h[w] = d + 1
                    buckets[d + 1].append(w)
    return h


def _cycles_holding(
    nbrs: dict[int, list[int]],
    dist: dict[int, int],
    sid: int,
    c: CycleConstraints,
    marked: set[int] | dict[int, int],
    h: dict[int, int],
) -> list[tuple[int, ...]]:
    """Bounded simple cycles through `sid` that hold a marked vertex, as id tuples.

    Depth-first search over the ball. Until the path holds a marked
    vertex, it extends to `w` only if the path length plus `h[w]`, the
    fewest edges from `w` through a marked vertex back to the source,
    fits the budget; afterwards the bound is the BFS distance `dist[w]`.
    Both are lower bounds on the rest of the cycle, so no cycle holding a
    marked vertex is lost. Each cycle is found in both orientations;
    keeping only paths whose second vertex id is below the last one
    reports it exactly once.
    """
    min_len, max_len = c.min_len, c.max_len
    cycles: list[tuple[int, ...]] = []
    path = [sid]
    on_path = {sid}

    def free(v: int):
        budget = len(path)
        for w in nbrs[v]:
            if w not in on_path and budget + h.get(w, max_len) <= max_len:
                path.append(w)
                on_path.add(w)
                if w in marked:
                    held(w)
                else:
                    free(w)
                on_path.discard(w)
                path.pop()

    def held(v: int):
        budget = len(path)
        if dist[v] == 1 and budget >= min_len and path[1] < v:
            cycles.append(tuple(path))  # v closes the cycle back to the source
        if budget == max_len:
            return
        for w in nbrs[v]:
            if w not in on_path and budget + dist[w] <= max_len:
                path.append(w)
                on_path.add(w)
                held(w)
                on_path.discard(w)
                path.pop()

    free(sid)
    return cycles


def enumerate_cycles(
    g: TranslationGraph, source: LexicalEntry, c: CycleConstraints
) -> set[tuple[LexicalEntry, ...]]:
    """Simple cycles through `source` within the length and depth constraints.

    Each cycle appears once, rotated to start at the source and oriented
    so the second vertex is the smaller of the source's two cycle
    neighbors by internal id.
    """
    sid = g.id_of(source)
    dist = g.bfs_distances(sid, c.context_depth)
    # Every ball vertex is marked, so each cycle holds one from its second
    # vertex on and the search bound is the plain BFS distance.
    ids = _cycles_holding(_ball_nbrs(g, dist), dist, sid, c, dist, dist)
    return {tuple(g.entry_of(v) for v in cyc) for cyc in ids}


def _cd_for_source(g: TranslationGraph, sid: int, target_lang: str, c: CycleConstraints) -> list[ScoredPair]:
    """Densest-cycle confidence for every candidate target of one source.

    Candidates are ball vertices of the target language with the source's
    POS that are neither the source nor adjacent to it. Only cycles that
    can hold a candidate are searched, and only closed ones are scored.
    """
    src = g.entry_of(sid)
    dist = g.bfs_distances(sid, c.context_depth)
    adjacent = g.adj_set(sid)
    candidates = set()
    for v in dist:
        ev = g.entry_of(v)
        if ev.lang == target_lang and ev.pos == src.pos and v != sid and v not in adjacent:
            candidates.add(v)
    if not candidates:
        return []
    nbrs = _ball_nbrs(g, dist)
    h = _return_via(nbrs, dist, sid, candidates, c.max_len - 1)
    best: dict[int, float] = {}
    for ids in _cycles_holding(nbrs, dist, sid, c, candidates, h):
        density = _induced_density(g, ids)
        for v in ids:
            if v in candidates and density > best.get(v, -1.0):
                best[v] = density
    return [ScoredPair(src, g.entry_of(v), conf, "cycle") for v, conf in best.items()]


def cd_predict(
    g: TranslationGraph,
    source_lang: str,
    target_lang: str,
    p: InferenceParams,
    threads: int = 1,
) -> set[ScoredPair]:
    """Cycle-density candidates from `source_lang` to `target_lang`.

    Scores every non-adjacent same-POS pair sharing at least one
    constrained cycle; no thresholding here. `threads` is accepted for
    compatibility and has no effect: the search is pure Python under the
    interpreter lock, so threads cannot speed it up.
    """
    source_ids = g.ids_of_lang(source_lang)
    g.ids_of_lang(target_lang)  # raises UnknownLanguage if absent
    c = p.constraints
    return {sp for sid in source_ids for sp in _cd_for_source(g, sid, target_lang, c)}


def transitive_predict(
    g: TranslationGraph,
    source_lang: str,
    target_lang: str,
    pos_set: Iterable[str],
    depth: int,
) -> set[ScoredPair]:
    """Transitive translation for non-polysemous POS, at confidence 1.

    Follows paths of length <= depth whose every vertex carries a POS
    from `pos_set`; emits non-adjacent same-POS targets.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    pos_set = frozenset(pos_set)
    source_ids = g.ids_of_lang(source_lang)
    g.ids_of_lang(target_lang)
    out: set[ScoredPair] = set()
    for sid in source_ids:
        src = g.entry_of(sid)
        if src.pos not in pos_set:
            continue
        dist = {sid: 0}
        frontier = [sid]
        d = 0
        while frontier and d < depth:
            d += 1
            nxt = []
            for u in frontier:
                for w in g.adj(u):
                    if w not in dist and g.entry_of(w).pos in pos_set:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        adjacent = g.adj_set(sid)
        for v in dist:
            ev = g.entry_of(v)
            if v != sid and v not in adjacent and ev.lang == target_lang and ev.pos == src.pos:
                out.add(ScoredPair(src, ev, 1.0, "transitive"))
    return out
