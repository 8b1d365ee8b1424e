"""Cycle-density translation inference.

A candidate pair (a, b) gets the density of the densest bounded simple
cycle through both words as its confidence; density of a cycle is the
edge ratio 2|E'|/(|V'|(|V'|-1)) of the subgraph induced by the cycle's
vertices. Non-polysemous POS (proper nouns, numerals by default) are
instead translated transitively at confidence 1.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .dictio import PROVENANCES
from .entries import LexicalEntry, Validated
from .errors import NotACycle
from .graph import TranslationGraph


MAX_CYCLE_LEN = 64  # the search recurses once per path vertex


class CycleConstraints(Validated, namedtuple("CycleConstraints", "min_len max_len")):
    """Cycle lengths in vertices, `3 <= min_len <= max_len <= MAX_CYCLE_LEN`.

    Each `ValueError` names the fields it checks, so a config file's
    reader can blame the line that set them.
    """

    __slots__ = ()

    def __new__(cls, min_len: int = 4, max_len: int = 6):
        if min_len < 3:
            raise ValueError("min_len must be >= 3")
        if max_len < min_len:
            raise ValueError("max_len must be >= min_len")
        if max_len > MAX_CYCLE_LEN:
            raise ValueError(f"max_len must be <= {MAX_CYCLE_LEN}")
        return tuple.__new__(cls, (min_len, max_len))

    @property
    def context_depth(self) -> int:
        """The search's BFS radius: a cycle's vertices lie within `max_len // 2` of its source."""
        return (self.max_len + 1) // 2


class InferenceParams(
    Validated, namedtuple("InferenceParams", "constraints threshold transitive_pos transitive_depth")
):
    """Inference settings; each `ValueError` names the field it checks, as in `CycleConstraints`."""

    __slots__ = ()

    def __new__(
        cls,
        constraints: CycleConstraints = CycleConstraints(),
        threshold: float = 0.6,
        transitive_pos: frozenset[str] = frozenset({"np", "num"}),
        transitive_depth: int = 4,
    ):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if transitive_depth < 1:
            raise ValueError("transitive_depth must be >= 1")
        return tuple.__new__(cls, (constraints, threshold, transitive_pos, transitive_depth))


class ScoredPair(Validated, namedtuple("ScoredPair", "source target confidence provenance")):
    """A predicted pair; pairs sort by source, target, confidence, provenance."""

    __slots__ = ()

    def __new__(cls, source: LexicalEntry, target: LexicalEntry, confidence: float, provenance: str):
        if source.lang == target.lang:
            raise ValueError("source and target share a language")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance: {provenance!r}")
        return tuple.__new__(cls, (source, target, confidence, provenance))


def cycle_density(g: TranslationGraph, cycle: Sequence[LexicalEntry]) -> float:
    """Density of the subgraph induced by a simple cycle's vertices."""
    vids = [g.id_of(v) for v in cycle]
    k = len(vids)
    if k < 3 or len(set(vids)) != k:
        raise NotACycle("need >= 3 distinct vertices")
    for u, v in zip(vids, vids[1:] + vids[:1]):
        if v not in g.adj(u):
            raise NotACycle(f"missing edge {g.entry_of(u)} -- {g.entry_of(v)}")
    edges = sum(vids[j] in g.adj(vids[i]) for i in range(k) for j in range(i + 1, k))
    return 2.0 * edges / (k * (k - 1))


def _ball(g: TranslationGraph, sid: int, depth: int) -> tuple[list[int], list[int], list[list[int]]]:
    """The BFS ball of radius `depth` around `sid`, wired on local vertex ids.

    Local ids follow BFS order, so the source is 0 and distances never
    decrease along them. BFS walks the sorted `g.adj(sid)` first, so the
    source's neighbours get local ids 1..deg in ascending graph-id order:
    comparing two of them by local id is comparing them by graph id.

    The same scan wires the ball. A vertex shallower than `depth` gets
    all its neighbours, in `g.adj` order; a depth-layer vertex gets only
    its shallower ones. That is exact: `depth` is `c.context_depth`, so
    `max_len <= 2 * depth`, a cycle through the source holds at most
    one depth-layer vertex, its antipode, between two shallower ones, and
    no edge joining two depth-layer vertices is walked, closed or induced.
    Returns, per local id, the graph id, the BFS distance and the row.
    """
    gids, dist, nbrs, local = [sid], [0], [[]], {sid: 0}
    for i, u in enumerate(gids):  # `gids` grows behind the loop: it is the BFS queue
        d = dist[i] + 1
        if d > depth:
            break
        row = nbrs[i]
        for w in g.adj(u):
            j = local.get(w)
            if j is None:
                j = local[w] = len(gids)
                gids.append(w)
                dist.append(d)
                nbrs.append([])
            row.append(j)
            if dist[j] == depth:
                nbrs[j].append(i)
    return gids, dist, nbrs


def _return_via(nbrs: list[list[int]], dist: list[int], targets: list[int], limit: int) -> list[int]:
    """Fewest edges from each ball vertex through some target back to the source.

    Bucketed multi-source BFS on local ids: a target `t` starts at
    `dist[t]`, and each step away from it costs one edge. Walks are not
    required to be simple, so the result is a lower bound on any cycle
    completion. A vertex that cannot finish a cycle within `limit` edges
    reads `limit + 1`. Each vertex is queued once, at its final value: a
    target's walk back is at least `dist[t]` long, and a non-target is set
    from the lowest bucket that reaches it, as buckets are scanned in order.
    """
    h = [limit + 1] * len(dist)
    buckets: list[list[int]] = [[] for _ in range(limit + 1)]
    for t in targets:
        if dist[t] <= limit:
            h[t] = dist[t]
            buckets[dist[t]].append(t)
    for d in range(limit):
        for u in buckets[d]:
            for w in nbrs[u]:
                if w and h[w] > d + 1:  # local id 0 is the source
                    h[w] = d + 1
                    buckets[d + 1].append(w)
    return h


def _cycles_holding(
    nbrs: list[list[int]],
    dist: list[int],
    marked: list[bool],
    h: list[int],
    c: CycleConstraints,
) -> list[tuple[tuple[int, ...], int]]:
    """Bounded simple cycles through local id 0 that hold a marked vertex.

    Depth-first search over the ball. The path extends to `w` only if
    its length plus `bound[w]` fits the budget. Until the path holds a
    marked vertex, `bound` is `h`: `h[w]` is the fewest edges from `w`
    through a marked vertex back to the source. Afterwards it is the BFS
    distance `dist`, and only then can the path close. Both are lower
    bounds on the rest of the cycle, so no cycle holding a marked vertex
    is lost. Each cycle is reported in one orientation, the one whose
    second vertex id is below its last. The source's neighbours are
    local ids 1..deg, so no path starts at the largest of them, and the
    last step tries only those above the second vertex.

    The path is kept as a bit mask `on`, and each push adds the new
    vertex's edges to the path, so a closed cycle comes with the edge
    count of the subgraph its vertices induce. Returns
    `(local ids, induced edges)` per cycle.
    """
    min_len, max_len = c.min_len, c.max_len
    last = max_len - 1
    ends = nbrs[0]
    masks = []
    for row in nbrs:
        mask = 0
        for i in row:
            mask |= 1 << i
        masks.append(mask)
    cycles: list[tuple[tuple[int, ...], int]] = []
    path = [0]

    def walk(v: int, on: int, edges: int, bound: list[int]):
        budget = len(path)
        if bound is dist:  # the path holds a marked vertex
            if dist[v] == 1 and budget >= min_len and path[1] < v:
                cycles.append((tuple(path), edges))  # v closes the cycle back to the source
            if budget == last:
                # The next vertex is the last one, so it must be a neighbour of the source.
                adj = masks[v]
                for w in ends[path[1]:]:
                    if adj >> w & 1 and not on >> w & 1:
                        cycles.append(((*path, w), edges + (masks[w] & on).bit_count()))
                return
        for w in nbrs[v]:
            if not on >> w & 1 and budget + bound[w] <= max_len:
                path.append(w)
                walk(w, on | 1 << w, edges + (masks[w] & on).bit_count(), dist if marked[w] else bound)
                path.pop()

    for w in ends[:-1]:
        if 1 + h[w] <= max_len:
            path.append(w)
            walk(w, 1 | 1 << w, 1, dist if marked[w] else h)
            path.pop()
    walk = None  # the closure names itself; free it by refcount
    return cycles


def enumerate_cycles(
    g: TranslationGraph, source: LexicalEntry, c: CycleConstraints
) -> set[tuple[LexicalEntry, ...]]:
    """Simple cycles through `source` within the length constraints.

    Each cycle appears once, rotated to start at the source and oriented
    so the second vertex is the smaller of the source's two cycle
    neighbors by internal id.
    """
    gids, dist, nbrs = _ball(g, g.id_of(source), c.context_depth)
    entries = [g.entry_of(v) for v in gids]
    # Every ball vertex is marked, so each cycle holds one from its second
    # vertex on and the search bound is the plain BFS distance.
    cycles = _cycles_holding(nbrs, dist, [True] * len(gids), dist, c)
    return {tuple(entries[v] for v in ids) for ids, _ in cycles}


def _cd_for_source(g: TranslationGraph, sid: int, by_pos: dict[str, set[int]], c: CycleConstraints) -> list[ScoredPair]:
    """Densest-cycle confidence for every candidate target of one source.

    `by_pos` maps each POS to the target language's vertex ids. The
    candidates are the ball vertices in the source's POS set that are
    neither the source nor adjacent to it. Only cycles that can hold a
    candidate are searched, and only closed ones are scored.
    """
    src = g.entry_of(sid)
    same_pos = by_pos.get(src.pos)
    if not same_pos:
        return []
    gids, dist, nbrs = _ball(g, sid, c.context_depth)
    # Local ids 0..deg are the source and its neighbours, so candidates start after them.
    targets = [i for i in range(len(nbrs[0]) + 1, len(gids)) if gids[i] in same_pos]
    if not targets:
        return []
    marked = [False] * len(gids)
    for t in targets:
        marked[t] = True
    h = _return_via(nbrs, dist, targets, c.max_len - 1)
    best = [-1.0] * len(gids)
    for ids, edges in _cycles_holding(nbrs, dist, marked, h, c):
        k = len(ids)
        density = 2.0 * edges / (k * (k - 1))
        for v in ids:
            if marked[v] and density > best[v]:
                best[v] = density
    return [ScoredPair(src, g.entry_of(gids[t]), best[t], "cycle") for t in targets if best[t] >= 0.0]


def cd_predict(
    g: TranslationGraph,
    source_lang: str,
    target_lang: str,
    p: InferenceParams,
    threads: int = 1,
) -> set[ScoredPair]:
    """Cycle-density candidates from `source_lang` to `target_lang`.

    Scores every non-adjacent same-POS pair sharing at least one
    constrained cycle; no thresholding here. A source whose POS no
    target-language vertex has is skipped before its BFS. `threads` is
    accepted for compatibility and has no effect: the search is pure
    Python under the interpreter lock, so threads cannot speed it up.
    """
    source_ids = g.ids_of_lang(source_lang)
    by_pos: dict[str, set[int]] = {}
    for tid in g.ids_of_lang(target_lang):  # raises UnknownLanguage if absent
        by_pos.setdefault(g.entry_of(tid).pos, set()).add(tid)
    c = p.constraints
    return {sp for sid in source_ids for sp in _cd_for_source(g, sid, by_pos, c)}


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
        reached = {sid}
        frontier = [sid]
        for _ in range(depth):
            if not frontier:
                break
            nxt = []
            for u in frontier:
                for w in g.adj(u):
                    if w not in reached and g.entry_of(w).pos in pos_set:
                        reached.add(w)
                        nxt.append(w)
            frontier = nxt
        adjacent = g.adj(sid)
        for v in reached:
            ev = g.entry_of(v)
            if v != sid and v not in adjacent and ev.lang == target_lang and ev.pos == src.pos:
                out.add(ScoredPair(src, ev, 1.0, "transitive"))
    return out
