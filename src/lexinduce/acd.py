"""One prediction pipeline for OTIC, CD and ACD.

Every algorithm merges a few groups of scored pairs, keeping the best
confidence per (source, target) pair, and then cuts at one threshold.
Type-A and Type-B pairs enter at confidence 1, so they survive any cut.
With one pivot, cycle length pinned to 4, and a threshold in (0, 2/3],
ACD's output coincides with plain OTIC.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .errors import UnknownLanguage
from .graph import TranslationGraph
from .inference import PROVENANCES, InferenceParams, ScoredPair, cd_predict, transitive_predict
from .otic import build_pivot_table, otic_type_a, otic_type_b

ALGORITHMS = ("otic", "cd", "acd")

_PROV_RANK = {prov: rank for rank, prov in enumerate(PROVENANCES)}


class AcdConfig(namedtuple("AcdConfig", "params pivot")):
    """`params` (InferenceParams) and `pivot` (a language code)."""

    __slots__ = ()


def threshold_filter(pairs: Iterable[ScoredPair], tau: float) -> set[ScoredPair]:
    """Keep pairs with confidence >= tau (inclusive, so 1.0 survives tau=1)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    return {sp for sp in pairs if sp.confidence >= tau}


def merge_scored(*groups: Iterable[ScoredPair]) -> set[ScoredPair]:
    """Merge by (source, target), keeping the maximum confidence.

    Associative and commutative, so the order of the groups is
    unobservable.
    """
    best: dict[tuple, ScoredPair] = {}
    for group in groups:
        for sp in group:
            key = (sp.source, sp.target)
            cur = best.get(key)
            if (
                cur is None
                or sp.confidence > cur.confidence
                or (sp.confidence == cur.confidence and _PROV_RANK[sp.provenance] < _PROV_RANK[cur.provenance])
            ):
                best[key] = sp
    return set(best.values())


def predict(
    g: TranslationGraph,
    algo: str,
    source_lang: str,
    target_lang: str,
    params: InferenceParams,
    pivot: str | None = None,
) -> set[ScoredPair]:
    """The prediction set of `algo` for one language pair, cut at `params.threshold`.

    The groups merged are, per algorithm:
    - otic: Type B and Type A over `pivot`, direct edges included, as
      the method is defined on the two pivot dictionaries alone (so it
      raises MissingPivotDictionaries when either has no edge in `g`,
      whether or not `g` holds its languages);
    - cd: cycle-density candidates and transitive pairs;
    - acd: cd's groups plus the Type-B pairs that are not direct edges.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm: {algo!r}")
    if source_lang == target_lang:
        raise ValueError(f"source and target are both {source_lang!r}")
    groups: list[set[ScoredPair]] = []
    if algo != "cd":
        if pivot in (None, source_lang, target_lang):
            raise UnknownLanguage(f"pivot {pivot!r} must be a language other than source and target")
        if algo == "acd":
            for lang in (source_lang, target_lang, pivot):
                g.ids_of_lang(lang)
        table = build_pivot_table(g, source_lang, pivot, target_lang)
        type_b = otic_type_b(table)
        if algo == "otic":
            groups.append({ScoredPair(a, b, 1.0, "type_a") for a, b in otic_type_a(table)})
        else:
            type_b = {(a, b) for a, b in type_b if not g.has_edge(a, b)}
        groups.append({ScoredPair(a, b, 1.0, "type_b") for a, b in type_b})
    if algo != "otic":
        groups.append(cd_predict(g, source_lang, target_lang, params))
        groups.append(transitive_predict(g, source_lang, target_lang, params.transitive_pos, params.transitive_depth))
    return threshold_filter(merge_scored(*groups), params.threshold)


def acd_predict(g: TranslationGraph, source_lang: str, target_lang: str, cfg: AcdConfig) -> set[ScoredPair]:
    """Full augmented-cycle-density prediction set for one language pair."""
    return predict(g, "acd", source_lang, target_lang, cfg.params, cfg.pivot)
