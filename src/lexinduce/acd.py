"""Augmented cycle density: CD candidates plus single-pivot Type-B pairs.

Type-B pairs enter at confidence 1 before the threshold filter, so they
survive any cut; the merge keeps the maximum confidence per (source,
target) pair. With one pivot, cycle length pinned to 4, and a threshold
in (0, 2/3], the output coincides with plain OTIC.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import UnknownLanguage
from .graph import TranslationGraph
from .inference import InferenceParams, ScoredPair, cd_predict, transitive_predict
from .otic import build_pivot_table, otic_type_b

# On equal confidence the merge prefers the more specific provenance.
_PROV_RANK = {"type_b": 0, "transitive": 1, "cycle": 2}


@dataclass(frozen=True, slots=True)
class AcdConfig:
    params: InferenceParams
    pivot: str
    threshold: float | None = None  # falls back to params.threshold

    @property
    def effective_threshold(self) -> float:
        return self.params.threshold if self.threshold is None else self.threshold


def threshold_filter(pairs: Iterable[ScoredPair], tau: float) -> set[ScoredPair]:
    """Keep pairs with confidence >= tau (inclusive, so 1.0 survives tau=1)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    return {sp for sp in pairs if sp.confidence >= tau}


def merge_scored(*groups: Iterable[ScoredPair]) -> set[ScoredPair]:
    """Merge by (source, target), keeping the maximum confidence.

    Associative and commutative, so the orchestration order of the CD,
    Type-B, and transitive steps is unobservable.
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


def acd_predict(
    g: TranslationGraph,
    source_lang: str,
    target_lang: str,
    cfg: AcdConfig,
    threads: int = 1,
) -> set[ScoredPair]:
    """Full augmented-cycle-density prediction set for one language pair.

    `threads` is accepted for compatibility and has no effect.
    """
    if cfg.pivot in (source_lang, target_lang):
        raise UnknownLanguage(f"pivot {cfg.pivot!r} must differ from source and target")
    g.ids_of_lang(source_lang)
    g.ids_of_lang(target_lang)
    g.ids_of_lang(cfg.pivot)

    table = build_pivot_table(g, source_lang, cfg.pivot, target_lang)
    type_b = {
        ScoredPair(a, b, 1.0, "type_b")
        for a, b in otic_type_b(table)
        if not g.has_edge(a, b)
    }
    cd = cd_predict(g, source_lang, target_lang, cfg.params, threads=threads)
    transitive = transitive_predict(
        g, source_lang, target_lang, cfg.params.transitive_pos, cfg.params.transitive_depth
    )
    return threshold_filter(merge_scored(cd, type_b, transitive), cfg.effective_threshold)
