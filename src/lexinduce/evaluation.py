"""Scoring a prediction set against a gold dictionary.

Pair identity uses (rep, pos) on both sides; the two languages are fixed
per evaluation. Besides precision/recall/F1/coverage, the report carries
both-word precision (BWP: predicted pairs whose words both occur in the
gold vocabulary) and both-word recall (BWR: gold pairs whose words both
occur in the input vocabulary), which isolate algorithm quality from
data coverage. These two definitions are a pinned interpretation; see
the README.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping

from .entries import LexicalEntry
from .errors import LanguageMismatch

Pair = tuple[LexicalEntry, LexicalEntry]
Key = tuple[str, str]  # (rep, pos)


class EvalReport(
    namedtuple(
        "EvalReport",
        "precision recall f1 coverage bwp bwr predicted gold correct bwp_denominator bwr_denominator warnings",
        defaults=((),),
    )
):
    """Six ratios, `precision` to `bwr`; five counts, `predicted` to
    `bwr_denominator`; and `warnings`, a tuple of messages."""

    __slots__ = ()

    def as_dict(self) -> dict[str, float | int]:
        """Every field but `warnings`, in declaration order."""
        return {name: value for name, value in zip(self._fields, self) if name != "warnings"}


def _ratio(num: int, den: int, name: str, warnings: list[str]) -> float:
    if den == 0:
        warnings.append(f"empty denominator for {name}; reporting 0")
        return 0.0
    return num / den


def _keyed(pairs: Iterable[Pair], langs: list[tuple[str, str] | None]) -> set[tuple[Key, Key]]:
    out = set()
    for a, b in pairs:
        if langs[0] is None:
            langs[0] = (a.lang, b.lang)
        elif (a.lang, b.lang) != langs[0]:
            raise LanguageMismatch(f"expected {langs[0]}, got ({a.lang}, {b.lang})")
        out.add(((a.rep, a.pos), (b.rep, b.pos)))
    return out


def evaluate(
    pred: Iterable[Pair],
    gold: Iterable[Pair],
    input_vocab: Mapping[str, Iterable[LexicalEntry]] | None = None,
) -> EvalReport:
    """Score predictions against a gold pair set.

    `input_vocab` maps language code to the entries available in the
    input graph; it only affects BWR. Confidences are ignored here.
    """
    langs: list[tuple[str, str] | None] = [None]
    pred_keys = _keyed(pred, langs)
    gold_keys = _keyed(gold, langs)
    warnings: list[str] = []

    correct_keys = pred_keys & gold_keys
    correct = len(correct_keys)
    precision = _ratio(correct, len(pred_keys), "precision", warnings)
    recall = _ratio(correct, len(gold_keys), "recall", warnings)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0

    gold_sources = {a for a, _ in gold_keys}
    pred_sources = {a for a, _ in pred_keys}
    coverage = _ratio(len(gold_sources & pred_sources), len(gold_sources), "coverage", warnings)

    gold_targets = {b for _, b in gold_keys}
    bw_pred = {(a, b) for a, b in pred_keys if a in gold_sources and b in gold_targets}
    bwp = _ratio(len(bw_pred & gold_keys), len(bw_pred), "bwp", warnings)

    bw_gold = gold_keys
    if input_vocab is not None:
        src_lang, tgt_lang = langs[0] if langs[0] else ("", "")
        in_src = {(e.rep, e.pos) for e in input_vocab.get(src_lang, ())}
        in_tgt = {(e.rep, e.pos) for e in input_vocab.get(tgt_lang, ())}
        bw_gold = {(a, b) for a, b in gold_keys if a in in_src and b in in_tgt}
    bwr = _ratio(len(bw_gold & pred_keys), len(bw_gold), "bwr", warnings)

    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        coverage=coverage,
        bwp=bwp,
        bwr=bwr,
        predicted=len(pred_keys),
        gold=len(gold_keys),
        correct=correct,
        bwp_denominator=len(bw_pred),
        bwr_denominator=len(bw_gold),
        warnings=tuple(warnings),
    )
