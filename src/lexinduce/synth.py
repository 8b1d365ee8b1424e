"""Synthetic multilingual translation graphs with planted senses.

Every word belongs to one sense (or two, under the polysemy rate); each
cross-language same-sense word pair becomes an edge with probability
edge_prob, and the gold dictionary for a language pair is the full set
of cross-language pairs sharing a sense. The generator is driven by
Python's Mersenne Twister (`random.Random`), a named, seedable PRNG with
published reference outputs, and consumes one edge draw per candidate
pair regardless of edge_prob, so edge sets are nested as edge_prob
grows under a fixed seed.
"""
from __future__ import annotations

import itertools
import random
from collections import namedtuple

from .entries import LexicalEntry, Validated
from .graph import build_graph

Pair = tuple[LexicalEntry, LexicalEntry]
LangPair = tuple[str, str]


class SynthParams(
    Validated,
    namedtuple("SynthParams", "n_langs n_senses words_per_sense_per_lang polysemy_rate edge_prob seed"),
):
    __slots__ = ()

    def __new__(
        cls,
        n_langs: int = 3,
        n_senses: int = 10,
        words_per_sense_per_lang: int = 1,  # Poisson expectation
        polysemy_rate: float = 0.0,
        edge_prob: float = 1.0,
        seed: int = 0,
    ):
        if n_langs < 2:
            raise ValueError("need at least 2 languages")
        if n_langs > 26 * 26:
            raise ValueError(f"n_langs must be <= 676, the two-letter codes of lang_codes, got {n_langs}")
        if n_senses < 1:
            raise ValueError("need at least 1 sense")
        if words_per_sense_per_lang < 0:
            raise ValueError("expected word count must be >= 0")
        for p in (polysemy_rate, edge_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")
        return tuple.__new__(cls, (n_langs, n_senses, words_per_sense_per_lang, polysemy_rate, edge_prob, seed))


class SynthInstance(namedtuple("SynthInstance", "graph gold languages dictionaries")):
    """`graph` (TranslationGraph), `gold` ({LangPair: frozenset of Pair}),
    `languages` (tuple of codes) and `dictionaries` ({LangPair: tuple of Pair})."""

    __slots__ = ()


def lang_codes(n: int) -> tuple[str, ...]:
    """Deterministic synthetic language codes: aa, ab, ac, ..."""
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    codes = ("".join(p) for p in itertools.product(alphabet, repeat=2))
    return tuple(itertools.islice(codes, n))


def _poisson(rng: random.Random, mean: float) -> int:
    # Knuth's method; means here are small.
    if mean <= 0:
        return 0
    limit = pow(2.718281828459045, -mean)
    k, prod = 0, rng.random()
    while prod > limit:
        k += 1
        prod *= rng.random()
    return k


def generate(params: SynthParams) -> SynthInstance:
    """Build one deterministic instance: graph, per-pair gold, per-pair edges."""
    langs = lang_codes(params.n_langs)
    # str seeds hash deterministically (unlike tuples, which go through
    # randomized hash()); two streams keep edge draws independent of the
    # word/sense assignment.
    rng_words = random.Random(f"words-{params.seed}")
    rng_edges = random.Random(f"edges-{params.seed}")

    # word identity: (lang, index); senses: word -> sorted sense ids
    word_senses: dict[tuple[str, int], list[int]] = {}
    members: dict[int, list[tuple[str, int]]] = {s: [] for s in range(params.n_senses)}
    counters = {lang: 0 for lang in langs}
    for sense in range(params.n_senses):
        for lang in langs:
            count = _poisson(rng_words, params.words_per_sense_per_lang)
            for _ in range(count):
                word = (lang, counters[lang])
                counters[lang] += 1
                word_senses[word] = [sense]
                members[sense].append(word)
    if params.n_senses > 1:
        for word in sorted(word_senses):
            if rng_words.random() < params.polysemy_rate:
                primary = word_senses[word][0]
                extra = rng_words.randrange(params.n_senses - 1)
                if extra >= primary:
                    extra += 1
                word_senses[word] = sorted((primary, extra))
                members[extra].append(word)

    entries = {
        word: LexicalEntry("w" + "+".join(map(str, senses)) + f"_{word[0]}_{word[1]}", word[0], "n")
        for word, senses in word_senses.items()
    }

    gold_sets: dict[LangPair, set[Pair]] = {}
    dict_pairs: dict[LangPair, list[Pair]] = {}
    seen_edges: set[tuple[tuple[str, int], tuple[str, int]]] = set()
    for sense in range(params.n_senses):
        group = sorted(members[sense])
        for i, wa in enumerate(group):
            for wb in group[i + 1 :]:
                if wa[0] == wb[0]:
                    continue
                key = (wa[0], wb[0])
                pair = (entries[wa], entries[wb])
                gold_sets.setdefault(key, set()).add(pair)
                draw = rng_edges.random()  # always consumed, keeps streams aligned
                if draw < params.edge_prob and (wa, wb) not in seen_edges:
                    seen_edges.add((wa, wb))
                    dict_pairs.setdefault(key, []).append(pair)

    all_pairs = [p for key in sorted(dict_pairs) for p in dict_pairs[key]]
    graph = build_graph(all_pairs, extra_vertices=[entries[w] for w in sorted(entries)])
    return SynthInstance(
        graph=graph,
        gold={k: frozenset(v) for k, v in sorted(gold_sets.items())},
        languages=langs,
        dictionaries={k: tuple(v) for k, v in sorted(dict_pairs.items())},
    )
