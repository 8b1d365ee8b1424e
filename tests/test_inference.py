import gc
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lexinduce import (
    CycleConstraints,
    InferenceParams,
    LexicalEntry,
    ScoredPair,
    SynthParams,
    UnknownLanguage,
    build_graph,
    cd_predict,
    enumerate_cycles,
    generate,
    predict,
    transitive_predict,
)
from oracles import oracle_cd, random_multipartite_graph


def e(rep, lang, pos="n"):
    return LexicalEntry(rep, lang, pos)


PARAMS = InferenceParams(constraints=CycleConstraints(4, 6, 3))


def double_pivot_graph(direct_edge=False):
    a, b = e("a", "aa"), e("b", "bb")
    c1, c2 = e("c1", "cc"), e("c2", "cc")
    pairs = [(a, c1), (c1, b), (b, c2), (c2, a)]
    if direct_edge:
        pairs.append((a, b))
    return build_graph(pairs), a, b


def test_single_square_scores_two_thirds():
    g, a, b = double_pivot_graph()
    assert cd_predict(g, "aa", "bb", PARAMS) == {ScoredPair(a, b, 2 / 3, "cycle")}


def test_directly_connected_pair_excluded():
    g, _, _ = double_pivot_graph(direct_edge=True)
    assert cd_predict(g, "aa", "bb", PARAMS) == set()


def test_pos_mismatch_excluded():
    a, b = e("a", "aa", "n"), e("b", "bb", "v")
    c1, c2 = e("c1", "cc"), e("c2", "cc")
    g = build_graph([(a, c1), (c1, b), (b, c2), (c2, a)])
    assert cd_predict(g, "aa", "bb", PARAMS) == set()


def test_unknown_language():
    g, _, _ = double_pivot_graph()
    with pytest.raises(UnknownLanguage):
        cd_predict(g, "aa", "zz", PARAMS)


def test_matches_bruteforce_on_random_graphs():
    rng = random.Random(1234)
    for _ in range(60):
        n_langs = rng.randrange(3, 6)
        g = random_multipartite_graph(rng, n_langs, rng.randrange(8, 30), 0.25, pos_tags=("n", "v"))
        langs = g.languages
        src, tgt = rng.sample(langs, 2)
        got = {(sp.source, sp.target): sp.confidence for sp in cd_predict(g, src, tgt, PARAMS)}
        assert got == oracle_cd(g, src, tgt, PARAMS)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    min_len=st.integers(3, 5),
    extra=st.integers(0, 3),
    depth=st.integers(2, 3),
)
def test_matches_bruteforce_across_constraints(seed, min_len, extra, depth):
    max_len = min(min_len + extra, 2 * depth)
    assume(max_len >= min_len)
    params = InferenceParams(constraints=CycleConstraints(min_len, max_len, depth))
    rng = random.Random(seed)
    g = random_multipartite_graph(rng, rng.randrange(3, 6), rng.randrange(10, 20), 0.35, pos_tags=("n", "v"))
    src, tgt = rng.sample(g.languages, 2)
    got = {(sp.source, sp.target): sp.confidence for sp in cd_predict(g, src, tgt, params)}
    assert got == oracle_cd(g, src, tgt, params)


@pytest.mark.parametrize("min_len, max_len", [(lo, hi) for lo in range(3, 7) for hi in range(lo, 7)])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_no_output_depends_on_the_context_depth(min_len, max_len, seed):
    # Every vertex of a cycle through the source with at most max_len
    # vertices lies within max_len // 2 of it, so each radius from the
    # least one allowed up walks the same cycles and induces the same edges.
    rng = random.Random(seed)
    g = random_multipartite_graph(rng, rng.randrange(3, 6), rng.randrange(10, 16), 0.35, pos_tags=("n", "v", "np"))
    assume(len(g.languages) >= 3)
    src, tgt, *others = g.languages
    pivots = [lang for lang in others if g.edges_between(src, lang) and g.edges_between(lang, tgt)]
    assume(pivots)  # ACD needs both pivot dictionaries
    pivot = pivots[0]
    least = (max_len + 1) // 2
    assert CycleConstraints(min_len, max_len) == (min_len, max_len, least)

    def results(depth):
        c = CycleConstraints(min_len, max_len, depth)
        params = InferenceParams(constraints=c, threshold=0.0)
        return (
            cd_predict(g, src, tgt, params),
            {v: enumerate_cycles(g, v, c) for v in g.vertices},
            predict(g, "acd", src, tgt, params, pivot),
        )

    expected = results(least)
    for depth in (least + 1, least + 2):
        assert results(depth) == expected


def reversed_pairs(pairs):
    return {ScoredPair(sp.target, sp.source, sp.confidence, sp.provenance) for sp in pairs}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    min_len=st.integers(3, 5),
    extra=st.integers(0, 3),
    depth=st.integers(2, 3),
    transitive_depth=st.integers(1, 4),
)
def test_cd_and_transitive_are_symmetric(seed, min_len, extra, depth, transitive_depth):
    # With max_len <= 2 * depth, every cycle through a lies in the ball of
    # each of its vertices, so the cycles through both a and b are the same
    # from either end.
    max_len = min(min_len + extra, 2 * depth)
    assume(max_len >= min_len)
    params = InferenceParams(constraints=CycleConstraints(min_len, max_len, depth))
    rng = random.Random(seed)
    g = random_multipartite_graph(rng, rng.randrange(2, 5), rng.randrange(10, 24), 0.35, pos_tags=("n", "v", "np"))
    assume(len(g.languages) >= 2)
    a, b = rng.sample(g.languages, 2)
    assert cd_predict(g, b, a, params) == reversed_pairs(cd_predict(g, a, b, params))
    pos = {"v", "np"}
    assert transitive_predict(g, b, a, pos, transitive_depth) == reversed_pairs(
        transitive_predict(g, a, b, pos, transitive_depth)
    )


def test_confidence_monotone_in_constraints():
    rng = random.Random(99)
    loose = InferenceParams(constraints=CycleConstraints(4, 6, 3))
    shorter = InferenceParams(constraints=CycleConstraints(4, 4, 3))
    shallower = InferenceParams(constraints=CycleConstraints(4, 4, 2))
    for _ in range(20):
        g = random_multipartite_graph(rng, 3, 20, 0.3)
        src, tgt = g.languages[0], g.languages[1]
        base = {(sp.source, sp.target): sp.confidence for sp in cd_predict(g, src, tgt, loose)}
        for tight in (shorter, shallower):
            sub = {(sp.source, sp.target): sp.confidence for sp in cd_predict(g, src, tgt, tight)}
            for key, conf in sub.items():
                assert conf <= base[key]


def test_threaded_output_identical():
    rng = random.Random(5)
    g = random_multipartite_graph(rng, 4, 25, 0.3)
    src, tgt = g.languages[0], g.languages[1]
    assert cd_predict(g, src, tgt, PARAMS) == cd_predict(g, src, tgt, PARAMS, threads=4)


def test_insertion_order_irrelevant():
    rng = random.Random(6)
    # The polysemous instance gives sources many candidates, so shuffled
    # ids change the search order and which orientation of each cycle is
    # reported.
    polysemous = generate(SynthParams(n_langs=5, n_senses=60, polysemy_rate=0.3, seed=6)).graph
    for g in (random_multipartite_graph(rng, 3, 18, 0.3), polysemous):
        pairs = list(g.edges())
        rng.shuffle(pairs)
        g2 = build_graph(pairs, extra_vertices=g.vertices)
        src, tgt = g.languages[0], g.languages[1]
        expected = cd_predict(g, src, tgt, PARAMS)
        assert expected
        assert cd_predict(g2, src, tgt, PARAMS) == expected


def test_cd_predict_leaves_no_cyclic_garbage():
    # Everything the search allocates must be freed by reference counting,
    # so a run that keeps the cyclic collector off does not grow.
    g = generate(SynthParams(n_langs=5, n_senses=60, polysemy_rate=0.3, seed=6)).graph
    src, tgt = g.languages[0], g.languages[1]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert cd_predict(g, src, tgt, PARAMS)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# -- transitive translation -------------------------------------------------


def chain(*entries):
    return build_graph(list(zip(entries, entries[1:])))


def test_transitive_chain_within_depth():
    a, x, b = e("a", "aa", "np"), e("x", "xx", "np"), e("b", "bb", "np")
    g = chain(a, x, b)
    assert transitive_predict(g, "aa", "bb", {"np"}, 4) == {ScoredPair(a, b, 1.0, "transitive")}


def test_transitive_depth_bound():
    ents = [e(f"v{i}", lang, "np") for i, lang in enumerate(["aa", "cc", "dd", "ee", "ff", "bb"])]
    g = chain(*ents)  # path length 5
    assert transitive_predict(g, "aa", "bb", {"np"}, 4) == set()
    assert transitive_predict(g, "aa", "bb", {"np"}, 5) == {ScoredPair(ents[0], ents[-1], 1.0, "transitive")}


def test_transitive_intermediate_pos_restriction():
    a, x, b = e("a", "aa", "np"), e("x", "xx", "n"), e("b", "bb", "np")
    g = chain(a, x, b)
    assert transitive_predict(g, "aa", "bb", {"np"}, 4) == set()


def test_transitive_adjacent_excluded():
    a, b = e("a", "aa", "np"), e("b", "bb", "np")
    g = build_graph([(a, b)])
    assert transitive_predict(g, "aa", "bb", {"np"}, 4) == set()


def test_transitive_pos_must_match_source():
    a, x, b = e("a", "aa", "np"), e("x", "xx", "num"), e("b", "bb", "num")
    g = chain(a, x, b)
    # b reachable through pos_set vertices but has different POS than a
    assert transitive_predict(g, "aa", "bb", {"np", "num"}, 4) == set()
