import random

import pytest

from lexinduce import (
    AcdConfig,
    CycleConstraints,
    InferenceParams,
    LexicalEntry,
    MissingPivotDictionaries,
    ScoredPair,
    SynthParams,
    UnknownLanguage,
    acd_predict,
    build_graph,
    build_pivot_table,
    generate,
    largest_biconnected_language_component,
    merge_scored,
    otic_predict,
    otic_type_b,
    predict,
    threshold_filter,
    transitive_predict,
)
from oracles import random_pivot_instance


def e(rep, lang, pos="n"):
    return LexicalEntry(rep, lang, pos)


REDUCTION_PARAMS = InferenceParams(constraints=CycleConstraints(4, 4))


def sp(conf, prov="cycle", tgt="b"):
    return ScoredPair(e("a", "aa"), e(tgt, "bb"), conf, prov)


def test_threshold_filter_boundaries():
    pairs = {sp(0.4), sp(2 / 3, tgt="b2"), sp(1.0, "type_b", tgt="b3")}
    assert threshold_filter(pairs, 0.0) == pairs
    assert {p.confidence for p in threshold_filter(pairs, 0.6)} == {2 / 3, 1.0}
    assert threshold_filter(pairs, 1.0) == {sp(1.0, "type_b", tgt="b3")}


@pytest.mark.parametrize("call, reason", [
    (lambda: threshold_filter({sp(0.5)}, -0.1), "tau must be in"),
    (lambda: threshold_filter({sp(0.5)}, 1.5), "tau must be in"),
    (lambda: transitive_predict(build_graph([(e("a", "aa"), e("b", "bb"))]), "aa", "bb", {"n"}, 0), "depth must be"),
    (lambda: largest_biconnected_language_component([]), "at least one dictionary"),
], ids=["tau-below-0", "tau-above-1", "transitive-depth-0", "bcc-of-nothing"])
def test_library_call_rejects_bad_argument(call, reason):
    with pytest.raises(ValueError, match=reason):
        call()


def test_threshold_is_inclusive():
    assert threshold_filter({sp(0.6)}, 0.6) == {sp(0.6)}


def test_merge_keeps_max_and_prefers_type_b_on_ties():
    merged = merge_scored({sp(2 / 3, "cycle")}, {sp(1.0, "type_b")})
    assert merged == {sp(1.0, "type_b")}
    tied = merge_scored({sp(1.0, "transitive")}, {sp(1.0, "type_a")}, {sp(1.0, "type_b")}, {sp(1.0, "cycle")})
    assert tied == {sp(1.0, "type_b")}


def test_merge_is_order_independent():
    groups = [{sp(0.5)}, {sp(0.9, tgt="b2")}, {sp(1.0, "type_b")}]
    assert merge_scored(*groups) == merge_scored(*reversed(groups))


def acd_fixture(extra_pairs=(), threshold=0.6):
    a, b = e("a", "aa"), e("b", "bb")
    c1, c2 = e("c1", "cc"), e("c2", "cc")
    pairs = [(a, c1), (c1, b), (b, c2), (c2, a), *extra_pairs]
    g = build_graph(pairs)
    cfg = AcdConfig(params=InferenceParams(constraints=CycleConstraints(4, 4), threshold=threshold), pivot="cc")
    return g, cfg, a, b


def test_type_b_only_pair_survives_any_threshold():
    a, c1, b = e("a", "aa"), e("c1", "cc"), e("b", "bb")
    g = build_graph([(a, c1), (c1, b)])
    cfg = AcdConfig(params=REDUCTION_PARAMS._replace(threshold=1.0), pivot="cc")
    assert acd_predict(g, "aa", "bb", cfg) == {ScoredPair(a, b, 1.0, "type_b")}


def test_cd_and_type_b_merge_to_max():
    # two pivots: type-A 4-cycle at 2/3 and also the unique transitive image
    g, cfg, a, b = acd_fixture()
    assert acd_predict(g, "aa", "bb", cfg) == {ScoredPair(a, b, 1.0, "type_b")}


def test_direct_edges_never_predicted():
    g, cfg, a, b = acd_fixture(extra_pairs=[(e("a", "aa"), e("b", "bb"))], threshold=0.0)
    assert acd_predict(g, "aa", "bb", cfg) == set()


def test_pivot_must_differ_from_endpoints():
    g, cfg, *_ = acd_fixture()
    with pytest.raises(UnknownLanguage):
        acd_predict(g, "aa", "bb", AcdConfig(params=REDUCTION_PARAMS, pivot="aa"))


def test_missing_pivot_dictionaries():
    a, b, x = e("a", "aa"), e("b", "bb"), e("x", "xx")
    g = build_graph([(a, x), (x, b), (a, e("c", "cc"))])
    cfg = AcdConfig(params=REDUCTION_PARAMS, pivot="cc")
    with pytest.raises(MissingPivotDictionaries):
        acd_predict(g, "aa", "bb", cfg)


def test_threshold_monotone_nesting():
    rng = random.Random(11)
    g = random_pivot_instance(rng, n_a=10, n_c=8, n_b=10, edge_prob=0.3)
    prev = None
    for tau in [i / 10 for i in range(11)]:
        cfg = AcdConfig(params=REDUCTION_PARAMS._replace(threshold=tau), pivot="cc")
        cur = acd_predict(g, "aa", "bb", cfg)
        if prev is not None:
            assert cur <= prev
        prev = cur


@pytest.mark.parametrize("tau", [0.1, 0.5, 2 / 3])
def test_reduces_to_otic_with_single_pivot(tau):
    rng = random.Random(314)
    for _ in range(50):
        g = random_pivot_instance(rng, n_a=8, n_c=6, n_b=8, edge_prob=0.3, pos_tags=("n", "v"))
        try:
            table = build_pivot_table(g, "aa", "cc", "bb")
        except MissingPivotDictionaries:
            continue
        cfg = AcdConfig(params=REDUCTION_PARAMS._replace(threshold=tau), pivot="cc")
        got = {(sp.source, sp.target) for sp in acd_predict(g, "aa", "bb", cfg)}
        assert got == otic_predict(table)


def synth_with_direct_dictionary(seed):
    """A 4-language synth instance whose input includes the aa-ab dictionary."""
    inst = generate(SynthParams(n_langs=4, n_senses=80, polysemy_rate=0.2, edge_prob=0.6, seed=seed))
    assert inst.dictionaries[("aa", "ab")]
    return inst.graph, inst.dictionaries[("aa", "ab")]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cd_and_acd_never_predict_an_input_edge(seed):
    g, direct = synth_with_direct_dictionary(seed)
    params = InferenceParams(threshold=0.0)
    for algo in ("cd", "acd"):
        got = predict(g, algo, "aa", "ab", params, pivot="ac")
        assert got
        assert not {(p.source, p.target) for p in got} & set(direct)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_otic_is_otic_predict_with_direct_edges(seed):
    g, _ = synth_with_direct_dictionary(seed)
    table = build_pivot_table(g, "aa", "ac", "ab")
    type_b = otic_type_b(table)
    want = {ScoredPair(a, b, 1.0, "type_b" if (a, b) in type_b else "type_a") for a, b in otic_predict(table)}
    assert predict(g, "otic", "aa", "ab", InferenceParams(), pivot="ac") == want
    assert any(g.has_edge(p.source, p.target) for p in want)  # the direct-edge rule is exercised


def test_predict_rejects_unknown_algorithm_and_missing_pivot():
    g, cfg, *_ = acd_fixture()
    with pytest.raises(ValueError, match="unknown algorithm"):
        predict(g, "foo", "aa", "bb", cfg.params, pivot="cc")
    for algo in ("otic", "acd"):
        with pytest.raises(UnknownLanguage):
            predict(g, algo, "aa", "bb", cfg.params)


@pytest.mark.parametrize("algo", ["otic", "cd", "acd"])
def test_predict_rejects_same_source_and_target(algo):
    g, cfg, *_ = acd_fixture()
    with pytest.raises(ValueError, match="source and target are both 'aa'"):
        predict(g, algo, "aa", "aa", cfg.params, pivot="cc")


def test_acd_predict_cuts_at_the_config_threshold_over_the_params_one():
    g, _ = synth_with_direct_dictionary(1)
    params = InferenceParams(threshold=0.9)
    at = {tau: predict(g, "acd", "aa", "ab", params._replace(threshold=tau), pivot="ac") for tau in (0.0, 0.9)}
    assert at[0.0] > at[0.9]  # the cut matters here
    assert acd_predict(g, "aa", "ab", AcdConfig(params._replace(threshold=0.0), "ac")) == at[0.0]
