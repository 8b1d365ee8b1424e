from lexinduce import (
    CycleConstraints,
    InferenceParams,
    SynthParams,
    cd_predict,
    evaluate,
    generate,
)

PARAMS = InferenceParams(constraints=CycleConstraints(4, 6, 3))


def test_deterministic_per_seed():
    p = SynthParams(n_langs=3, n_senses=20, polysemy_rate=0.2, edge_prob=0.5, seed=7)
    a, b = generate(p), generate(p)
    assert set(a.graph.vertices) == set(b.graph.vertices)
    assert set(a.graph.edges()) == set(b.graph.edges())
    assert a.gold == b.gold
    c = generate(SynthParams(n_langs=3, n_senses=20, polysemy_rate=0.2, edge_prob=0.5, seed=8))
    assert set(a.graph.edges()) != set(c.graph.edges())


def test_edge_prob_zero_is_empty_graph():
    inst = generate(SynthParams(n_langs=3, n_senses=10, edge_prob=0.0, seed=1))
    assert inst.graph.edge_count == 0
    assert all(inst.gold.values())  # gold still planted
    assert cd_predict(inst.graph, *inst.languages[:2], PARAMS) == set()


def test_zero_words_per_sense_is_a_graph_without_words():
    inst = generate(SynthParams(n_langs=3, n_senses=10, words_per_sense_per_lang=0, seed=1))
    assert inst.graph.vertex_count == 0
    assert inst.gold == {} and inst.dictionaries == {}


def test_gold_counts_match_bruteforce_recount():
    p = SynthParams(n_langs=3, n_senses=15, words_per_sense_per_lang=2, polysemy_rate=0.3, edge_prob=0.5, seed=3)
    inst = generate(p)
    # recount from the sense ids encoded in the reps
    senses = {v: set(v.rep.split("_")[0][1:].split("+")) for v in inst.graph.vertices}
    for (la, lb), pairs in inst.gold.items():
        expected = {
            (u, v)
            for u in inst.graph.entries_of_lang(la)
            for v in inst.graph.entries_of_lang(lb)
            if senses[u] & senses[v]
        }
        assert pairs == expected


def test_edges_only_within_shared_senses():
    inst = generate(SynthParams(n_langs=4, n_senses=12, polysemy_rate=0.2, edge_prob=0.7, seed=5))
    for u, v in inst.graph.edges():
        su = set(u.rep.split("_")[0][1:].split("+"))
        sv = set(v.rep.split("_")[0][1:].split("+"))
        assert su & sv and u.lang != v.lang


def test_no_polysemy_means_perfect_cd_precision():
    inst = generate(SynthParams(n_langs=4, n_senses=40, words_per_sense_per_lang=2, polysemy_rate=0.0, edge_prob=0.7, seed=9))
    la, lb = inst.languages[0], inst.languages[1]
    pred = cd_predict(inst.graph, la, lb, PARAMS)
    assert pred, "instance should produce predictions"
    got = {(sp.source, sp.target) for sp in pred}
    assert got <= inst.gold[(la, lb)]
    r = evaluate(got, inst.gold[(la, lb)])
    assert r.precision == 1.0


def test_raising_edge_prob_is_monotone_in_edges_and_recall():
    # recall here counts a gold pair as recovered when it is predicted or
    # already present as an input edge; a pair that turns into a direct
    # edge at higher edge_prob stays recovered rather than dropping out
    gold = None
    prev_edges: set = set()
    prev_recall = -1.0
    for prob in (0.3, 0.6, 0.9):
        inst = generate(SynthParams(n_langs=3, n_senses=30, words_per_sense_per_lang=2, edge_prob=prob, seed=21))
        edges = {frozenset(p) for p in inst.graph.edges()}
        assert prev_edges <= edges
        prev_edges = edges
        la, lb = inst.languages[:2]
        if gold is None:
            gold = inst.gold[(la, lb)]
        assert inst.gold[(la, lb)] == gold  # word/sense stream unaffected by edge_prob
        pred = {(sp.source, sp.target) for sp in cd_predict(inst.graph, la, lb, PARAMS)}
        recovered = pred | {(u, v) for u, v in gold if inst.graph.has_edge(u, v)}
        recall = evaluate(recovered, gold).recall if recovered else 0.0
        assert recall >= prev_recall
        prev_recall = recall
