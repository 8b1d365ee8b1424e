import random

from lexinduce import DictionarySpec, largest_biconnected_language_component
from lexinduce.metagraph import biconnected_components


def spec(a, b):
    return DictionarySpec(f"{a}-{b}.tsv", a, b)


def langs_of(specs):
    return sorted({l for s in specs for l in (s.lang_a, s.lang_b)})


def test_two_disjoint_triangles_tiebreak():
    tri1 = [spec("en", "es"), spec("es", "ca"), spec("ca", "en")]
    tri2 = [spec("fr", "pt"), spec("pt", "oc"), spec("oc", "fr")]
    out = largest_biconnected_language_component(tri2 + tri1)
    assert sorted(out, key=str) == sorted(tri1, key=str)  # "ca,en,es" < "fr,oc,pt"


def test_pendant_edge_excluded():
    dicts = [spec("en", "es"), spec("es", "ca"), spec("ca", "en"), spec("es", "fr")]
    out = largest_biconnected_language_component(dicts)
    assert langs_of(out) == ["ca", "en", "es"] and len(out) == 3


def test_single_edge_graph():
    out = largest_biconnected_language_component([spec("en", "es")])
    assert out == [spec("en", "es")]


def test_tree_returns_smallest_single_edge():
    dicts = [spec("en", "es"), spec("es", "fr"), spec("fr", "pt")]
    out = largest_biconnected_language_component(dicts)
    # every edge is its own 2-node component; node-list tie-break picks en-es
    assert out == [spec("en", "es")]


def test_duplicate_pair_dictionaries_all_returned():
    dicts = [
        spec("en", "es"),
        DictionarySpec("alt.tsv", "es", "en"),
        spec("es", "ca"),
        spec("ca", "en"),
        spec("es", "fr"),
    ]
    out = largest_biconnected_language_component(dicts)
    assert len(out) == 4 and langs_of(out) == ["ca", "en", "es"]


def test_order_independence():
    dicts = [spec("en", "es"), spec("es", "ca"), spec("ca", "en"), spec("es", "fr"), spec("fr", "pt"), spec("pt", "es")]
    base = largest_biconnected_language_component(dicts)
    for seed in range(10):
        shuffled = dicts[:]
        random.Random(seed).shuffle(shuffled)
        assert set(map(str, largest_biconnected_language_component(shuffled))) == set(map(str, base))


def test_components_against_networkx():
    import networkx as nx

    rng = random.Random(7)
    for p in (0.15, 0.3, 0.6):  # sparse graphs have bridges and several connected parts
        for _ in range(50):
            n = rng.randrange(3, 12)
            edges = set()
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        edges.add((f"l{i:02d}", f"l{j:02d}"))
            if not edges:
                continue
            nodes = sorted({x for e in edges for x in e})
            ours = {frozenset(c) for c in biconnected_components(nodes, edges)}
            G = nx.Graph(edges)
            theirs = {
                frozenset(tuple(sorted(e)) for e in comp)
                for comp in nx.biconnected_component_edges(G)
            }
            assert ours == theirs
    # a path deeper than the recursion limit: every edge is a bridge
    path = [f"v{i:04d}" for i in range(2000)]
    comps = biconnected_components(path, {(a, b) for a, b in zip(path, path[1:])})
    assert sorted(map(sorted, comps)) == [[(a, b)] for a, b in zip(path, path[1:])]


def test_large_selection_shape():
    # metagraph whose largest biconnected component spans 13 languages and
    # 27 pairs, surrounded by pendant and bridged extras
    rng = random.Random(42)
    core = [f"x{c}" for c in "abcdefghijklm"]
    edges = {tuple(sorted((core[i], core[(i + 1) % 13]))) for i in range(13)}  # ring = biconnected
    while len(edges) < 27:
        i, j = rng.sample(range(13), 2)
        edges.add(tuple(sorted((core[i], core[j]))))
    dicts = [spec(a, b) for a, b in sorted(edges)]
    dicts += [spec("xa", "zz"), spec("zz", "zy")]  # pendant chain
    out = largest_biconnected_language_component(dicts)
    assert len(out) == 27 and langs_of(out) == sorted(core)
