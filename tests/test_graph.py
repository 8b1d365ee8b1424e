import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexinduce import (
    IntraLanguagePair,
    LexicalEntry,
    build_graph,
    lang_codes,
)
from lexinduce.inference import _ball
from oracles import random_multipartite_graph, to_nx

import networkx as nx


def e(rep, lang, pos="n"):
    return LexicalEntry(rep, lang, pos)


def test_empty_input():
    g = build_graph([])
    assert g.vertex_count == 0 and g.edge_count == 0


def test_direct_construction():
    g = build_graph([(e("a", "aa"), e("c1", "cc")), (e("c1", "cc"), e("b", "bb"))])
    assert g.vertex_count == 3 and g.edge_count == 2


def test_undirected_dedup():
    g = build_graph([(e("a", "aa"), e("b", "bb")), (e("b", "bb"), e("a", "aa"))])
    assert g.edge_count == 1
    assert g.has_edge(e("a", "aa"), e("b", "bb"))
    assert g.has_edge(e("b", "bb"), e("a", "aa"))
    assert not g.has_edge(e("a", "aa"), e("z", "zz"))  # an entry not in the graph


def test_intra_language_pair_rejected():
    with pytest.raises(IntraLanguagePair):
        build_graph([(e("a", "aa"), e("b", "aa"))])


def test_indexes_consistent():
    g = build_graph([(e("a", "aa"), e("c", "cc")), (e("c", "cc"), e("b", "bb"))])
    assert set(g.languages) == {"aa", "bb", "cc"}
    assert g.entries_of_lang("cc") == (e("c", "cc"),)
    assert g.edges_between("aa", "cc") == ((e("a", "aa"), e("c", "cc")),)
    # orientation follows the requested language order
    assert g.edges_between("cc", "aa") == ((e("c", "cc"), e("a", "aa")),)


def test_edge_roundtrip():
    pairs = [(e("a", "aa"), e("c", "cc")), (e("c", "cc"), e("b", "bb")), (e("a", "aa"), e("b", "bb"))]
    g = build_graph(pairs + [(v, u) for u, v in pairs])
    rebuilt = {frozenset(p) for p in g.edges()}
    assert rebuilt == {frozenset(p) for p in pairs}


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), depth=st.integers(0, 4))
def test_ball_matches_networkx(seed, depth):
    rng = random.Random(seed)
    g = random_multipartite_graph(rng, 3, 12, 0.3)
    src = g.vertices[rng.randrange(g.vertex_count)]
    sid = g.id_of(src)
    gids, dist, nbrs = _ball(g, sid, depth)
    assert len(gids) == len(set(gids)) == len(dist) == len(nbrs)
    assert {g.entry_of(v): d for v, d in zip(gids, dist)} == nx.single_source_shortest_path_length(
        to_nx(g), src, cutoff=depth
    )
    assert gids[0] == sid
    if depth:
        # the source's neighbours take local ids 1..deg in ascending graph id
        assert gids[1 : len(g.adj(sid)) + 1] == sorted(g.adj(sid))
    assert dist == sorted(dist)
    local = {v: i for i, v in enumerate(gids)}
    for i, v in enumerate(gids):
        if dist[i] < depth:
            # a shallower vertex's row is all its neighbours, in graph order
            assert [gids[j] for j in nbrs[i]] == list(g.adj(v))
        else:
            # a depth-layer row is exactly its shallower neighbours, in local-id order
            assert nbrs[i] == sorted(local[w] for w in g.adj(v) if w in local and dist[local[w]] < depth)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), n_langs=st.integers(2, 5), edge_prob=st.sampled_from([0.1, 0.3, 0.7]))
def test_graph_matches_networkx(seed, n_langs, edge_prob):
    rng = random.Random(seed)
    langs = lang_codes(n_langs)
    entries = [e(f"v{i}", rng.choice(langs)) for i in range(16)]
    pairs = [(u, v) for u, v in itertools.combinations(entries, 2) if u.lang != v.lang and rng.random() < edge_prob]
    G = nx.Graph(pairs)
    # every pair once more, half of them reversed, all in random order
    pairs += [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    rng.shuffle(pairs)
    # extra vertices: some already in the graph, some new; the pairs come as a one-shot iterator
    new = [e(f"x{i}", rng.choice(langs)) for i in range(3)]
    extra = new + rng.sample(sorted(G.nodes), min(3, len(G)))
    rng.shuffle(extra)
    G.add_nodes_from(extra)
    g = build_graph(iter(pairs), iter(extra))
    assert set(g.vertices) == set(G.nodes)
    assert list(g.vertices[-len(new):]) == [v for v in extra if v in new]
    for v in new:
        assert list(g.adj(g.id_of(v))) == []

    edges = list(map(frozenset, g.edges()))
    assert len(edges) == g.edge_count == G.number_of_edges()
    assert set(edges) == set(map(frozenset, G.edges()))
    for u, v in itertools.product(g.vertices, repeat=2):
        assert g.has_edge(u, v) == G.has_edge(u, v)
    oriented = [p for u, v in G.edges() for p in ((u, v), (v, u))]
    for la, lb in itertools.product(langs, repeat=2):
        got = g.edges_between(la, lb)
        assert len(got) == len(set(got))
        assert set(got) == {(u, v) for u, v in oriented if u.lang == la and v.lang == lb}
    for vid in range(g.vertex_count):
        assert list(g.adj(vid)) == sorted(set(g.adj(vid)))
