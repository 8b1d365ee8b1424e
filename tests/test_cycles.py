import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import networkx as nx

from lexinduce import (
    CycleConstraints,
    LexicalEntry,
    NotACycle,
    UnknownVertex,
    build_graph,
    cycle_density,
    enumerate_cycles,
)
from lexinduce.inference import MAX_CYCLE_LEN
from oracles import cycle_key, oracle_cycles, random_multipartite_graph, to_nx


def e(rep, lang, pos="n"):
    return LexicalEntry(rep, lang, pos)


def square():
    # chordless 4-cycle a - c1 - b - c2 - a
    a, b = e("a", "aa"), e("b", "bb")
    c1, c2 = e("c1", "cc"), e("c2", "cc")
    return build_graph([(a, c1), (c1, b), (b, c2), (c2, a)]), (a, c1, b, c2)


def four_clique():
    langs = ["aa", "bb", "cc", "dd"]
    vs = [e(f"v{i}", langs[i]) for i in range(4)]
    return build_graph([(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]), vs


def test_density_chordless_4_cycle():
    g, cyc = square()
    assert cycle_density(g, cyc) == pytest.approx(2 / 3, abs=1e-12)


def test_density_4_clique():
    g, vs = four_clique()
    assert cycle_density(g, vs) == pytest.approx(1.0, abs=1e-12)


def test_density_chordless_6_cycle():
    vs = [e(f"v{i}", lang) for i, lang in enumerate(["aa", "bb", "cc", "dd", "ee", "ff"])]
    g = build_graph(list(zip(vs, vs[1:] + vs[:1])))
    assert cycle_density(g, vs) == pytest.approx(0.4, abs=1e-12)


def test_density_rejects_non_cycles():
    g, (a, c1, b, c2) = square()
    with pytest.raises(NotACycle):
        cycle_density(g, (a, c1, b))  # b-a edge missing
    with pytest.raises(NotACycle):
        cycle_density(g, (a, c1, b, c1))  # repeated vertex
    with pytest.raises(NotACycle):
        cycle_density(g, (a, c1))


def test_triangle_enumerated_once():
    a, b, c = e("a", "aa"), e("b", "bb"), e("c", "cc")
    g = build_graph([(a, b), (b, c), (c, a)])
    cycles = enumerate_cycles(g, a, CycleConstraints(3, 3))
    assert len(cycles) == 1
    (cyc,) = cycles
    assert cyc[0] == a and set(cyc) == {a, b, c}


def test_min_len_filters_out_short_cycles():
    g, (a, *_rest) = square()
    assert enumerate_cycles(g, a, CycleConstraints(5, 6)) == set()


def test_canonical_forms_start_at_source():
    g, (a, c1, b, c2) = square()
    cycles = enumerate_cycles(g, a, CycleConstraints(4, 4))
    assert len(cycles) == 1
    (cyc,) = cycles
    assert cyc[0] == a and cycle_key(cyc) == cycle_key((a, c1, b, c2))


def test_unknown_vertex():
    g, _ = square()
    with pytest.raises(UnknownVertex):
        enumerate_cycles(g, e("zz", "zz"), CycleConstraints())


def _verify_cycle(g, cyc, c):
    """Independent check: closed, simple, edges present, constraints met."""
    assert c.min_len <= len(cyc) <= c.max_len
    assert len(set(cyc)) == len(cyc)
    G = to_nx(g)
    for u, v in zip(cyc, list(cyc[1:]) + [cyc[0]]):
        assert G.has_edge(u, v)
    dist = nx.single_source_shortest_path_length(G, cyc[0], cutoff=c.context_depth)
    assert all(v in dist for v in cyc)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    min_len=st.integers(3, 5),
    extra=st.integers(0, 2),
)
def test_enumeration_matches_bruteforce(seed, min_len, extra):
    max_len = min_len + extra
    rng = random.Random(seed)
    g = random_multipartite_graph(rng, rng.randrange(3, 6), 12, 0.35)
    c = CycleConstraints(min_len, max_len)
    for src in g.vertices:
        ours = enumerate_cycles(g, src, c)
        for cyc in ours:
            assert cyc[0] == src
            assert g.id_of(cyc[1]) < g.id_of(cyc[-1])  # the documented orientation
            _verify_cycle(g, cyc, c)
        assert {cycle_key(cyc) for cyc in ours} == oracle_cycles(g, src, min_len, max_len, c.context_depth)


def test_constraints_validation():
    with pytest.raises(ValueError):
        CycleConstraints(2, 4)
    with pytest.raises(ValueError):
        CycleConstraints(4, 3)
    with pytest.raises(ValueError, match="max_len"):
        CycleConstraints(4, MAX_CYCLE_LEN + 1)


def test_context_depth_defaults_to_the_least_radius_allowed():
    assert CycleConstraints() == (4, 6)
    for hi in range(3, MAX_CYCLE_LEN + 1):
        for lo in range(3, hi + 1):
            assert CycleConstraints(lo, hi).context_depth == (hi + 1) // 2
