"""Language metagraph: pick a well-interconnected input dictionary set.

The metagraph has one node per language code and one edge per language
pair with at least one available dictionary. Selecting the largest
biconnected component keeps only language pairs that sit on cycles with
each other, which is what the cycle-based inference needs.
"""
from __future__ import annotations

from .dictio import DictionarySpec

Edge = tuple[str, str]


def biconnected_components(nodes: list[str], edges: set[Edge]) -> list[set[Edge]]:
    """Edge sets of the biconnected components of an undirected graph.

    Three passes over one depth-first order, without recursion; a bridge
    forms its own single-edge component.
    (a) An iterative DFS numbers each node when it is popped (`disc`) and
        records its tree parent.
    (b) In reverse discovery order, descendants first, each node's low
        point is the least `disc` of itself, its children's low points and
        its non-tree neighbours.
    (c) In discovery order, the tree edge into `v` starts a component when
        `low[v] >= disc[parent]`, and otherwise joins its parent's. Every
        edge belongs to the component of its endpoint discovered last.
    A component's edges do not depend on the traversal order.
    """
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    disc: dict[str, int] = {}
    parent: dict[str, str | None] = {}
    order: list[str] = []
    for root in nodes:
        stack = [(root, None)]
        while stack:
            v, p = stack.pop()
            if v not in disc:
                disc[v] = len(order)
                parent[v] = p
                order.append(v)
                stack.extend((w, v) for w in adj[v] if w not in disc)

    low: dict[str, int] = {}
    for v in reversed(order):
        low[v] = min([disc[v]] + [low[w] if parent[w] == v else disc[w] for w in adj[v] if w != parent[v]])

    comp_of: dict[str, int] = {}  # the component of the tree edge into each non-root node
    comps: list[set[Edge]] = []
    for v in order:
        p = parent[v]
        if p is not None:
            if low[v] >= disc[p]:
                comp_of[v] = len(comps)
                comps.append(set())
            else:
                comp_of[v] = comp_of[p]
    for a, b in edges:
        comps[comp_of[a if disc[a] > disc[b] else b]].add((a, b) if a < b else (b, a))
    return comps


def largest_biconnected_language_component(dicts: list[DictionarySpec]) -> list[DictionarySpec]:
    """Dictionaries whose language pairs lie in the largest biconnected component.

    Largest = most language nodes; ties broken by more edges, then by the
    lexicographically smallest sorted node list. Output order follows the
    input order; the selection itself is order-independent.
    """
    if not dicts:
        raise ValueError("need at least one dictionary spec")
    pairs = [(d.lang_a, d.lang_b) if d.lang_a < d.lang_b else (d.lang_b, d.lang_a) for d in dicts]
    edges = set(pairs)
    nodes = sorted({lang for e in edges for lang in e})
    comps = biconnected_components(nodes, edges)

    def rank(comp: set[Edge]):
        members = sorted({lang for e in comp for lang in e})
        return (-len(members), -len(comp), members)

    best = min(comps, key=rank)
    return [d for d, pair in zip(dicts, pairs) if pair in best]
