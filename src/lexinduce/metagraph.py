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

    Iterative Hopcroft-Tarjan articulation-point decomposition; a bridge
    forms its own single-edge component. Traversal order is fixed
    (sorted nodes, sorted neighbors) so output is deterministic.
    """
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for n in adj:
        adj[n].sort()

    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    comps: list[set[Edge]] = []
    edge_stack: list[Edge] = []
    counter = 0

    for root in sorted(adj):
        if root in disc:
            continue
        # stack holds (vertex, parent, iterator index into adj[vertex])
        stack = [(root, None, 0)]
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            v, parent, i = stack.pop()
            if i < len(adj[v]):
                stack.append((v, parent, i + 1))
                w = adj[v][i]
                if w == parent:
                    continue
                if w not in disc:
                    disc[w] = low[w] = counter
                    counter += 1
                    edge_stack.append((v, w))
                    stack.append((w, v, 0))
                elif disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] >= disc[pv]:
                        comp: set[Edge] = set()
                        while edge_stack:
                            a, b = edge_stack.pop()
                            comp.add((a, b) if a < b else (b, a))
                            if (a, b) == (pv, v):
                                break
                        comps.append(comp)  # never empty: it ends at the tree edge (pv, v)
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
