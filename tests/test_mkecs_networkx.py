"""Both local mkecs drivers agree with networkx on simple graphs.

`networkx.algorithms.connectivity.k_edge_subgraphs` computes the maximal
k-edge-connected subgraphs by an independent method, so it checks the
decomposition beyond the library's own baseline.  The graphs have at most
40 vertices: clustered random digraphs (unbalanced), arc-disjoint unions
of directed cycles and bidirected graphs (balanced, so read forward
only).  The undirected driver gets the underlying simple graph.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from localcuts import mkecs
from localcuts.graph import Graph, UndirectedGraph

nx = pytest.importorskip("networkx")


def clustered(rng, n, directed):
    """Random clusters of 1-8 vertices, each dense at its own rate, and
    up to 2n random links between them."""
    labels = rng.sample(range(1, n + 1), n)
    arcs = set()
    i = 0
    while i < n:
        cluster = labels[i:i + rng.randint(1, 8)]
        i += len(cluster)
        p = rng.uniform(0.3, 1.0)
        arcs.update((a, b) for a in cluster for b in cluster
                    if a != b and (directed or a < b) and rng.random() < p)
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(range(1, n + 1), 2)
        if directed or a < b:
            arcs.add((a, b))
    return arcs


def cycle_union(rng, n):
    """Arc-disjoint directed cycles of 2-8 vertices: balanced."""
    arcs = set()
    for _ in range(rng.randint(1, 3 * n)):
        cycle = rng.sample(range(1, n + 1), rng.randint(2, min(n, 8)))
        new = list(zip(cycle, cycle[1:] + cycle[:1]))
        if arcs.isdisjoint(new):
            arcs.update(new)
    return arcs


@st.composite
def simple_digraphs(draw):
    """(n, arcs): no self-loops and no parallel arcs; n <= 40."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["clustered", "cycles", "bidirected"]))
    if kind == "clustered":
        arcs = clustered(rng, n, True)
    elif kind == "cycles":
        arcs = cycle_union(rng, n)
    else:
        arcs = clustered(rng, n, False)
        arcs |= {(b, a) for a, b in arcs}
    return n, sorted(arcs)


def networkx_classes(graph, n, k):
    graph.add_nodes_from(range(1, n + 1))
    subgraphs = nx.algorithms.connectivity.k_edge_subgraphs(graph, k)
    return sorted(tuple(sorted(c)) for c in subgraphs)


@settings(max_examples=200, deadline=None)
@given(simple_digraphs(), st.integers(1, 5), st.integers(0, 2 ** 32))
def test_both_drivers_equal_networkx(graph, k, seed):
    n, arcs = graph
    directed = mkecs.mkecs_directed(Graph(n, arcs), k, random.Random(seed))
    assert directed.as_sorted() == networkx_classes(nx.DiGraph(arcs), n, k)
    edges = sorted({(min(a, b), max(a, b)) for a, b in arcs})
    undirected = mkecs.mkecs_undirected(UndirectedGraph(n, edges), k,
                                        random.Random(seed))
    assert undirected.as_sorted() == networkx_classes(nx.Graph(edges), n, k)
