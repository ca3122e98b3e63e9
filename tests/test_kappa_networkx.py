"""Both kappa drivers against networkx at n = 15-60.

Above the brute-force oracles' sizes the other reference,
`fallback_exact`, runs through the same `PairCuts`, `flow.Network` and
`flow.ProvenReach` as the drivers, so a fault that over-proves pairs
could make both miss the same cut.  networkx shares none of that code.
The inputs are the shapes of `tests/test_kappa_large_n.py`, relabelled.

On undirected inputs kappa must equal `networkx.node_connectivity`.  On
digraphs it must equal the minimum of networkx's
`local_node_connectivity` over ordered non-adjacent pairs, or n - 1 when
there are none: `node_connectivity` is no reference there.  It bounds
kappa by the minimum total degree and flows only from one vertex and
between its neighbours, which is Esfahanian's undirected argument, and
on a chorded cycle with a vertex of one successor it answers 2 where
kappa is 1 (the last test).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from localcuts.connectivity import (vertex_connectivity_directed,
                                    vertex_connectivity_undirected)
from localcuts.graph import Graph, UndirectedGraph

from test_kappa_large_n import SHAPES

nx = pytest.importorskip("networkx")
nx_connectivity = pytest.importorskip("networkx.algorithms.connectivity")
nx_flow = pytest.importorskip("networkx.algorithms.flow")


def instance(seed):
    """(n, pairs, driver seed): a shape at n = 15-60, relabelled."""
    rng = random.Random(seed)
    n = rng.randint(15, 60)
    driver_seed = rng.random()
    pairs = rng.choice(SHAPES)(n, rng)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    pairs = [(perm[a - 1], perm[b - 1]) for a, b in pairs]
    rng.shuffle(pairs)
    return n, pairs, driver_seed


def nx_digraph(n, pairs):
    h = nx.DiGraph()
    h.add_nodes_from(range(1, n + 1))
    h.add_edges_from(pairs)
    return h


def pairwise_kappa(h):
    """Minimum local vertex connectivity over ordered non-adjacent pairs,
    each flow cut off at the best so far, on one auxiliary and one
    residual network."""
    aux = nx_connectivity.build_auxiliary_node_connectivity(h)
    residual = nx_flow.build_residual_network(aux, "capacity")
    best = h.number_of_nodes() - 1
    for s in h:
        for t in h:
            if s == t or h.has_edge(s, t):
                continue
            best = min(best, nx_connectivity.local_node_connectivity(
                h, s, t, auxiliary=aux, residual=residual, cutoff=best))
            if best == 0:
                return 0
    return best


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_kappa_equals_networkx(seed, directed):
    n, pairs, driver_seed = instance(seed)
    if directed:
        g = Graph(n, pairs)
        kappa, cut = vertex_connectivity_directed(
            g, random.Random(driver_seed))
        assert kappa == pairwise_kappa(nx_digraph(n, pairs))
        dg = g
    else:
        und = UndirectedGraph(n, pairs)
        kappa, cut = vertex_connectivity_undirected(
            und, random.Random(driver_seed))
        h = nx.Graph()
        h.add_nodes_from(range(1, n + 1))
        h.add_edges_from(pairs)
        assert kappa == nx.node_connectivity(h)
        dg = und.to_directed()
    assert cut is None if kappa == n - 1 else \
        cut.size == kappa and cut.validate(dg)


def test_networkx_node_connectivity_overshoots_on_a_digraph():
    n, pairs, driver_seed = instance(28)
    assert n == 22
    g = Graph(n, pairs)
    # one vertex has a single distinct successor, which cuts it off
    assert any(len({g.head(e) for e in g.out_ids(v)}) == 1
               for v in g.vertices())
    kappa, cut = vertex_connectivity_directed(g, random.Random(driver_seed))
    assert kappa == 1 and cut.validate(g)
    h = nx_digraph(n, pairs)
    assert pairwise_kappa(h) == 1
    assert nx.node_connectivity(h) == 2
