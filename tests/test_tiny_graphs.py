"""Drivers on graphs with fewer than two vertices.

Such a graph has no proper vertex side, so the testers accept it without
a query, the mkecs walks return one class per vertex, none for an
empty graph, with no special case, and the connectivity drivers return
kappa = 0 with no cut.  A graph that is not strongly connected has
kappa = 0 too, witnessed by a cut with an empty middle.
"""

import random

import pytest

from localcuts import connectivity, mkecs, testers
from localcuts.graph import Graph, UndirectedGraph


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("model", ["unbounded", "bounded"])
@pytest.mark.parametrize("test", [testers.test_k_edge_connectivity,
                                  testers.test_k_vertex_connectivity])
def test_testers_accept_at_once(n, model, test):
    cfg = testers.TesterConfig(k=2, epsilon=0.5, model=model, degree=1.0,
                               n=n, m=0)
    verdict = test(Graph(n, []), cfg, random.Random(0))
    assert verdict.accepted
    assert verdict.queries_used == 0


@pytest.mark.parametrize("n", [0, 1])
def test_mkecs_drivers_return_a_class_per_vertex(n):
    want = mkecs.Decomposition(2, [frozenset([v]) for v in range(1, n + 1)])
    und = UndirectedGraph(n, [])
    assert mkecs.baseline_mkecs(Graph(n, []), 2) == want
    assert mkecs.mkecs_directed(Graph(n, []), 2, random.Random(0)) == want
    assert mkecs.mkecs_undirected(und, 2, random.Random(0)) == want


@pytest.mark.parametrize("n", [0, 1])
def test_kappa_drivers_return_zero_without_a_cut(n):
    assert connectivity.vertex_connectivity_directed(
        Graph(n, []), random.Random(0)) == (0, None)
    assert connectivity.vertex_connectivity_undirected(
        UndirectedGraph(n, []), random.Random(0)) == (0, None)
    assert connectivity.fallback_exact(Graph(n, [])) == (0, None)


@pytest.mark.parametrize("n", [0, 1])
def test_threshold_probe_finds_no_cut_to_return(n):
    verdict = connectivity.is_connectivity_at_least(Graph(n, []), 2,
                                                    random.Random(0))
    assert verdict.found
    assert verdict.cut is None
    assert verdict.stats["mode"] == "tiny"


def test_two_triangles_joined_by_one_arc_have_kappa_zero():
    g = Graph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (3, 4)])
    kappa, cut = connectivity.vertex_connectivity_directed(g,
                                                           random.Random(0))
    assert kappa == 0
    assert cut.size == 0 and cut.validate(g)
