"""Drivers on graphs with fewer than two vertices.

Such a graph has no proper vertex side, so the testers accept it without
a query, and the mkecs walks return one class per vertex, none for an
empty graph, with no special case.
"""

import random

import pytest

from localcuts import mkecs, testers
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
