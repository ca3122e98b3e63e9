"""Every layer reads edge ids and endpoints only: no driver builds an
Edge, a graph builds its Edge list only when asked for it, and
`edge(eid)` builds only the one Edge asked for."""

import random

import pytest

from localcuts import (connectivity, flow, graph, mkecs, testers,
                       vertex_cut)
from localcuts.edge_cut import (detect_component_param, internal_edge_count,
                                out_edge_ids)
from localcuts.generators import planted_edge_component
from localcuts.graph import Edge, Graph, is_strongly_connected
from localcuts.vertex_cut import (boundary_of, detect_vertex_out_component,
                                  symmetric_volume)

from test_mkecs_requeue import clique_chain


def count_edges(monkeypatch):
    """The arguments of every Edge built from here on."""
    built = []

    def counted_edge(*args):
        built.append(args)
        return Edge(*args)

    monkeypatch.setattr(graph, "Edge", counted_edge)
    monkeypatch.setattr(vertex_cut, "Edge", counted_edge)
    return built


def test_detection_path_builds_no_edge(monkeypatch):
    built = count_edges(monkeypatch)
    rng = random.Random(8)
    g, cert = planted_edge_component(10, 2, 2000, rng)
    comp = cert["component"]
    blob = [v for v in g.vertices() if v not in comp]
    for s in (1, 6, blob[0], blob[-1]):
        res = detect_component_param(g, s, 2, 12, 0.99, rng)
        assert bool(res) == (s in comp)
        res = detect_vertex_out_component(g, s, 2, 12, 0.99, rng,
                                          symmetric=True)
        assert bool(res) == (s in comp)
    assert len(out_edge_ids(g, comp)) == 2
    assert internal_edge_count(g, comp) == 10
    assert len(boundary_of(g, comp)) <= 2
    assert symmetric_volume(g, comp) > 10
    assert is_strongly_connected(g)
    assert built == []
    # the API boundary builds the one Edge asked for, and no Edge list
    assert g.edge(0) == Edge(0, g.tail(0), g.head(0))
    assert len(built) == 1 and g._edges is None


def test_edge_has_no_instance_dict():
    assert not hasattr(Edge(0, 1, 2), "__dict__")


def run_tester(test, g, *cfg):
    return test(g, testers.TesterConfig(*cfg, g.n, g.m), random.Random(2))


# every public driver, on the Graph g or the UndirectedGraph und of one
# 2-link chain of 6-cliques; the testers sample on g at k = 2 and read
# the bidirected K5 k5 whole (bounded model, k = 3), and none reaches the
# degree probes, which hand their caller an Edge
DRIVERS = {
    "detect_component_param": lambda g, und, k5: detect_component_param(
        g, 1, 2, 12, 0.99, random.Random(1)),
    "detect_vertex_out_component": lambda g, und, k5:
        detect_vertex_out_component(g, 1, 2, 12, 0.99, random.Random(1),
                                    symmetric=True),
    "is_connectivity_at_least": lambda g, und, k5:
        connectivity.is_connectivity_at_least(g, 2, random.Random(1)),
    "fallback_exact": lambda g, und, k5: connectivity.fallback_exact(g),
    "vertex_connectivity_directed": lambda g, und, k5:
        connectivity.vertex_connectivity_directed(g, random.Random(1)),
    "vertex_connectivity_undirected": lambda g, und, k5:
        connectivity.vertex_connectivity_undirected(und, random.Random(1)),
    "mkecs_directed": lambda g, und, k5: mkecs.mkecs_directed(
        g, 3, random.Random(1)),
    "mkecs_undirected": lambda g, und, k5: mkecs.mkecs_undirected(
        und, 3, random.Random(1)),
    "baseline_mkecs": lambda g, und, k5: mkecs.baseline_mkecs(g, 3),
    "baseline_mkecs_undirected": lambda g, und, k5:
        mkecs.baseline_mkecs_undirected(und, 3),
    "sparse_certificate": lambda g, und, k5: mkecs.sparse_certificate(und, 3),
    "scan_first_certificate": lambda g, und, k5:
        connectivity.scan_first_certificate(und, 3),
    "global_edge_cut_below": lambda g, und, k5:
        flow.global_edge_cut_below(g, 3),
    "edge_tester": lambda g, und, k5: run_tester(
        testers.test_k_edge_connectivity, g, 2, 0.5, "unbounded", 4.0),
    "vertex_tester": lambda g, und, k5: run_tester(
        testers.test_k_vertex_connectivity, g, 2, 0.5, "unbounded", 4.0),
    "edge_tester_whole_read": lambda g, und, k5: run_tester(
        testers.test_k_edge_connectivity, k5, 3, 0.3, "bounded", 4.0),
    "vertex_tester_whole_read": lambda g, und, k5: run_tester(
        testers.test_k_vertex_connectivity, k5, 3, 0.3, "bounded", 4.0),
}


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_no_driver_builds_an_edge(monkeypatch, name):
    und = clique_chain(4, random.Random(3))
    g = und.to_directed()
    k5 = Graph(5, [(a, b) for a in range(1, 6) for b in range(1, 6) if a != b])
    built = count_edges(monkeypatch)
    DRIVERS[name](g, und, k5)
    assert built == []
    # so no graph, input or built by the driver, cached its Edge list
    assert g._edges is None and k5._edges is None
