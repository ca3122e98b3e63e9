"""The detection path reads edge ids and endpoints only: it builds no
Edge, and a graph builds its Edge list only when asked for it."""

import random

from localcuts import graph, vertex_cut
from localcuts.edge_cut import (detect_component_param, internal_edge_count,
                                out_edge_ids)
from localcuts.generators import planted_edge_component
from localcuts.graph import Edge, is_strongly_connected
from localcuts.vertex_cut import (boundary_of, detect_vertex_out_component,
                                  symmetric_volume)


def test_detection_path_builds_no_edge(monkeypatch):
    built = []

    def counted_edge(*args):
        built.append(args)
        return Edge(*args)

    monkeypatch.setattr(graph, "Edge", counted_edge)
    monkeypatch.setattr(vertex_cut, "Edge", counted_edge)
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
    # the API boundary builds the whole list once, through the counter
    assert g.edge(0) is g.edges[0]
    assert len(built) == g.m


def test_edge_has_no_instance_dict():
    assert not hasattr(Edge(0, 1, 2), "__dict__")
