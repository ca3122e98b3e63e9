"""One connectivity call never flows the same (graph, s, t, limit) twice.

vertex_connectivity_directed and _undirected keep one memo of pair
answers per call, shared by the sampled pair flows and the exact
fallback across every probe of the doubling and bisection search.
"""

import random

from localcuts import flow
from localcuts.connectivity import (vertex_connectivity_directed,
                                    vertex_connectivity_undirected)
from localcuts.graph import Graph, UndirectedGraph
from localcuts.oracles import oracle_vertex_connectivity


def circulant_pairs(n, d):
    """Edges i -> i+1, ..., i+d (mod n) of the circulant C(n, d)."""
    return [(i, (i - 1 + j) % n + 1)
            for i in range(1, n + 1) for j in range(1, d + 1)]


def recording_flows(monkeypatch):
    """Wrap flow.st_vertex_cut_at_most; returns the list of its calls."""
    calls = []
    graphs = []         # keeps every graph alive so that ids stay unique
    inner = flow.st_vertex_cut_at_most

    def wrapper(g, s, t, k, *rest):
        graphs.append(g)
        calls.append((id(g), s, t, k))
        return inner(g, s, t, k, *rest)

    monkeypatch.setattr(flow, "st_vertex_cut_at_most", wrapper)
    return calls


def test_directed_call_flows_each_pair_once(monkeypatch):
    g = Graph(12, circulant_pairs(12, 3))
    want = oracle_vertex_connectivity(g)
    calls = recording_flows(monkeypatch)
    for seed in range(5):
        calls.clear()
        kappa, cut = vertex_connectivity_directed(g, random.Random(seed))
        assert calls
        assert len(set(calls)) == len(calls)
        assert kappa == want
        assert cut.size == kappa and cut.validate(g)


def test_undirected_call_flows_each_pair_once(monkeypatch):
    und = UndirectedGraph(10, circulant_pairs(10, 3))
    gd = und.to_directed()
    want = oracle_vertex_connectivity(gd)
    calls = recording_flows(monkeypatch)
    for seed in range(5):
        calls.clear()
        kappa, cut = vertex_connectivity_undirected(und, random.Random(seed))
        assert calls
        assert len(set(calls)) == len(calls)
        assert kappa == want
        assert cut.size == kappa and cut.validate(gd)
