"""A tester call's first whole-graph read decides the whole graph.

Once a decision's budget covers every edge, one global cut search capped
at k decides every vertex in both orientations: the call accepts exactly
when the graph is k-connected, and otherwise rejects with the search's
cut as a validated witness.  So a schedule that draws few samples no
longer accepts a graph that is not k-connected because its samples
missed the few vertices that sit on a small side.
"""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from localcuts import edge_cut, flow, graph, testers, vertex_cut
from localcuts.edge_cut import verify_k_edge_out
from localcuts.graph import Graph, UndirectedGraph, reverse_graph
from localcuts.oracles import (oracle_min_directed_cut,
                               oracle_vertex_connectivity)
from localcuts.vertex_cut import boundary_of, verify_vertex_out

RUNS = (testers.test_k_edge_connectivity, testers.test_k_vertex_connectivity)
K5 = Graph(5, [(a, b) for a in range(1, 6) for b in range(1, 6) if a != b])
# neither 4-edge- nor 4-vertex-connected: without the arc 1 -> 2, {1} has
# three out-edges and out-neighbours, and {2} three in-edges and
# in-neighbours
K5_CUT = Graph(5, [(a, b) for a in range(1, 6) for b in range(1, 6)
                   if a != b and (a, b) != (1, 2)])


def assert_witness(g, v, k, edge):
    gg = g if v.witness_orientation == "out" else reverse_graph(g)
    members = v.witness.members
    if edge:
        assert verify_k_edge_out(gg, members, k - 1)
        assert 0 < len(members) < g.n
    else:
        assert verify_vertex_out(gg, members, k - 1)
        assert len(members | boundary_of(gg, members)) < g.n


@pytest.mark.parametrize("run", RUNS)
def test_a_schedule_of_few_samples_still_rejects(run):
    # unbounded, eps = 1, average degree 4, k = 4: one round of three
    # samples, read whole; the three miss both 1 and 2 with probability
    # 0.216, so vertex decisions on the samples alone would accept some
    # calls
    cfg = testers.TesterConfig(4, 1.0, "unbounded", 4.0, K5_CUT.n, K5_CUT.m)
    assert testers.doubling_schedule(4, 1.0, 4.0) == [(1, 3)]
    for seed in range(30):
        v = run(K5_CUT, cfg, random.Random(seed))
        assert not v.accepted
        assert v.witness_orientation == "out" and v.queries_used == K5_CUT.m
        assert v.samples_used == 1
        assert_witness(K5_CUT, v, 4, run is testers.test_k_edge_connectivity)


@st.composite
def multigraph_cases(draw):
    n = draw(st.integers(2, 8))
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=20))
    if draw(st.booleans()):
        pairs += [(a, b) for a in range(1, n + 1)
                  for b in range(1, n + 1) if a != b]
    g = Graph(n, pairs)
    cfg = testers.TesterConfig(
        draw(st.integers(1, 4)), draw(st.sampled_from([0.3, 0.5, 1.0])),
        draw(st.sampled_from(["unbounded", "bounded"])),
        draw(st.sampled_from([2.0, 4.0, 8.0])), n, g.m)
    return g, cfg, draw(st.integers(0, 2 ** 32))


# K5_CUT's vertex cuts separate only 1 from 2, so a sampled decision
# rejects only from 1 (out) or 2 (in); with three samples, seed 5 draws
# neither, and deciding the samples alone would accept
@settings(max_examples=150, deadline=None)
@given(multigraph_cases())
@example((K5_CUT, testers.TesterConfig(4, 1.0, "unbounded", 4.0, 5, 19), 5))
def test_whole_reads_decide_connectivity_exactly(case):
    g, cfg, seed = case
    adjacent = {(e.tail, e.head) for e in g.edges}
    has_separator = any((s, t) not in adjacent for s in g.vertices()
                        for t in g.vertices() if s != t)
    cells = ((testers.test_k_edge_connectivity, edge_cut,
              "detect_component_param",
              oracle_min_directed_cut(g) < cfg.k),
             (testers.test_k_vertex_connectivity, vertex_cut,
              "detect_vertex_out_component",
              has_separator and oracle_vertex_connectivity(g) < cfg.k))
    for run, module, detector, cut_below_k in cells:
        with mock.patch.object(module, detector,
                               wraps=getattr(module, detector)) as detect, \
                mock.patch.object(graph, "CountedView",
                                  wraps=graph.CountedView) as probe:
            v = run(g, cfg, random.Random(seed))
        if detect.called or probe.called:
            continue
        # no degree probe and no detector: the first decision read g whole
        assert v.accepted == (not cut_below_k)
        assert v.queries_used == g.m
        if not v.accepted:
            assert_witness(g, v, cfg.k, module is edge_cut)


def count_edge_flows(monkeypatch):
    flows = []
    real = flow.st_edge_cut_below

    def counting(*args):
        flows.append(args[4:6])
        return real(*args)

    monkeypatch.setattr(flow, "st_edge_cut_below", counting)
    return flows


def test_edge_tester_flows_on_k5(monkeypatch):
    flows = count_edge_flows(monkeypatch)
    cfg = testers.TesterConfig(3, 0.3, "bounded", 4.0, K5.n, K5.m)
    for seed in range(10):
        flows.clear()
        v = testers.test_k_edge_connectivity(K5, cfg, random.Random(seed))
        assert v.accepted and v.queries_used == K5.m
        assert len(flows) <= 4


def test_edge_tester_flows_on_a_bidirected_circulant(monkeypatch):
    # U(20, 2), the bounded edge cell of the benchmark's tester mix:
    # detector rounds first, then one whole read flowing from its root
    pairs = [(i, (i - 1 + j) % 20 + 1) for i in range(1, 21) for j in (1, 2)]
    g = UndirectedGraph(20, pairs).to_directed()
    flows = count_edge_flows(monkeypatch)
    cfg = testers.TesterConfig(2, 0.5, "bounded", 4.0, g.n, g.m)
    for seed in range(10):
        flows.clear()
        v = testers.test_k_edge_connectivity(g, cfg, random.Random(seed))
        assert v.accepted
        assert len(flows) <= g.n - 1
        assert len({s for s, _ in flows}) <= 1
