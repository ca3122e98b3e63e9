"""Query accounting of the testers: a whole-graph read is charged m, and
the first one decides the call for every vertex in both orientations."""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from localcuts import edge_cut, graph, testers, vertex_cut
from localcuts.edge_cut import out_edge_ids, verify_k_edge_out
from localcuts.graph import Graph, reverse_graph
from localcuts.oracles import (oracle_min_directed_cut,
                               oracle_vertex_connectivity)
from localcuts.testers import doubling_schedule
from localcuts.vertex_cut import boundary_of, verify_vertex_out

RUNS = (testers.test_k_edge_connectivity, testers.test_k_vertex_connectivity)


def test_clique_is_read_once_per_call():
    g = Graph(5, [(a, b) for a in range(1, 6)
                  for b in range(1, 6) if a != b])
    cfg = testers.TesterConfig(3, 0.3, "bounded", 4.0, g.n, g.m)
    schedule = doubling_schedule(
        3, 0.3 / testers.BOUNDED_EPSILON_SHRINK, 4.0)
    scheduled = sum(count for _, count in schedule)
    for run in RUNS:
        for seed in range(30):
            v = run(g, cfg, random.Random(seed))
            assert v.accepted
            assert v.queries_used <= g.m
            assert v.samples_used < scheduled


def test_no_early_accept_while_a_decision_is_yes():
    # K5 without the arc 1 -> 2: only ("out", 1) and ("in", 2) are Yes,
    # and {3, 4, 5} separates them, so the graph is not 4-connected
    g = Graph(5, [(a, b) for a in range(1, 6) for b in range(1, 6)
                  if a != b and (a, b) != (1, 2)])
    cfg = testers.TesterConfig(4, 0.3, "bounded", 4.0, g.n, g.m)
    for seed in range(30):
        v = testers.test_k_vertex_connectivity(g, cfg, random.Random(seed))
        assert not v.accepted and v.queries_used <= g.m
        assert v.witness.boundary == {3, 4, 5}


def test_local_decisions_without_table_charge_every_read():
    # a local decision on a graph within its budget reads the graph whole
    # and is charged m every time; it answers for every vertex, so on K5
    # without the arc 1 -> 2 at k = 4 each start gets the same witness
    g = Graph(5, [(a, b) for a in range(1, 6)
                  for b in range(1, 6) if a != b])
    h = Graph(5, [(a, b) for a in range(1, 6) for b in range(1, 6)
                  if a != b and (a, b) != (1, 2)])
    cfg = testers.TesterConfig(3, 0.3, "bounded", 4.0, g.n, g.m)
    for decide in (testers.local_decision_edge,
                   testers.local_decision_vertex):
        for s in g.vertices():
            assert decide(g, s, 3, 1, cfg, random.Random(0)) == \
                (False, None, g.m)
        answers = [decide(h, s, 4, 1, cfg, random.Random(0))
                   for s in h.vertices()]
        assert all(answer == answers[0] for answer in answers)
        yes, witness, q = answers[0]
        assert yes and q == h.m and 1 in witness.members


def test_singleton_witness_lies_in_its_orientation():
    # vertex 1 has three out-edges but only one in-edge, (2, 1) with id 3
    g = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 1), (2, 3), (3, 4), (4, 2),
                  (3, 2), (4, 3)])
    cfg = testers.TesterConfig(2, 1.0, "unbounded", 20.0, 4, 9)
    v = testers.test_k_edge_connectivity(g, cfg, random.Random(0))
    assert not v.accepted and v.witness_orientation == "in"
    grev = reverse_graph(g)
    assert list(v.witness.out_edges) == out_edge_ids(grev, {1}) == [3]
    assert verify_k_edge_out(grev, v.witness.members, 1)


def test_vertex_singleton_witness_is_a_proper_side():
    cfg = testers.TesterConfig(2, 0.5, "unbounded", 8.0, 4, 4)
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    v = testers.test_k_vertex_connectivity(g, cfg, random.Random(0))
    assert not v.accepted and v.witness_orientation == "out"
    assert v.witness.members == {1} and v.witness.boundary == {2}
    # {1} and its only out-neighbour cover the graph: no proper side
    # exists, and no witness means no rejection
    pair = Graph(2, [(1, 2), (2, 1)])
    v = testers.test_k_vertex_connectivity(
        pair, testers.TesterConfig(2, 0.5, "unbounded", 8.0, 2, 2),
        random.Random(0))
    assert v.accepted


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
        draw(st.integers(1, 3)), draw(st.sampled_from([0.3, 0.5, 1.0])),
        draw(st.sampled_from(["unbounded", "bounded"])),
        draw(st.sampled_from([2.0, 4.0, 8.0])), n, g.m)
    return g, cfg, draw(st.integers(0, 2 ** 32))


@settings(max_examples=100, deadline=None)
@given(multigraph_cases())
def test_testers_on_random_multigraphs(case):
    g, cfg, seed = case
    cells = ((testers.test_k_edge_connectivity, edge_cut,
              "detect_component_param", oracle_min_directed_cut(g)),
             (testers.test_k_vertex_connectivity, vertex_cut,
              "detect_vertex_out_component", oracle_vertex_connectivity(g)))
    for run, module, detector, connectivity in cells:
        with mock.patch.object(module, detector,
                               wraps=getattr(module, detector)) as detect, \
                mock.patch.object(graph, "CountedView",
                                  wraps=graph.CountedView) as probe:
            v = run(g, cfg, random.Random(seed))
        if v.samples_used and not (detect.called or probe.called):
            # no degree probe and no detector: every decision read the
            # whole graph exactly
            assert v.queries_used <= g.m
        if connectivity >= cfg.k:
            assert v.accepted
        if v.accepted:
            continue
        gg = g if v.witness_orientation == "out" else reverse_graph(g)
        members = v.witness.members
        if module is edge_cut:
            assert verify_k_edge_out(gg, members, cfg.k - 1)
            assert len(members) < g.n
        else:
            assert verify_vertex_out(gg, members, cfg.k - 1)
            assert len(members | boundary_of(gg, members)) < g.n
