"""Edge ids are positions: the id rule, the split graph's transit ids and
the symmetric volume read from member incidences."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from localcuts.generators import random_digraph
from localcuts.graph import (Edge, Graph, GraphError, UndirectedGraph,
                             reverse_graph)
from localcuts.vertex_cut import SplitGraph, symmetric_volume


def test_edge_id_is_position():
    g = Graph(3, [(1, 2), (2, 3), (3, 1), (1, 1)])
    for i, e in enumerate(g.edges):
        assert e.id == i and g.edge(i) == e
    with pytest.raises(GraphError):
        g.edge(-1)
    with pytest.raises(GraphError):
        g.edge(g.m)


def test_from_edges_rejects_non_positional_ids():
    with pytest.raises(GraphError):
        Graph.from_edges(2, [Edge(1, 1, 2)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [Edge(0, 1, 2), Edge(0, 2, 1)])
    g = Graph.from_edges(2, [Edge(0, 1, 2), Edge(1, 2, 1)])
    assert g == Graph(2, [(1, 2), (2, 1)])


@pytest.mark.parametrize("cls", [Graph, UndirectedGraph])
def test_from_endpoints_takes_the_lists_it_is_given(cls):
    tail, head = [1, 2, 3], [2, 3, 1]
    g = cls.from_endpoints(3, tail, head)
    assert g == cls(3, [(1, 2), (2, 3), (3, 1)])
    assert g.endpoints()[0] is tail and g.endpoints()[1] is head
    with pytest.raises(GraphError, match="3 tails but 2 heads"):
        cls.from_endpoints(3, [1, 2, 3], [2, 3])
    with pytest.raises(GraphError, match="edge 1 endpoint out of range"):
        cls.from_endpoints(3, [1, 4], [2, 1])
    with pytest.raises(GraphError, match="two lists"):
        cls.from_endpoints(3, (1, 2), (2, 3))
    with pytest.raises(GraphError):
        cls.from_endpoints(-1, [], [])


def test_reverse_and_bidirect_keep_ids_positional():
    und = UndirectedGraph(3, [(1, 2), (2, 3), (3, 3)])
    d = und.to_directed()
    assert [(e.id, e.tail, e.head) for e in d.edges] == \
        [(0, 1, 2), (1, 2, 1), (2, 2, 3), (3, 3, 2), (4, 3, 3), (5, 3, 3)]
    assert [e.id for e in d.edges] == list(range(d.m))
    assert d == Graph(und.n, zip(*und.antiparallel()))
    r = reverse_graph(d)
    assert [e.id for e in r.edges] == list(range(r.m))


def test_split_transit_ids_follow_the_base_edges():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 9)
        g, _ = random_digraph(n, rng.randint(0, 3 * n) if n > 1 else 0, rng)
        s = rng.randint(1, n)
        sv = SplitGraph(g, s)
        for v in g.vertices():
            if v == s:
                with pytest.raises(GraphError):
                    sv.edge(g.m + v)
                continue
            e = sv.edge(g.m + v)
            assert (e.id, e.tail, e.head) == (g.m + v, n + v, v)
            assert sv.out_ids(n + v) == [g.m + v]
            assert sv.in_ids(v) == [g.m + v]
        for e in g.edges:
            assert sv.edge(e.id).tail == e.tail
        with pytest.raises(GraphError):
            sv.edge(-1)
        with pytest.raises(GraphError):
            sv.edge(g.m + n + 1)


@st.composite
def graph_and_members(draw):
    n = draw(st.integers(1, 8))
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    members = draw(st.sets(vertex))
    return Graph(n, pairs), members


@settings(max_examples=300, deadline=None)
@given(graph_and_members())
def test_symmetric_volume_counts_edges_touching_the_set(case):
    g, members = case
    brute = sum(1 for e in g.edges if e.tail in members or e.head in members)
    assert symmetric_volume(g, members) == brute
