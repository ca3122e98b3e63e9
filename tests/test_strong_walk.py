"""Strong connectivity is decided by two walks from vertex 1.

`graph.is_strongly_connected` walks forward and backward from vertex 1,
and `graph_sccs` lists Tarjan's components, both over a Graph's flat
incidence and endpoint lists.  On every multigraph, reversed views
included, both must agree with a reference kept here that walks over
the probe protocol (`out_ids`/`head`) from every vertex; and the
directed driver's answer on a graph that is not strongly connected is
still the sink component that Tarjan lists first.
"""

import random

from hypothesis import given, settings, strategies as st

from localcuts import connectivity
from localcuts.graph import (Graph, graph_sccs, is_strongly_connected,
                             reverse_graph)


@st.composite
def multigraphs(draw):
    """Multigraphs on 0 to 9 vertices, with loops, parallel edges and
    isolated vertices, sometimes closed by a cycle through a subset."""
    n = draw(st.integers(0, 9))
    if n == 0:
        return Graph(0, [])
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    pairs += [(v, v) for v in draw(st.lists(vertex, max_size=2))]
    if draw(st.booleans()):
        # a cycle through all but maybe a few vertices, which then stay
        # isolated or hang off it
        order = draw(st.permutations(range(1, n + 1)))
        order = order[:draw(st.integers(1, n))]
        pairs += list(zip(order, order[1:] + order[:1]))
    return Graph(n, draw(st.permutations(pairs)))


def reach(g, s):
    """The vertices a walk from s reaches, over the probe protocol."""
    seen = {s}
    todo = [s]
    while todo:
        for eid in g.out_ids(todo.pop()):
            if g.head(eid) not in seen:
                seen.add(g.head(eid))
                todo.append(g.head(eid))
    return seen


def reference_components(g):
    """Strongly connected components as mutual reach, vertex by vertex."""
    reaches = {v: reach(g, v) for v in g.vertices()}
    return {frozenset(w for w in reaches[v] if v in reaches[w])
            for v in g.vertices()}


@settings(max_examples=500, deadline=None)
@given(multigraphs())
def test_walks_agree_with_tarjan(g):
    for h in (g, reverse_graph(g)):
        want = reference_components(h)
        # n = 0 has no component and counts as strongly connected
        assert is_strongly_connected(h) == (len(want) <= 1)
        comps = graph_sccs(h)
        assert {frozenset(c) for c in comps} == want
        assert len(comps) == len(want)
        # sinks first: an edge between components goes to an earlier one
        index = {v: i for i, c in enumerate(comps) for v in c}
        for v in h.vertices():
            for eid in h.out_ids(v):
                assert index[h.head(eid)] <= index[v]


def test_small_cases():
    assert is_strongly_connected(Graph(0, []))
    assert is_strongly_connected(Graph(1, []))
    assert is_strongly_connected(Graph(1, [(1, 1)]))
    assert not is_strongly_connected(Graph(2, []))
    assert not is_strongly_connected(Graph(2, [(1, 2), (1, 2)]))
    assert not is_strongly_connected(reverse_graph(Graph(2, [(1, 2)])))
    assert is_strongly_connected(Graph(2, [(1, 2), (2, 1)]))
    # vertex 3 is isolated, so the walks from 1 miss it
    assert not is_strongly_connected(Graph(3, [(1, 2), (2, 1)]))
    # 1 reaches every vertex, but nothing reaches 1 back from 3
    assert not is_strongly_connected(Graph(3, [(1, 2), (2, 3), (2, 1)]))


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_directed_driver_answers_a_sink_component(g):
    if g.n < 2 or len(graph_sccs(g)) == 1:
        return
    sink = frozenset(graph_sccs(g)[0])
    rest = frozenset(g.vertices()) - sink
    want = connectivity.VertexCut(sink, frozenset(), rest)
    assert connectivity.vertex_connectivity_directed(
        g, random.Random(0)) == (0, want)
    verdict = connectivity.is_connectivity_at_least(g, 2, random.Random(0))
    assert verdict.stats["mode"] == "degenerate"
    assert verdict.found and verdict.cut == want and want.validate(g)
