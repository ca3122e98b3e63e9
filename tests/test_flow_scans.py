"""A flow network counts the arcs its augmenting searches read.

Each search reads the whole arc list of every node it pops, so one
search reads at most every arc once, and a query at most its searches
times the arcs: its flow value plus one when it returns a side, the
limit when it returns None.  A query copies the base capacities, so
its count does not depend on the queries asked before it.  The edge
cut search reports that count: a cut's `arc_scans`, where mkecs starts
a local phase's credit, is what the search's flows read.
"""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from localcuts import flow
from localcuts.graph import Graph

from test_flow_network import multigraph_queries
from test_proven_reach import random_piece


def path_network(n, extra=0):
    """Directed path 1 -> 2 -> ... -> n over nodes 0..n + extra."""
    return flow.Network(n + 1 + extra, list(range(1, n)),
                        list(range(2, n + 1)), [1] * (n - 1))


def test_one_search_reads_each_node_of_a_path_once():
    # the sink n + 1 is unreachable, so the one search pops every node:
    # node 1 holds one arc, nodes 2..n two each (in and out)
    for n in (2, 3, 6, 10):
        net = path_network(n, extra=1)
        assert net.source_side(1, n + 1, 3).keys() == set(range(1, n + 1))
        assert net.scans == 1 + 2 * (n - 2) + 1 == len(net.head)


def test_searches_on_a_path_stop_at_the_sink():
    n = 6
    net = path_network(n)
    # pops 1..n-1 and stops once n is discovered: the flow reaches 1
    assert net.source_side(1, n, 1) is None
    assert net.scans == 1 + 2 * (n - 2)
    # the same search, then one that pops only the saturated source
    assert net.source_side(1, n, 2).keys() == {1}
    assert net.scans == 2 * (1 + 2 * (n - 2)) + 1
    # the source is the path's end: one search of its one arc
    assert net.source_side(n, 1, 5).keys() == {n}
    assert net.scans == 2 * (1 + 2 * (n - 2)) + 2


def test_nonpositive_limit_runs_no_search():
    net = path_network(4)
    assert net.source_side(1, 4, 0) is None
    assert net.scans == 0


def flow_value(g, s, t, k, net, split):
    """Run the query on net; its flow value, or None at the limit."""
    if split:
        res = flow.st_vertex_cut_at_most(g, s, t, k, net)
    else:
        res = flow.st_edge_cut_below(g.n, *g.endpoints(), range(g.m), s, t,
                                     k, net)
    return None if res is None else len(res[1])


@settings(max_examples=150, deadline=None)
@given(multigraph_queries())
def test_scans_are_deterministic_and_bounded(case):
    g, qs = case
    for split, build in ((False, lambda: flow.edge_flow_network(
                              g.n, *g.endpoints(), range(g.m))),
                         (True, lambda: flow.vertex_split_network(g))):
        net = build()
        for s, t, k in qs + qs[::-1]:
            before = net.scans
            value = flow_value(g, s, t, k, net, split)
            spent = net.scans - before
            searches = k if value is None else value + 1
            assert spent <= searches * len(net.head)
            fresh = build()
            flow_value(g, s, t, k, fresh, split)
            assert fresh.scans == spent


@st.composite
def edge_pieces(draw):
    """(vertices, g, k): a strongly connected piece of `random_piece`, or
    a multigraph with loops and parallel edges that need not be, each
    either as drawn or with every edge also reversed, so balanced."""
    if draw(st.booleans()):
        vertices, g = random_piece(random.Random(draw(st.integers())))
    else:
        g, _ = draw(multigraph_queries())
        vertices = set(g.vertices())
    if draw(st.booleans()):
        pairs = list(g.pairs())
        g = Graph(max(vertices), pairs + [(b, a) for a, b in pairs])
    return vertices, g, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(edge_pieces())
def test_edge_cut_carries_the_scans_of_its_flows(case):
    vertices, g, k = case
    flows = []
    inner = flow.st_edge_cut_below

    def counted(n, tail, head, ids, s, t, k, net):
        before = net.scans
        res = inner(n, tail, head, ids, s, t, k, net)
        flows.append(net.scans - before)
        return res

    with mock.patch.object(flow, "st_edge_cut_below", counted):
        cut = flow.edge_cut_below(vertices, *g.endpoints(), range(g.m), k)
    if cut is not None:
        assert cut.arc_scans == sum(flows)
