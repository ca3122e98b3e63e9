import random

import pytest

from localcuts.graph import (CountedView, Edge, EdgeListError, Graph,
                             GraphError, Overlay, UndirectedGraph,
                             dump_edge_list, graph_sccs, load_edge_list,
                             reverse_graph, strongly_connected_components)


def small_graph():
    # 1 -> 2 -> 3, 1 -> 3, 3 -> 1
    return Graph(3, [(1, 2), (2, 3), (1, 3), (3, 1)])


def random_graph(rng, n_max=8):
    n = rng.randint(1, n_max)
    m = rng.randint(0, 3 * n) if n > 1 else 0
    pairs = []
    while len(pairs) < m:
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v:
            pairs.append((u, v))
    return Graph(n, pairs)


def test_incidence_lists_follow_input_order():
    g = small_graph()
    assert g.out_ids(1) == [0, 2]
    assert g.in_ids(3) == [1, 2]
    assert g.edge(2).head == 3


def test_edge_endpoint_validation():
    with pytest.raises(GraphError):
        Graph(2, [(1, 3)])


@pytest.mark.parametrize("cls", [Graph, UndirectedGraph])
def test_both_graph_kinds_check_their_input_when_built(cls):
    with pytest.raises(GraphError, match="non-negative"):
        cls(-1, [])
    # the first edge with an endpoint outside 1..n is named
    with pytest.raises(GraphError, match="edge 1 endpoint"):
        cls(2, [(1, 2), (1, 3), (0, 1)])
    with pytest.raises(GraphError, match="edge 2 endpoint"):
        cls(2, [(1, 2), (2, 1), (0, 1)])
    assert cls(0, []).m == 0


def test_load_edge_list_round_trip():
    g = small_graph()
    assert load_edge_list(dump_edge_list(g)) == g


def test_load_edge_list_comments_and_blanks():
    text = "# header next\n3 2\n\n1 2\n# mid\n2 3\n"
    g = load_edge_list(text)
    assert g.n == 3 and g.m == 2


@pytest.mark.parametrize("text,lineno", [
    ("3\n1 2\n", 1),
    ("3 2\n1 2\n1 two\n", 3),
    ("2 1\n1 5\n", 2),
    ("2 2\n1 2\n", 3),
])
def test_load_edge_list_errors_carry_line_numbers(text, lineno):
    with pytest.raises(EdgeListError) as err:
        load_edge_list(text)
    assert "line" in str(err.value)


def test_reverse_is_an_involution():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng)
        assert reverse_graph(reverse_graph(g)) == g


def test_reverse_swaps_incidence_roles():
    g = small_graph()
    r = reverse_graph(g)
    assert r.out_ids(3) == g.in_ids(3)
    assert r.in_ids(1) == g.out_ids(1)


def test_counted_view_charges_absent_probes():
    view = CountedView(small_graph())
    assert view.query_out_edge(2, 1).head == 3
    assert view.query_out_edge(2, 2) is None
    assert view.query_count == 2
    with pytest.raises(GraphError):
        view.query_out_edge(9, 1)


def test_overlay_flip_changes_orientation_and_position():
    g = small_graph()
    ov = Overlay(g)
    ov.flip(0)  # 1->2 becomes 2->1
    assert ov.edge(0).tail == 2 and ov.edge(0).head == 1
    # flipped edge lands at the end of vertex 2's out list
    assert ov.out_ids(2) == [1, 0]
    assert 0 not in ov.out_ids(1)
    ov.flip(0)
    assert ov.edge(0).tail == 1
    assert not ov.reversed_ids


def test_overlay_conserves_every_edge_exactly_once():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng)
        if g.m == 0:
            continue
        ov = Overlay(g)
        for _ in range(rng.randint(1, 2 * g.m)):
            ov.flip(rng.randrange(g.m))
        out_seen = []
        in_seen = []
        for v in g.vertices():
            out_seen.extend(ov.out_ids(v))
            in_seen.extend(ov.in_ids(v))
        assert sorted(out_seen) == sorted(e.id for e in g.edges)
        assert sorted(in_seen) == sorted(e.id for e in g.edges)
        for v in g.vertices():
            for eid in ov.out_ids(v):
                assert ov.edge(eid).tail == v
            for eid in ov.in_ids(v):
                assert ov.edge(eid).head == v


def test_overlay_path_reversal_checks_contiguity():
    g = small_graph()
    ov = Overlay(g)
    ov.apply_path_reversal([0, 1])  # 1->2->3 is a path
    assert ov.is_reversed(0) and ov.is_reversed(1)
    ov2 = Overlay(g)
    with pytest.raises(AssertionError):
        ov2.apply_path_reversal([1, 0])


def test_overlay_edge_builds_only_that_edge():
    g = Graph(3, [(1, 2), (2, 3), (3, 1)])
    ov = Overlay(g)
    assert ov.edge(1) == Edge(1, 2, 3)
    ov.flip(1)
    assert ov.edge(1) == Edge(1, 3, 2)
    assert ov.edge(2) == Edge(2, 3, 1)
    ov.flip(1)
    assert ov.edge(1) == Edge(1, 2, 3)
    with pytest.raises(GraphError):
        ov.edge(3)
    with pytest.raises(GraphError):
        ov.edge(-1)
    # the base graph's list of all m Edges was never built
    assert g._edges is None


def test_overlay_leaves_base_untouched():
    g = small_graph()
    ov = Overlay(g)
    ov.flip(0)
    assert g.out_ids(1) == [0, 2]
    assert g.edge(0).tail == 1


def test_scc_decomposition():
    g = Graph(5, [(1, 2), (2, 1), (2, 3), (3, 4), (4, 3), (4, 5)])
    comps = {frozenset(c) for c in graph_sccs(g)}
    assert comps == {frozenset({1, 2}), frozenset({3, 4}), frozenset({5})}


def test_scc_sinks_come_first():
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    comps = graph_sccs(g)
    assert comps[0] == {4}


def test_scc_handles_deep_chains_iteratively():
    n = 5000
    comps = strongly_connected_components(
        range(1, n + 1), lambda v: [v + 1] if v < n else [])
    assert len(comps) == n


def test_undirected_antiparallel_encoding():
    und = UndirectedGraph(3, [(1, 2), (2, 3)])
    g = und.to_directed()
    assert g.m == 4
    assert (g.edge(0).tail, g.edge(0).head) == (1, 2)
    assert (g.edge(1).tail, g.edge(1).head) == (2, 1)
