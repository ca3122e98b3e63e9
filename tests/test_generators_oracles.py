import random

import pytest

from localcuts.graph import Graph, is_strongly_connected
from localcuts.generators import (
    GeneratorSpec, generate, random_digraph, planted_edge_component,
    planted_separator, clique_union, cycle_union, figure_shape,
    farness_lower_bound,
)
from localcuts.oracles import (
    oracle_min_edge_out_component, oracle_is_minimal_component,
    oracle_vertex_connectivity, oracle_min_directed_cut,
    oracle_min_vertex_out,
)
from localcuts.edge_cut import out_edge_ids


def test_random_digraph_shape():
    rng = random.Random(0)
    g, cert = random_digraph(6, 10, rng)
    assert g.n == 6 and g.m == 10
    assert all(e.tail != e.head for e in g.edges)
    g2, _ = random_digraph(5, 9, rng, allow_parallel=False)
    pairs = [(e.tail, e.head) for e in g2.edges]
    assert len(set(pairs)) == len(pairs)
    with pytest.raises(ValueError):
        random_digraph(1, 1, rng)


def test_planted_edge_component_certificate():
    rng = random.Random(1)
    g, cert = planted_edge_component(5, 2, 30, rng)
    members = cert["component"]
    assert len(out_edge_ids(g, members)) == cert["out_edge_count"] == 2
    assert is_strongly_connected(g)
    assert len(members) == 5


def test_planted_separator_certificate():
    rng = random.Random(2)
    g, cert = planted_separator(6, 7, 2, rng)
    lset, mset, rset = cert["left"], cert["middle"], cert["right"]
    assert lset | mset | rset == set(g.vertices())
    for e in g.edges:
        assert not (e.tail in lset and e.head in rset)
    assert is_strongly_connected(g)
    assert oracle_vertex_connectivity(g) <= len(mset)


def test_block_unions():
    g, cert = cycle_union(3, 4)
    assert g.n == 12 and g.m == 12
    assert len(cert["blocks"]) == 3
    und, ccert = clique_union(2, 4)
    assert und.n == 8 and und.m == 12


def test_generate_is_deterministic_per_spec():
    spec = GeneratorSpec("random_digraph", {"n": 8, "m": 14}, seed=99)
    g1, _ = generate(spec)
    g2, _ = generate(spec)
    assert [(e.tail, e.head) for e in g1.edges] \
        == [(e.tail, e.head) for e in g2.edges]
    with pytest.raises(ValueError):
        generate(GeneratorSpec("nonsense", {}, 0))


def test_figure_shape_shape():
    und, cert = figure_shape()
    assert und.n == 7 and und.m == 12
    degs = {}
    for e in und.edges:
        degs[e.tail] = degs.get(e.tail, 0) + 1
        degs[e.head] = degs.get(e.head, 0) + 1
    assert all(degs[v] == 2 for v in cert["satellites"])


def test_oracle_min_component_and_minimality():
    # cycle 1-2-3 with a chord and an exit; {1, 2, 3} is minimal 1-out
    g = Graph(4, [(1, 2), (2, 3), (3, 1), (1, 3), (3, 4), (4, 1)])
    minimal = dict(oracle_min_edge_out_component(g, 1, 1))
    assert minimal == {frozenset({1, 2, 3}): 1,
                       frozenset({1, 3, 4}): 1,
                       frozenset({1, 2, 3, 4}): 0}
    assert oracle_is_minimal_component(g, 1, {1, 2, 3}, 1)
    # {1, 2} leaks two edges and so does its subset {1}: not minimal
    assert not oracle_is_minimal_component(g, 1, {1, 2}, 2)
    assert not oracle_is_minimal_component(g, 2, {1, 2, 3}, 1)  # wrong s


@pytest.mark.parametrize("s", [0, 4])
def test_oracle_min_vertex_out_rejects_a_start_outside_the_graph(s):
    triangle = Graph(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError, match="start vertex"):
        oracle_min_vertex_out(triangle, s, 1)


def test_oracle_vertex_connectivity_values():
    clique = Graph(4, [(a, b) for a in range(1, 5)
                       for b in range(1, 5) if a != b])
    assert oracle_vertex_connectivity(clique) == 3
    path = Graph(3, [(1, 2), (2, 3), (3, 2), (2, 1)])
    assert oracle_vertex_connectivity(path) == 1
    broken = Graph(2, [(1, 2)])
    assert oracle_vertex_connectivity(broken) == 0


def test_oracle_min_directed_cut_values():
    cyc = Graph(3, [(1, 2), (2, 3), (3, 1)])
    assert oracle_min_directed_cut(cyc) == 1
    two = Graph(3, [(1, 2), (2, 3), (3, 1), (1, 3), (3, 2), (2, 1)])
    assert oracle_min_directed_cut(two) == 2


def test_farness_bound_on_far_families():
    g, _ = cycle_union(15, 3)
    # every vertex misses one out- and in-edge for k = 2
    assert farness_lower_bound(g, 2) >= 45
    und, _ = clique_union(10, 4)
    gd = und.to_directed()
    # each clique block has a completely empty boundary for k = 3
    assert farness_lower_bound(gd, 3) >= 30


def test_farness_bound_is_zero_on_connected_graphs():
    clique = Graph(5, [(a, b) for a in range(1, 6)
                       for b in range(1, 6) if a != b])
    assert farness_lower_bound(clique, 3) == 0
