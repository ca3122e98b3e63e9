"""A probe's pair step stops once k vertices are complete both ways.

A vertex is complete at limit k when its forward and backward
proven-reach sets both hold every vertex.  By Even's argument a
separator below k misses one of k complete vertices, which no
separator below k can cut off from any other vertex, so
`PairCuts.proves_at_least(g, k)` proves kappa >= k for k <= n - 1.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from localcuts import connectivity
from localcuts.connectivity import (PairCuts, max_feasible_delta,
                                    sample_pair_step,
                                    vertex_connectivity_directed)
from localcuts.graph import Graph
from localcuts.oracles import oracle_vertex_connectivity

from test_probe_stops import circulant


@st.composite
def pair_cut_runs(draw):
    """A multigraph with self-loops and parallel edges, not necessarily
    strongly connected, sometimes with every ordered pair adjacent or
    with no edge into vertex 1 from another vertex, and a sequence of
    (s, t, k) queries at a few limits from 1 to n + 1, sometimes ending
    with every ordered pair at one limit."""
    n = draw(st.integers(2, 10))
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    if draw(st.booleans()):
        pairs += [(a, b) for a in range(1, n + 1)
                  for b in range(1, n + 1) if a != b]
    if draw(st.booleans()):
        # vertex 1 becomes a source: kappa = 0, though it may reach all
        pairs = [(a, b) for a, b in pairs if b != 1]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    pairs += [(v, v) for v in draw(st.lists(vertex, max_size=2))]
    g = Graph(n, draw(st.permutations(pairs)))
    limits = draw(st.lists(st.integers(1, n + 1), min_size=1, max_size=3,
                           unique=True))
    query = st.tuples(vertex, vertex, st.sampled_from(limits))
    queries = draw(st.lists(query.filter(lambda q: q[0] != q[1]),
                            max_size=6 * n))
    if draw(st.booleans()):
        k = draw(st.sampled_from(limits))
        queries += draw(st.permutations(
            [(s, t, k) for s in range(1, n + 1)
             for t in range(1, n + 1) if s != t]))
    return g, limits, queries


@settings(max_examples=300, deadline=None)
@given(pair_cut_runs())
def test_a_proof_never_exceeds_the_true_connectivity(run):
    g, limits, queries = run
    kappa = oracle_vertex_connectivity(g)
    pairs = PairCuts()
    for s, t, k in queries:
        pairs.cut(g, s, t, k)
        for limit in limits:
            if pairs.proves_at_least(g, limit):
                assert kappa >= limit, (s, t, k, limit)


def counting_lookups(monkeypatch):
    calls = []
    inner = PairCuts.cut

    def counted(self, *args):
        calls.append(args[1:])
        return inner(self, *args)

    monkeypatch.setattr(PairCuts, "cut", counted)
    return calls


def no_sweep(*args, **kwargs):
    raise AssertionError("the sweep ran")


@pytest.mark.parametrize("n,d", [(16, 2), (12, 3), (100, 3)])
def test_probe_stops_once_k_vertices_are_complete(monkeypatch, n, d):
    # the pair step alone: a probe runs Even's scheme first, and these
    # graphs are small enough for it to finish within budget
    g = circulant(n, d)             # kappa = d >= 2
    delta_star = max_feasible_delta(2, g.m)
    calls = counting_lookups(monkeypatch)
    for seed in range(5):
        calls.clear()
        pairs = PairCuts()
        cut = sample_pair_step(g, 2, delta_star, 2.0, random.Random(seed),
                               pairs)
        assert cut is None
        # the probe skips the sweep exactly when this proof holds
        assert pairs.proves_at_least(g, 2)
        assert len(calls) < n * (n - 1) / 4


def test_search_on_c_200_3_never_sweeps(monkeypatch):
    g = circulant(200, 3)
    monkeypatch.setattr(connectivity, "local_sweep_step", no_sweep)
    kappa, cut = vertex_connectivity_directed(g, random.Random(0))
    assert kappa == 3
    assert cut.size == 3 and cut.validate(g)
