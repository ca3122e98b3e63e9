"""mkecs searches each piece for a global cut before its local phase.

The detector returns only sets with fewer than k leaving edges, so on a
k-edge-connected piece every detection fails.  One global cut search up
front makes such a piece a class with no detection; a piece with a cut
below k still runs the local phase, and when that phase carves nothing
the global phase reuses the search's cut instead of searching again.
The pieces are walked on an explicit stack, so a long chain of global
cuts does not nest calls.
"""

import contextlib
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from localcuts import mkecs
from localcuts.graph import Graph, UndirectedGraph

from test_mkecs_requeue import clique_chain


@contextlib.contextmanager
def detections():
    """Record, for every detection mkecs runs, whether it found a set."""
    real = mkecs.detect_component_param
    found = []

    def detect(*args):
        res = real(*args)
        found.append(bool(res.members))
        return res

    with mock.patch.object(mkecs, "detect_component_param",
                           side_effect=detect):
        yield found


def bidirected_clique(n):
    return UndirectedGraph(n, [(a, b) for a in range(1, n + 1)
                               for b in range(a + 1, n + 1)])


@pytest.mark.parametrize("und", [
    clique_chain(10, random.Random(3), links=3), bidirected_clique(8),
], ids=["chain", "K8"])
def test_k_edge_connected_pieces_run_no_detection(und):
    g = und.to_directed()
    expected = mkecs.baseline_mkecs(g, 3)
    assert len(expected.classes) == 1
    with detections() as found:
        directed = mkecs.mkecs_directed(g, 3, random.Random(0))
        undirected = mkecs.mkecs_undirected(und, 3, random.Random(0))
    assert found == []
    assert directed == expected
    assert undirected == expected


@pytest.mark.parametrize("count,seed", [(10, 0), (20, 1), (40, 2)])
def test_no_more_cut_searches_than_the_baseline(count, seed):
    g = clique_chain(count, random.Random(seed)).to_directed()
    with mock.patch.object(mkecs, "_cut_below",
                           wraps=mkecs._cut_below) as search:
        expected = mkecs.baseline_mkecs(g, 3)
        baseline_calls = search.call_count
        search.reset_mock()
        directed = mkecs.mkecs_directed(g, 3, random.Random(seed))
        directed_calls = search.call_count
    assert directed == expected
    assert directed_calls <= baseline_calls


def pendant_core(core, pairs, rng):
    """Clique on 1..core plus `pairs` pendant pairs: each pair is a doubled
    edge, and each of its ends has one edge to a random core vertex."""
    edges = [(a, b) for a in range(1, core + 1)
             for b in range(a + 1, core + 1)]
    for i in range(pairs):
        a, b = core + 2 * i + 1, core + 2 * i + 2
        edges += [(a, b), (a, b),
                  (a, rng.randint(1, core)), (b, rng.randint(1, core))]
    return UndirectedGraph(core + 2 * pairs, edges)


def test_pieces_with_small_sides_still_carve_locally():
    und = pendant_core(20, 30, random.Random(5))
    g = und.to_directed()
    expected = mkecs.baseline_mkecs(g, 3)
    # each pendant pair has 2 leaving edges and only 2 inside: 61 classes
    assert len(expected.classes) == 61
    with detections() as found:
        directed = mkecs.mkecs_directed(g, 3, random.Random(1))
    assert any(found)
    with detections() as found:
        undirected = mkecs.mkecs_undirected(und, 3, random.Random(1))
    assert any(found)
    assert directed == expected
    assert undirected == expected


def triangle_chain(count):
    """Triangles 3c+1..3c+3 joined in order by single edges."""
    pairs = []
    for c in range(count):
        a, b, d = 3 * c + 1, 3 * c + 2, 3 * c + 3
        pairs += [(a, b), (b, d), (a, d)]
        if c + 1 < count:
            pairs.append((d, d + 1))
    return UndirectedGraph(3 * count, pairs)


def _stack_depth():
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_a_long_chain_of_global_cuts_does_not_nest_calls():
    und = triangle_chain(300)
    g = und.to_directed()
    expected = mkecs.baseline_mkecs(g, 2)
    assert len(expected.classes) == 300
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        directed = mkecs.mkecs_directed(g, 2, random.Random(0), delta=1)
        undirected = mkecs.mkecs_undirected(und, 2, random.Random(0),
                                            gamma=1)
    finally:
        sys.setrecursionlimit(limit)
    assert directed == expected
    assert undirected == expected


@st.composite
def multigraphs(draw):
    """Random pairs over 1..n with loops and parallel edges.  Most pairs
    keep both ends in one block of `size` consecutive vertices, so blocks
    are dense, cuts between them are sparse and the decomposition is not
    all singletons."""
    n = draw(st.integers(1, 40))
    size = draw(st.integers(1, n))
    m = draw(st.integers(0, 5 * n))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    pairs = []
    for _ in range(m):
        v = rng.randint(1, n)
        if rng.random() < 0.8:
            base = (v - 1) // size * size
            w = rng.randint(base + 1, min(n, base + size))
        else:
            w = rng.randint(1, n)
        pairs.append((v, w))
    if pairs:
        pairs += rng.sample(pairs, min(len(pairs), 3))      # parallels
        v = rng.randint(1, n)
        pairs.append((v, v))                                # a self-loop
    rng.shuffle(pairs)
    return n, pairs


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.integers(1, 4), st.sampled_from([None, 0, 1, 3]),
       st.integers(0, 2 ** 32))
def test_both_drivers_equal_the_baseline(graph, k, budget, seed):
    n, pairs = graph
    g = Graph(n, pairs)
    und = UndirectedGraph(n, pairs)
    assert (mkecs.mkecs_directed(g, k, random.Random(seed), delta=budget)
            == mkecs.baseline_mkecs(g, k))
    assert (mkecs.mkecs_undirected(und, k, random.Random(seed), gamma=budget)
            == mkecs.baseline_mkecs_undirected(und, k))
