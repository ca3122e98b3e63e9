"""mkecs detects backward only while the live graph is unbalanced.

On a balanced graph, where every vertex has as many edges entering as
leaving, every vertex set has as many entering as leaving edges, so a
backward detection looks for the sets the forward one has just ruled
out.  The local phase therefore reads a balanced piece forward only and
builds no reverse graph for it; a carve that leaves some frontier vertex
with unequal in- and out-losses makes the live graph unbalanced, and
while it stays so a failed forward detection is followed by a backward
one.  A later carve may balance it again, and backward detection stops.
"""

import contextlib
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from localcuts import mkecs
from localcuts.graph import Graph, UndirectedGraph

from test_mkecs_requeue import clique_chain


@contextlib.contextmanager
def detection_log():
    """Record every detection mkecs runs as (backward, balanced, start,
    found); a detection is backward when it reads a graph returned by
    `reverse_graph`, and `balanced` is whether the graph it read was
    balanced when it ran: carves edit that graph in place, so it is
    checked then, not at exit.  On exit, check the orientation rule."""
    real_detect = mkecs.detect_component_param
    real_reverse = mkecs.reverse_graph
    reversed_graphs = []
    log = []

    def reverse(g):
        rev = real_reverse(g)
        reversed_graphs.append(rev)
        return rev

    def detect(g, s, *rest):
        res = real_detect(g, s, *rest)
        backward = any(g is rev for rev in reversed_graphs)
        log.append((backward, balanced(g), s, bool(res.members)))
        return res

    with mock.patch.object(mkecs, "reverse_graph", side_effect=reverse), \
            mock.patch.object(mkecs, "detect_component_param",
                              side_effect=detect):
        yield log
    check_orientation_rule(log)


def balanced(g):
    return all(len(g.out_ids(v)) == len(g.in_ids(v)) for v in g.vertices())


def check_orientation_rule(log):
    """A failed forward detection is followed by a backward one from the
    same start exactly when the live graph it read is unbalanced: a
    carve that leaves the live graph balanced again ends backward
    detection."""
    for i, (backward, was_balanced, s, found) in enumerate(log):
        if backward:
            prev_backward, _, prev_s, prev_found = log[i - 1]
            assert not prev_backward and prev_s == s and not prev_found
            continue
        nxt = log[i + 1] if i + 1 < len(log) else None
        followed = nxt is not None and nxt[0] and nxt[2] == s
        assert followed == (not found and not was_balanced)


def bidirected(pairs):
    return Counter(pairs) == Counter((h, t) for t, h in pairs)


@pytest.mark.parametrize("count,seed", [(10, 0), (20, 1), (40, 2)])
def test_bidirected_clique_chains_build_no_reverse_graph(count, seed):
    g = clique_chain(count, random.Random(seed)).to_directed()
    expected = mkecs.baseline_mkecs(g, 3)
    with mock.patch.object(mkecs, "reverse_graph",
                           wraps=mkecs.reverse_graph) as reverse:
        directed = mkecs.mkecs_directed(g, 3, random.Random(seed))
    assert reverse.call_count == 0
    assert directed == expected


def test_side_with_few_entering_edges_is_carved_backward():
    # a bidirected K8 core and a bidirected triangle 9, 10, 11 with three
    # edges to the core but two from it: at k = 3 the triangle is the one
    # small side, and only a backward detection sees its entering cut
    core = [(a, b) for a in range(1, 9) for b in range(1, 9) if a != b]
    triangle = [(a, b) for a in (9, 10, 11) for b in (9, 10, 11) if a != b]
    pairs = core + triangle + [(9, 1), (10, 2), (11, 3), (4, 9), (5, 10)]
    g = Graph(11, pairs)
    assert not balanced(g)
    expected = mkecs.baseline_mkecs(g, 3)
    with detection_log() as log:
        directed = mkecs.mkecs_directed(g, 3, random.Random(0), delta=8)
    found = [(backward, s) for backward, _, s, found in log if found]
    assert len(found) == 1
    backward, s = found[0]
    assert backward and s in (9, 10, 11)
    assert directed == expected


def test_carve_that_unbalances_the_piece_brings_backward_detection():
    # directed circulant core 1..10 (i -> i+1, i+2, i+3) and the cycle
    # 1 -> 11 -> 5 -> 1: balanced but not bidirected; carving {11} at
    # k = 2 takes an out-edge from 1 and an in-edge from 5
    pairs = [(i, (i + d - 1) % 10 + 1) for i in range(1, 11)
             for d in (1, 2, 3)]
    pairs += [(1, 11), (11, 5), (5, 1)]
    g = Graph(11, pairs)
    assert balanced(g) and not bidirected(pairs)
    expected = mkecs.baseline_mkecs(g, 2)
    with detection_log() as log:
        directed = mkecs.mkecs_directed(g, 2, random.Random(0))
    first_carve = next(i for i, (_, _, _, found) in enumerate(log) if found)
    assert not log[first_carve][0]
    assert not any(backward for backward, *_ in log[:first_carve])
    assert any(backward for backward, *_ in log[first_carve:])
    assert directed == expected


@st.composite
def balanced_digraphs(draw):
    """A union of directed cycles, relabelled and shuffled: clusters of
    2-6 vertices (3 gives directed triangle chains), each covered by 1-3
    cycles in random order, and up to 3 cycles through two to four
    vertices of each pair of consecutive clusters.  Never bidirected."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    size_hi = draw(st.sampled_from([3, 6]))
    inner = draw(st.integers(1, 3))
    clusters = []
    n = 0
    for _ in range(draw(st.integers(2, 12))):
        size = rng.randint(min(3, size_hi), size_hi)
        clusters.append(list(range(n + 1, n + size + 1)))
        n += size
    pairs = []
    for cluster in clusters:
        for _ in range(inner):
            order = rng.sample(cluster, len(cluster))
            pairs += list(zip(order, order[1:] + order[:1]))
    for a, b in zip(clusters, clusters[1:]):
        for _ in range(rng.randint(0, 3)):
            walk = rng.sample(a, rng.randint(1, 2)) \
                + rng.sample(b, rng.randint(1, 2))
            pairs += list(zip(walk, walk[1:] + walk[:1]))
    assume(not bidirected(pairs))
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    pairs = [(perm[t - 1], perm[h - 1]) for t, h in pairs]
    rng.shuffle(pairs)
    return n, pairs


@settings(max_examples=200, deadline=None)
@given(balanced_digraphs(), st.integers(1, 4),
       st.sampled_from([None, 1, 2, 4]), st.integers(0, 2 ** 32))
def test_both_drivers_equal_the_baseline_on_balanced_digraphs(graph, k, budget,
                                                              seed):
    n, pairs = graph
    g = Graph(n, pairs)
    und = UndirectedGraph(n, pairs)
    with detection_log() as log:
        directed = mkecs.mkecs_directed(g, k, random.Random(seed),
                                        delta=budget)
    assert directed == mkecs.baseline_mkecs(g, k)
    with detection_log() as log:
        undirected = mkecs.mkecs_undirected(und, k, random.Random(seed),
                                            gamma=budget)
    assert not any(backward for backward, *_ in log)
    assert undirected == mkecs.baseline_mkecs_undirected(und, k)
