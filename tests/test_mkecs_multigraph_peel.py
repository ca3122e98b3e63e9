"""mkecs on multigraphs against a brute-force peel.

networkx's `k_edge_subgraphs` does not take multigraphs, and the other
multigraph properties compare the local drivers with `baseline_mkecs`.
Here the baseline and both local drivers are checked against a peel
written out below: it splits a piece by any vertex subset with fewer
than k edges leaving it inside the piece, found by enumeration, until no
piece has one.  Since no maximal k-edge-connected set crosses such a
cut, every order of splits ends at the same classes.
"""

import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from localcuts import mkecs
from localcuts.graph import Graph, UndirectedGraph


def peel(n, arcs, k):
    """Classes of the directed multigraph of `arcs` on 1..n, sorted."""
    classes, pieces = [], [frozenset(range(1, n + 1))]
    while pieces:
        piece = pieces.pop()
        inner = [(t, h) for t, h in arcs if t in piece and h in piece]
        split = next((frozenset(side)
                      for size in range(1, len(piece))
                      for side in combinations(sorted(piece), size)
                      if sum(t in side and h not in side
                             for t, h in inner) < k), None)
        if split is None:
            classes.append(tuple(sorted(piece)))
        else:
            pieces += [split, piece - split]
    return sorted(classes)


@st.composite
def multigraphs(draw):
    """Pairs over 1..n, n <= 7, with loops and parallel edges."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), min_size=1,
                               max_size=4))
    pairs += [(v, v) for v in draw(st.lists(vertex, min_size=1,
                                            max_size=2))]
    return n, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.integers(1, 4), st.sampled_from([None, 0, 1, 3]),
       st.integers(0, 2 ** 32))
def test_every_driver_equals_the_peel_on_multigraphs(graph, k, budget, seed):
    n, pairs = graph
    g = Graph(n, pairs)
    want = peel(n, pairs, k)
    assert mkecs.baseline_mkecs(g, k).as_sorted() == want
    assert mkecs.mkecs_directed(g, k, random.Random(seed),
                                delta=budget).as_sorted() == want
    und = UndirectedGraph(n, pairs)
    want = peel(n, pairs + [(h, t) for t, h in pairs], k)
    assert mkecs.baseline_mkecs_undirected(und, k).as_sorted() == want
    assert mkecs.mkecs_undirected(und, k, random.Random(seed),
                                  gamma=budget).as_sorted() == want
