"""Both local mkecs drivers equal the baseline on graphs they carve.

Pendant cores and triangle chains of up to about 150 vertices have many
small sides with fewer than k leaving edges, so the local phase carves
again and again, and the undirected driver rebuilds its certificate as
the carves thin the piece.  Vertices are relabelled and edges shuffled,
so the order in which detection meets the sides varies.
"""

import random

from hypothesis import given, settings, strategies as st

from localcuts import mkecs
from localcuts.graph import UndirectedGraph

from test_mkecs_global_first import pendant_core, triangle_chain


@st.composite
def carving_graphs(draw):
    """A relabelled, shuffled pendant core or triangle chain; n <= 150."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        und = triangle_chain(draw(st.integers(10, 50)))
    else:
        core = draw(st.integers(3, 20))
        und = pendant_core(core, draw(st.integers(10, (150 - core) // 2)),
                           rng)
    perm = list(range(1, und.n + 1))
    rng.shuffle(perm)
    pairs = [(perm[e.tail - 1], perm[e.head - 1]) for e in und.edges]
    rng.shuffle(pairs)
    return und.n, pairs


@settings(max_examples=200, deadline=None)
@given(carving_graphs(), st.integers(1, 4), st.sampled_from([None, 1, 2, 4]),
       st.integers(0, 2 ** 32))
def test_both_drivers_equal_the_baseline_on_carving_families(graph, k, budget,
                                                             seed):
    n, pairs = graph
    und = UndirectedGraph(n, pairs)
    g = und.to_directed()
    expected = mkecs.baseline_mkecs(g, k)
    assert (mkecs.mkecs_directed(g, k, random.Random(seed), delta=budget)
            == expected)
    assert (mkecs.mkecs_undirected(und, k, random.Random(seed), gamma=budget)
            == expected)
