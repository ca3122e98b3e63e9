"""Both kappa drivers against the exact fallback at n = 15-40.

The enumeration oracle stops at small n; `fallback_exact` (Even's
scheme) is exact at any n.  Random strongly connected digraphs and
connected undirected graphs come in three shapes: a relabelled
circulant with extra chords, two dense blobs joined only through a few
middle vertices, and a cycle with random chords.  The driver's kappa
must equal the fallback's, and its witness must validate at that size.
"""

import random

from hypothesis import given, settings, strategies as st

from localcuts.connectivity import (fallback_exact,
                                    vertex_connectivity_directed,
                                    vertex_connectivity_undirected)
from localcuts.graph import Graph, UndirectedGraph, is_strongly_connected


def circulant(n, rng):
    d = rng.randint(1, 4)
    pairs = [(i, (i - 1 + j) % n + 1)
             for i in range(1, n + 1) for j in range(1, d + 1)]
    return pairs + [tuple(rng.sample(range(1, n + 1), 2))
                    for _ in range(rng.randint(0, n))]


def two_blobs(n, rng):
    """Blobs L and R, each around a cycle, with every path between them
    through the middle vertices, which have edges both ways to each."""
    s = rng.randint(1, 4)
    a = rng.randint(2, n - s - 2)
    left, mid = range(1, a + 1), range(a + 1, a + s + 1)
    right = range(a + s + 1, n + 1)
    pairs = [(u, v) for side in (left, right) for u in side for v in side
             if u != v and rng.random() < 0.7]
    pairs += [(u, side[(i + 1) % len(side)]) for side in (left, right)
              for i, u in enumerate(side)]
    for v in mid:
        for side in (left, right):
            for u in rng.sample(side, rng.randint(1, len(side))):
                pairs += [(u, v), (v, u)]
    return pairs


def chorded_cycle(n, rng):
    pairs = [(i, i % n + 1) for i in range(1, n + 1)]
    return pairs + [tuple(rng.sample(range(1, n + 1), 2))
                    for _ in range(rng.randint(0, 4 * n))]


SHAPES = (circulant, two_blobs, chorded_cycle)


@st.composite
def instances(draw):
    """(driver input, its directed form, driver seed), relabelled."""
    n = draw(st.integers(15, 40))
    shape = draw(st.sampled_from(SHAPES))
    directed = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    pairs = shape(n, rng)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    pairs = [(perm[a - 1], perm[b - 1]) for a, b in pairs]
    rng.shuffle(pairs)
    if directed:
        g = Graph(n, pairs)
        return g, g, rng.random()
    und = UndirectedGraph(n, pairs)
    return und, und.to_directed(), rng.random()


@settings(max_examples=100, deadline=None)
@given(instances())
def test_drivers_match_the_exact_fallback(instance):
    g, dg, seed = instance
    assert is_strongly_connected(dg)
    driver = (vertex_connectivity_directed if g is dg
              else vertex_connectivity_undirected)
    kappa, cut = driver(g, random.Random(seed))
    assert kappa == fallback_exact(dg)[0]
    if cut is None:
        assert kappa == g.n - 1
    else:
        assert cut.size == kappa and cut.validate(dg)
