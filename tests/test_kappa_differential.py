"""Both kappa drivers against the all-pairs flow oracle.

Three families, each in a directed and an undirected version: dense
random graphs, two dense blobs joined only through 1-3 middle vertices,
and randomly relabelled circulants C(n, d) / U(n, d) with n = 8-14 and
d = 2-4.  Every call must return the oracle's kappa, and its witness
must be a valid cut of exactly that size (none only when kappa = n - 1).
"""

import random

import pytest

from localcuts.connectivity import (vertex_connectivity_directed,
                                    vertex_connectivity_undirected)
from localcuts.graph import Graph, UndirectedGraph
from localcuts.oracles import oracle_vertex_connectivity


def _pairs_with_prob(vertices, p, rng, directed):
    return [(a, b) for a in vertices for b in vertices
            if (a != b if directed else a < b) and rng.random() < p]


def dense_random(rng, directed):
    n = rng.randint(8, 14)
    return n, _pairs_with_prob(range(1, n + 1), rng.uniform(0.5, 0.9), rng,
                               directed)


def two_blobs(rng, directed):
    """Blobs L and R, and middle vertices M adjacent to both.

    Every path from L to R runs through M; in the directed version a few
    R -> L edges keep the graph strongly connected without crossing M.
    """
    a, b, s = rng.randint(3, 6), rng.randint(3, 6), rng.randint(1, 3)
    left = range(1, a + 1)
    mid = range(a + 1, a + s + 1)
    right = range(a + s + 1, a + s + b + 1)
    pairs = (_pairs_with_prob(left, 0.8, rng, directed)
             + _pairs_with_prob(right, 0.8, rng, directed))
    for v in mid:
        for side in (left, right):
            for u in rng.sample(side, rng.randint(1, len(side))):
                pairs.append((u, v) if side is left else (v, u))
                if directed and rng.random() < 0.5:
                    pairs.append((v, u) if side is left else (u, v))
    if directed:
        pairs += [(rng.choice(right), rng.choice(left)) for _ in range(2)]
    return a + s + b, pairs


def circulant(rng, directed):
    n, d = rng.randint(8, 14), rng.randint(2, 4)
    pairs = [(i, (i - 1 + j) % n + 1)
             for i in range(1, n + 1) for j in range(1, d + 1)]
    if not directed:
        pairs = sorted({(min(p), max(p)) for p in pairs})
    return n, pairs


FAMILIES = {"dense": dense_random, "two_blobs": two_blobs,
            "circulant": circulant}


def instance(family, directed, seed):
    """(graph, its directed form) of one seeded, relabelled instance."""
    rng = random.Random("%s:%s:%d" % (family, directed, seed))
    n, pairs = FAMILIES[family](rng, directed)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    pairs = [(perm[a - 1], perm[b - 1]) for a, b in pairs]
    rng.shuffle(pairs)
    if directed:
        g = Graph(n, pairs)
        return g, g
    und = UndirectedGraph(n, pairs)
    return und, und.to_directed()


def check(family, directed, seed):
    """None when the driver agrees with the oracle, else a description."""
    g, dg = instance(family, directed, seed)
    driver = (vertex_connectivity_directed if directed
              else vertex_connectivity_undirected)
    kappa, cut = driver(g, random.Random(seed))
    expected = oracle_vertex_connectivity(dg)
    if kappa != expected:
        return "kappa %d, oracle %d" % (kappa, expected)
    if cut is None:
        return None if kappa == g.n - 1 else "no witness for kappa %d" % kappa
    if cut.size != kappa or not cut.validate(dg):
        return "bad witness %r" % (cut,)
    return None


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kappa_matches_oracle(family, directed):
    problems = {seed: check(family, directed, seed) for seed in range(50)}
    assert {s: p for s, p in problems.items() if p} == {}
