"""The kappa search probes each threshold once.

Both drivers share one doubling-plus-bisection search with one failure
budget: every threshold is decided by a single `is_connectivity_at_least`
call, and a call makes at most 2 ceil(log2 n) of them.
"""

import collections
import functools
import math
import random

import pytest

from localcuts import connectivity
from localcuts.graph import Graph, UndirectedGraph
from localcuts.oracles import oracle_vertex_connectivity


def circulant_pairs(n, d):
    return [(i, (i - 1 + j) % n + 1)
            for i in range(1, n + 1) for j in range(1, d + 1)]


GRAPHS = {
    "C(12,2)": lambda: Graph(12, circulant_pairs(12, 2)),
    "C(16,2)": lambda: Graph(16, circulant_pairs(16, 2)),
    "K8": lambda: Graph(8, [(a, b) for a in range(1, 9)
                            for b in range(1, 9) if a != b]),
    "U(10,3)": lambda: UndirectedGraph(10, circulant_pairs(10, 3)),
}


@functools.lru_cache(maxsize=None)
def graph_and_kappa(name):
    g = GRAPHS[name]()
    directed = g if isinstance(g, Graph) else g.to_directed()
    return g, oracle_vertex_connectivity(directed)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_each_threshold_is_probed_once(monkeypatch, name, seed):
    g, kappa = graph_and_kappa(name)
    probed = []
    real = connectivity.is_connectivity_at_least

    def counting(gg, k, *args, **kwargs):
        probed.append(k)
        return real(gg, k, *args, **kwargs)

    monkeypatch.setattr(connectivity, "is_connectivity_at_least", counting)
    if isinstance(g, Graph):
        found, cut = connectivity.vertex_connectivity_directed(
            g, random.Random(seed))
    else:
        found, cut = connectivity.vertex_connectivity_undirected(
            g, random.Random(seed))
    assert found == kappa
    assert probed
    assert max(collections.Counter(probed).values()) == 1, probed
    assert len(probed) <= 2 * math.ceil(math.log2(g.n))
