"""A tester call builds at most one flow network.

The first decision of a call that reads the whole graph decides it for
every vertex in both orientations with one global cut search, and that
search builds one network.
"""

import random

import pytest

from localcuts import flow, testers
from localcuts.generators import clique_union, cycle_union
from localcuts.graph import Graph

K5 = Graph(5, [(a, b) for a in range(1, 6) for b in range(1, 6) if a != b])
CASES = [
    (testers.test_k_edge_connectivity, K5, 3, 0.3, "bounded", 4.0),
    (testers.test_k_vertex_connectivity, K5, 3, 0.3, "bounded", 4.0),
    (testers.test_k_edge_connectivity, cycle_union(4, 3)[0], 2, 0.4,
     "bounded", 2.0),
    (testers.test_k_vertex_connectivity,
     clique_union(3, 4)[0].to_directed(), 3, 0.2, "bounded", 3.0),
]


@pytest.mark.parametrize("run, g, k, eps, model, degree", CASES)
def test_one_network_per_call_and_orientation(monkeypatch, run, g, k, eps,
                                              model, degree):
    built = []

    def counting(real):
        def build(*args):
            built.append(real.__name__)
            return real(*args)
        return build

    for name in ("edge_flow_network", "vertex_split_network"):
        monkeypatch.setattr(flow, name, counting(getattr(flow, name)))
    cfg = testers.TesterConfig(k, eps, model, degree, g.n, g.m)
    decided = 0
    for seed in range(10):
        built.clear()
        v = run(g, cfg, random.Random(seed))
        assert len(built) <= 1
        decided += len(built)
        assert v.accepted == (g is K5)
    # every pair of K5 is adjacent, so Even's scheme has nothing to flow
    assert bool(decided) == (g is not K5
                             or run is testers.test_k_edge_connectivity)
