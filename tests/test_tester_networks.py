"""A tester call builds at most one flow network per orientation.

Every exact decision of a call reads g or its reverse, so all decisions
in one orientation share that orientation's network.
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
        assert len(built) <= 2
        decided += len(built)
        assert v.accepted == (g is K5)
    assert decided
