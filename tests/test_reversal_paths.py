"""Path reversals in symmetric mode on split graphs.

An in-scan charges in-edges of the in-copy partnered with a visited
out-copy; when that out-copy was reached over a reversed edge, neither
endpoint of such an edge needs to be in the DFS tree, and the sampled
path then runs to the visited vertex whose scan charged the edge.
"""

import random

from localcuts.connectivity import (is_connectivity_at_least,
                                    local_sweep_step, max_feasible_delta,
                                    vertex_connectivity_directed)
from localcuts.graph import Graph, reverse_graph
from localcuts.vertex_cut import (SplitGraph, detect_component_volume,
                                  verify_vertex_out)

from test_probe_stops import count_flips


def circulant(n, d):
    """C(n, d): vertex i has edges to i+1, ..., i+d (mod n)."""
    return Graph(n, [(i, (i - 1 + j) % n + 1)
                     for i in range(1, n + 1) for j in range(1, d + 1)])


def test_symmetric_detection_on_reversed_circulant_never_raises():
    g = reverse_graph(circulant(50, 3))
    sv = SplitGraph(g, 4)
    for seed in range(1000):
        raw, _, _ = detect_component_volume(sv, 4, 2, 3, random.Random(seed),
                                            symmetric=True)
        if raw is not None:
            members = {v for v in raw if sv.is_out_copy(v)}
            assert 4 in members and verify_vertex_out(g, members, 2)


def test_connectivity_of_circulants_with_reversal_paths(monkeypatch):
    verdict = is_connectivity_at_least(circulant(50, 3), 3, random.Random(4))
    assert verdict.decision == "probably_at_least_k"
    # Even's scheme decides that probe, so the sweep is run on its own
    flips = count_flips(monkeypatch)
    g = circulant(50, 3)
    assert local_sweep_step(g, 3, max_feasible_delta(3, g.m), 2.0,
                            random.Random(4)) is None
    assert flips
    for n in (14, 16, 20):
        g = circulant(n, 3)
        for seed in range(5):
            kappa, cut = vertex_connectivity_directed(g, random.Random(seed))
            assert kappa == 3
            assert cut.size == 3 and cut.validate(g)
