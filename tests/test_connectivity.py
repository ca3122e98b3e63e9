import math
import random

import pytest

from localcuts.graph import Graph, UndirectedGraph
from localcuts.connectivity import (
    PairCuts, VertexCut, max_feasible_delta,
    sample_pair_step, local_sweep_step, is_connectivity_at_least,
    fallback_exact, vertex_connectivity_directed,
    vertex_connectivity_undirected, scan_first_certificate,
)
from localcuts.vertex_cut import component_volume_bound
from localcuts.generators import (
    random_digraph, planted_separator, _random_scc_edges,
)
from localcuts.oracles import (
    oracle_vertex_connectivity, oracle_undirected_vertex_connectivity,
)


def bidirected_clique(n):
    return Graph(n, [(a, b) for a in range(1, n + 1)
                     for b in range(1, n + 1) if a != b])


def test_cut_validation():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 3), (3, 2), (2, 1)])
    good = VertexCut(frozenset({1}), frozenset({2}), frozenset({3, 4}))
    assert good.validate(g)
    assert good.size == 1
    # an edge from left to right invalidates the partition
    bad = VertexCut(frozenset({1}), frozenset({3}), frozenset({2, 4}))
    assert not bad.validate(g)
    # overlap invalidates
    assert not VertexCut(frozenset({1, 2}), frozenset({2}),
                         frozenset({3, 4})).validate(g)


def test_pair_cut_finds_separator_and_respects_cap():
    # 1 and 4 are separated only by {2, 3}
    g = Graph(4, [(1, 2), (1, 3), (2, 4), (3, 4),
                  (4, 2), (4, 3), (2, 1), (3, 1)])
    cut = PairCuts().cut(g, 1, 4, 3)
    assert cut is not None
    assert cut.middle == {2, 3}
    assert cut.validate(g)
    assert PairCuts().cut(g, 1, 4, 2) is None


def test_max_feasible_delta_definition():
    for k in (2, 3, 4):
        for m in (50, 200, 1000):
            d = max_feasible_delta(k, m)
            if d >= 1:
                assert component_volume_bound(k - 1, d) + k * k < m
                assert component_volume_bound(k - 1, d + 1) + k * k >= m


def test_sample_pair_step_hits_planted_separator():
    rng = random.Random(4)
    g, middle = planted_separator(8, 8, 2, rng)
    delta_star = max_feasible_delta(3, g.m)
    assert delta_star >= 1
    for trial in range(20):
        cut = sample_pair_step(g, 3, delta_star, 1.0, random.Random(trial))
        assert cut is not None
        assert cut.validate(g)
        assert cut.size < 3


def test_local_sweep_finds_small_side():
    rng = random.Random(9)
    # tiny left side: the sweep, not pair sampling, is responsible for it
    g, middle = planted_separator(3, 40, 1, rng)
    delta_star = max_feasible_delta(2, g.m)
    cut = local_sweep_step(g, 2, delta_star, 2.0, random.Random(1))
    assert cut is not None
    assert cut.size < 2
    assert cut.validate(g)


def test_decision_degenerate_on_non_strongly_connected():
    g = Graph(3, [(1, 2), (2, 3)])
    verdict = is_connectivity_at_least(g, 2, random.Random(0))
    assert verdict.found
    assert verdict.stats["mode"] == "degenerate"
    assert verdict.cut.size == 0
    assert verdict.cut.validate(g)


def test_decision_modes_and_soundness():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 14)
        g = Graph.from_endpoints(n, *_random_scc_edges(
            range(1, n + 1), rng.randint(0, 2 * n), rng))
        kappa = oracle_vertex_connectivity(g)
        for k in (1, 2, kappa, kappa + 1):
            if k < 1 or k > n - 1:
                continue
            verdict = is_connectivity_at_least(g, k, rng)
            if verdict.found:
                # found cuts are always genuine
                assert verdict.cut.size < k
                assert verdict.cut.validate(g)
                assert kappa < k
            elif kappa < k:
                pytest.fail("missed an existing cut below %d" % k)


def test_exact_fallback_matches_oracle():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 10)
        g = Graph.from_endpoints(n, *_random_scc_edges(
            range(1, n + 1), rng.randint(0, 2 * n), rng))
        kappa, cut = fallback_exact(g)
        assert kappa == oracle_vertex_connectivity(g)
        if cut is not None:
            assert cut.size == kappa
            assert cut.validate(g)
        else:
            assert kappa == n - 1


def test_directed_connectivity_matches_oracle():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(2, 12)
        g = Graph.from_endpoints(n, *_random_scc_edges(
            range(1, n + 1), rng.randint(0, 2 * n), rng))
        kappa, cut = vertex_connectivity_directed(g, rng)
        assert kappa == oracle_vertex_connectivity(g)
        if cut is not None:
            assert cut.size == kappa
            assert cut.validate(g)


def test_directed_connectivity_of_clique():
    g = bidirected_clique(5)
    kappa, cut = vertex_connectivity_directed(g, random.Random(0))
    assert kappa == 4
    assert cut is None


def test_scan_first_certificate_preserves_small_connectivity():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(3, 12)
        pairs = set()
        while len(pairs) < rng.randint(n - 1, 2 * n):
            a, b = rng.sample(range(1, n + 1), 2)
            pairs.add((min(a, b), max(a, b)))
        und = UndirectedGraph(n, sorted(pairs))
        kappa = oracle_undirected_vertex_connectivity(und)
        for k in (1, 2, 3):
            cert = scan_first_certificate(und, k)
            assert cert.m <= k * (n - 1)
            ck = oracle_undirected_vertex_connectivity(cert)
            assert min(kappa, k) == min(ck, k)


def test_undirected_connectivity_matches_oracle():
    rng = random.Random(97)
    for _ in range(30):
        n = rng.randint(2, 12)
        pairs = set()
        while len(pairs) < rng.randint(n - 1, 3 * n):
            a, b = rng.sample(range(1, n + 1), 2)
            pairs.add((min(a, b), max(a, b)))
        und = UndirectedGraph(n, sorted(pairs))
        kappa, cut = vertex_connectivity_undirected(und, rng)
        assert kappa == oracle_undirected_vertex_connectivity(und)
        if cut is not None:
            assert cut.size == kappa
            assert cut.validate(und.to_directed())


def test_disconnected_undirected_graph():
    und = UndirectedGraph(4, [(1, 2), (3, 4)])
    kappa, cut = vertex_connectivity_undirected(und, random.Random(0))
    assert kappa == 0
    assert cut.size == 0
    assert cut.validate(und.to_directed())


def test_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        is_connectivity_at_least(bidirected_clique(3), 0, random.Random(0))
