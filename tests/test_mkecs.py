import random
from itertools import combinations

import pytest

from localcuts.graph import Graph, UndirectedGraph, graph_sccs
from localcuts.flow import edge_cut_below, global_edge_cut_below
from localcuts.mkecs import (
    Decomposition, baseline_mkecs, baseline_mkecs_undirected,
    detection_edge_bound, sparse_certificate, mkecs_directed,
    mkecs_undirected,
)
from localcuts.generators import random_digraph, figure_shape
from localcuts.oracles import oracle_min_directed_cut


def random_undirected(rng, n_max=10, density=2):
    n = rng.randint(2, n_max)
    pairs = set()
    for _ in range(rng.randint(1, density * n)):
        a, b = rng.sample(range(1, n + 1), 2)
        pairs.add((min(a, b), max(a, b)))
    return UndirectedGraph(n, sorted(pairs))


def test_baseline_k1_equals_sccs():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(2, 10)
        g, _ = random_digraph(n, rng.randint(0, 3 * n), rng)
        dec = baseline_mkecs(g, 1)
        assert sorted(dec.as_sorted()) == sorted(
            tuple(sorted(c)) for c in graph_sccs(g))


def test_baseline_classes_partition_and_are_maximal():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 8)
        g, _ = random_digraph(n, rng.randint(1, 3 * n), rng)
        k = rng.randint(2, 3)
        dec = baseline_mkecs(g, k)
        all_v = sorted(v for c in dec.classes for v in c)
        assert all_v == list(range(1, n + 1))
        for c in dec.classes:
            if len(c) == 1:
                continue
            # the class itself is k-edge-connected
            sub = [e.id for e in g.edges if e.tail in c and e.head in c]
            assert edge_cut_below(set(c), *g.endpoints(), sub, k) is None


def test_global_cut_matches_enumeration_oracle():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 7)
        g, _ = random_digraph(n, rng.randint(1, 2 * n), rng)
        best = oracle_min_directed_cut(g)
        for k in (1, 2, 3):
            found = global_edge_cut_below(g, k)
            if best < k:
                assert found is not None
                assert len(found.cut_edges) < k
                # the returned ids really are the edges leaving the side
                leaving = [e.id for e in g.edges
                           if e.tail in found.side
                           and e.head not in found.side]
                assert sorted(found.cut_edges) == sorted(leaving)
            else:
                assert found is None


def test_detection_edge_bound_values():
    assert detection_edge_bound(1, 4) == 10
    assert detection_edge_bound(2, 1) == 12
    assert detection_edge_bound(0, 7) == 7


def test_directed_matches_baseline():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 12)
        g, _ = random_digraph(n, rng.randint(1, 3 * n), rng)
        for k in (2, 3):
            assert mkecs_directed(g, k, rng) == baseline_mkecs(g, k)


def test_undirected_matches_baseline():
    rng = random.Random(13)
    for _ in range(40):
        und = random_undirected(rng)
        for k in (2, 3):
            got = mkecs_undirected(und, k, rng)
            assert got == baseline_mkecs_undirected(und, k)


def test_certificate_size_and_cut_preservation():
    rng = random.Random(17)
    for _ in range(30):
        und = random_undirected(rng, n_max=7)
        for k in (1, 2, 3):
            cert = sparse_certificate(und, k)
            assert cert.n == und.n
            assert cert.m <= k * (und.n - 1)
            cert_pairs = {(e.tail, e.head) for e in cert.edges}
            base_pairs = {(e.tail, e.head) for e in und.edges}
            assert cert_pairs <= base_pairs
            # cuts of size below k survive sparsification exactly
            for r in range(1, und.n):
                for side in combinations(range(1, und.n + 1), r):
                    s = set(side)
                    full = sum(1 for (a, b) in base_pairs
                               if (a in s) != (b in s))
                    kept = sum(1 for (a, b) in cert_pairs
                               if (a in s) != (b in s))
                    assert min(full, k) == min(kept, k)


# a class {2, ..., 6} whose 3-forest certificate drops the edge (4, 6)
THINNED_CLASS = [(3, 6), (1, 5), (4, 5), (2, 6), (1, 6), (3, 4), (2, 4),
                 (2, 5), (3, 5), (2, 3), (4, 6)]


def test_figure_shape_certificate_drops_a_core_edge():
    und = UndirectedGraph(6, THINNED_CLASS)
    core = {2, 3, 4, 5, 6}
    assert tuple(sorted(core)) in baseline_mkecs_undirected(und, 3).as_sorted()
    cert = sparse_certificate(und, 3)
    assert cert.m == 10
    dropped = ({(e.tail, e.head) for e in und.edges}
               - {(e.tail, e.head) for e in cert.edges})
    assert len(dropped) == 1
    (a, b), = dropped
    assert {a, b} <= core
    # the certificate alone no longer contains the 3-edge-connected class
    naive = baseline_mkecs_undirected(cert, 3)
    assert all(len(c) < len(core) for c in naive.classes)
    # the shipped procedure still reports it exactly
    assert mkecs_undirected(und, 3, random.Random(0)) \
        == baseline_mkecs_undirected(und, 3)
    und, meta = figure_shape()
    dec = mkecs_undirected(und, 3, random.Random(0))
    assert dec == baseline_mkecs_undirected(und, 3)
    assert tuple(sorted(meta["core"])) in dec.as_sorted()


def test_rejects_nonpositive_k():
    g = Graph(2, [(1, 2)])
    with pytest.raises(ValueError):
        baseline_mkecs(g, 0)
    with pytest.raises(ValueError):
        mkecs_directed(g, 0, random.Random(0))


def test_decomposition_compares_unequal_to_other_types():
    dec = Decomposition(2, [frozenset({2, 1}), frozenset({3})])
    assert dec == Decomposition(2, [frozenset({3}), frozenset({1, 2})])
    assert dec != Decomposition(3, [frozenset({1, 2}), frozenset({3})])
    assert not dec == None  # noqa: E711
    assert dec != [(1, 2), (3,)]
    assert dec in [None, dec]
    assert None not in [dec]
