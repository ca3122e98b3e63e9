"""Scan-first certificates of undirected multigraphs.

Parallel copies and loops add no vertex connectivity, so the forests are
built on the simple graph underneath; a forest spent on a parallel copy
would leave the certificate below min(kappa, k), and the undirected
driver would find certificate cuts that do not separate the input.
"""

import random

from hypothesis import example, given, settings, strategies as st

from localcuts import connectivity
from localcuts.connectivity import (fallback_exact, scan_first_certificate,
                                    vertex_connectivity_undirected)
from localcuts.graph import UndirectedGraph
from localcuts.oracles import oracle_undirected_vertex_connectivity

from test_kappa_large_n import SHAPES


@st.composite
def multigraphs(draw):
    """Random pairs on n = 3-8 vertices, loops allowed, plus parallel
    copies of many of them in either orientation, shuffled."""
    n = draw(st.integers(3, 8))
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=n,
                          max_size=4 * n))
    copies = draw(st.lists(st.sampled_from(pairs), min_size=len(pairs) // 2,
                           max_size=2 * len(pairs)))
    flips = draw(st.lists(st.booleans(), min_size=len(copies),
                          max_size=len(copies)))
    pairs += [(v, u) if flip else (u, v)
              for (u, v), flip in zip(copies, flips)]
    return UndirectedGraph(n, draw(st.permutations(pairs)))


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.integers(1, 8))
@example(UndirectedGraph(4, [(1, 2), (1, 3), (1, 4)] * 2
                         + [(2, 3), (2, 4), (3, 4)] * 2), 2)
def test_certificate_keeps_connectivity_up_to_k(und, k):
    cert = scan_first_certificate(und, k)
    assert cert.m <= k * (und.n - 1)
    assert (min(oracle_undirected_vertex_connectivity(cert), k)
            == min(oracle_undirected_vertex_connectivity(und), k))


def test_undirected_driver_lifts_every_certificate_cut(monkeypatch):
    # the families of test_kappa_large_n, undirected; their random chords
    # repeat pairs, so most inputs are multigraphs
    lifts = []
    lift = connectivity._lift_cutset

    def recorded(und, middle):
        lifts.append(lift(und, middle))
        return lifts[-1]

    monkeypatch.setattr(connectivity, "_lift_cutset", recorded)
    rng = random.Random(2024)
    multigraph_count = 0
    for _ in range(30):
        n = rng.randint(15, 40)
        und = UndirectedGraph(n, rng.choice(SHAPES)(n, rng))
        multigraph_count += (len({frozenset(p) for p in und.pairs()})
                             < und.m)
        kappa, cut = vertex_connectivity_undirected(
            und, random.Random(rng.random()))
        dg = und.to_directed()
        assert kappa == fallback_exact(dg)[0]
        assert cut is None or cut.validate(dg)
    assert multigraph_count >= 20
    assert lifts and None not in lifts
