"""The local sweep finds a planted small side on its own.

`local_sweep_step` is the part of a sampled connectivity probe that
serves cuts with a side of small symmetric volume.  The pair step or
Even's scheme decides most probes first, so these tests call the sweep
directly, and drive `is_connectivity_at_least` with both of those
stubbed out.

The instance is a directed circulant C(n, d), d >= k, so kappa = d, plus
a planted bidirected clique L of s vertices.  Every vertex of L has arcs
to the same k - 1 circulant vertices A, and r >= k circulant vertices
outside A have one arc each into L.  So (L, A, rest) is a vertex cut of
size k - 1 with L on the out side, L is no in side, and no other set
with fewer than k out- or in-neighbours has small volume.  r is as large
as the sweep's guarantee allows: L's symmetric volume is at most
max_feasible_delta(k, m) / 2, so at c = 2 the sweep misses it with
probability at most n^-2 + n^-3.  On reverse_graph of the instance L is
an in side, found in the sweep's "in" orientation.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from localcuts import connectivity
from localcuts.connectivity import (is_connectivity_at_least,
                                    local_sweep_step, max_feasible_delta)
from localcuts.graph import Graph, reverse_graph

from test_probe_stops import circulant


def planted_volume(s, k, r):
    """Symmetric volume of L: its clique arcs, arcs to A, arcs in."""
    return s * (s - 1) + s * (k - 1) + r


def fits(n, d, k, s, r):
    volume = planted_volume(s, k, r)
    return volume <= max_feasible_delta(k, n * d + volume) / 2


def planted_circulant(n, k, s, rng):
    """(g, L): C(n, d) with the planted side L, d the least degree >= k
    at which r = k in-arcs fit the volume bound, r the most that fit."""
    d = k
    while not fits(n, d, k, s, k):
        d += 1
    r = k
    while r + 1 <= n - (k - 1) and fits(n, d, k, s, r + 1):
        r += 1
    pairs = list(circulant(n, d).pairs())
    side = list(range(n + 1, n + s + 1))
    attach = rng.sample(range(1, n + 1), k - 1)
    sources = rng.sample([v for v in range(1, n + 1) if v not in attach], r)
    pairs += [(a, b) for a in side for b in side if a != b]
    pairs += [(a, b) for a in side for b in attach]
    pairs += [(u, side[i % s]) for i, u in enumerate(sources)]
    g = Graph(n + s, pairs)
    assert planted_volume(s, k, r) <= max_feasible_delta(k, g.m) / 2
    return g, frozenset(side)


instances = st.tuples(st.integers(50, 150), st.integers(2, 3),
                      st.integers(1, 3), st.integers(0, 2 ** 32 - 1))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(instances)
def test_sweep_finds_the_planted_side_in_both_orientations(inst):
    n, k, s, seed = inst
    g, side = planted_circulant(n, k, s, random.Random(seed))
    delta_star = max_feasible_delta(k, g.m)
    for orient, gg in (("out", g), ("in", reverse_graph(g))):
        cut = local_sweep_step(gg, k, delta_star, 2.0, random.Random(seed))
        assert cut is not None, orient
        assert cut.size < k and cut.validate(gg)
        assert (cut.left if orient == "out" else cut.right) == side


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(50, 150), st.integers(2, 3), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_sweep_finds_nothing_on_a_plain_circulant(n, k, extra, seed):
    g = circulant(n, k + extra)
    delta_star = max_feasible_delta(k, g.m)
    assert delta_star >= 1
    assert local_sweep_step(g, k, delta_star, 2.0,
                            random.Random(seed)) is None


@pytest.fixture
def sweep_only():
    """is_connectivity_at_least with Even's scheme stopped at once and a
    pair step that finds nothing, so only the sweep can find a cut."""
    with mock.patch.object(connectivity, "_sampled_probe_cost",
                           return_value=0), \
            mock.patch.object(connectivity, "sample_pair_step",
                              return_value=None):
        yield


@pytest.mark.parametrize("n, k, s", [(60, 2, 2), (120, 3, 1), (90, 3, 3)])
def test_driver_finds_the_planted_side_by_the_sweep(sweep_only, n, k, s):
    g, side = planted_circulant(n, k, s, random.Random(n))
    verdict = is_connectivity_at_least(g, k, random.Random(1))
    assert verdict.stats["mode"] == "sampled"
    assert verdict.found
    assert verdict.cut.size < k and verdict.cut.validate(g)
    assert verdict.cut.left == side


@pytest.mark.parametrize("n, d, k", [(60, 2, 2), (120, 3, 3)])
def test_driver_answers_at_least_k_on_a_plain_circulant(sweep_only, n, d, k):
    verdict = is_connectivity_at_least(circulant(n, d), k, random.Random(1))
    assert verdict.stats["mode"] == "sampled"
    assert verdict.decision == "probably_at_least_k"
