"""A connectivity probe stops once its own work decides the threshold.

The pair flows are exact, so a probe whose flows cover every ordered
pair at k without a cut has proven kappa >= k and skips the sweep; the
sweep detects each (vertex, orientation) once unless a success had to
be discarded.
"""

import math
import random

import pytest

from localcuts import vertex_cut
from localcuts.connectivity import (PairCuts, is_connectivity_at_least,
                                    local_sweep_step, max_feasible_delta,
                                    sample_pair_step)
from localcuts.generators import planted_separator
from localcuts.graph import Graph, Overlay


def circulant(n, d):
    """The directed circulant C(n, d): edges i -> i+1, ..., i+d (mod n)."""
    return Graph(n, [(i, (i - 1 + j) % n + 1)
                     for i in range(1, n + 1) for j in range(1, d + 1)])


def bidirected_clique(n):
    return Graph(n, [(a, b) for a in range(1, n + 1)
                     for b in range(1, n + 1) if a != b])


def test_sweep_detects_each_vertex_and_orientation_once(monkeypatch):
    g = circulant(12, 3)            # kappa = 3: no side below 2 exists
    delta_star = max_feasible_delta(2, g.m)
    assert delta_star >= 2          # at least two budget levels
    calls = []
    inner = vertex_cut.detect_vertex_out_component

    def counted(gg, s, *rest, **kw):
        calls.append(s)
        return inner(gg, s, *rest, **kw)

    monkeypatch.setattr(vertex_cut, "detect_vertex_out_component", counted)
    for seed in range(10):
        calls.clear()
        assert local_sweep_step(g, 2, delta_star, 2.0,
                                random.Random(seed)) is None
        assert 0 < len(calls) <= 2 * g.n


@pytest.mark.parametrize("g", [circulant(12, 3), bidirected_clique(8)])
def test_probe_decided_by_its_flows_skips_the_sweep(g):
    # kappa is 3 and 7: at k = 2 the right answer is "at least k".  The
    # pair step alone, since a probe runs Even's scheme first and on
    # these graphs it finishes within budget.
    delta_star = max_feasible_delta(2, g.m)
    for seed in range(10):
        pairs = PairCuts()
        cut = sample_pair_step(g, 2, delta_star, 2.0, random.Random(seed),
                               pairs)
        assert cut is None
        # the probe skips the sweep exactly when this proof holds
        assert pairs.proves_at_least(g, 2), \
            "the sweep would run after the flows covered every pair"


def test_probe_with_uncovered_pairs_still_sweeps(monkeypatch):
    g, _ = planted_separator(3, 40, 1, random.Random(9))
    n, k, c = g.n, 2, 2.0
    delta_star = max_feasible_delta(k, g.m)
    t_pairs = math.ceil((4.0 * g.m / delta_star) * c * math.log(n))
    # too few draws to flow every ordered pair, so the flows prove nothing
    assert 4 * t_pairs < n * (n - 1)
    for seed in range(10):
        verdict = is_connectivity_at_least(g, k, random.Random(seed), c)
        assert verdict.found
        assert verdict.cut.size < k and verdict.cut.validate(g)
    # the probe above is decided by Even's scheme, so the sweep is run
    # on its own: it finds the planted side, reversing paths on the way
    flips = count_flips(monkeypatch)
    for seed in range(10):
        cut = local_sweep_step(g, k, delta_star, c, random.Random(seed))
        assert cut is not None
        assert cut.size < k and cut.validate(g)
    assert flips


def count_flips(monkeypatch):
    """Patch `Overlay.flip` to record each reversed edge id; returns the
    list it appends to."""
    flips = []
    inner = Overlay.flip

    def counted(self, eid):
        flips.append(eid)
        return inner(self, eid)

    monkeypatch.setattr(Overlay, "flip", counted)
    return flips


def test_max_feasible_delta_closed_form_matches_definition():
    def feasible(k, delta, m):
        return vertex_cut.component_volume_bound(k - 1, delta) + k * k < m

    for k in range(1, 9):
        for m in range(3000):
            d = max_feasible_delta(k, m)
            if d == 0:
                assert not feasible(k, 1, m)
            else:
                assert feasible(k, d, m) and not feasible(k, d + 1, m)
