"""Connectivity probes run Even's scheme first, within the sampled cost.

A probe in sampling range runs Even's scheme under a budget equal to
the code's bound on its sampled steps' cost, charged only for the flows
it runs and the sets it builds.  A finished run decides the probe
exactly and ends the directed search; a run over budget hands its
`PairCuts` to the sampled steps, which then run as they would alone.
The sampled path stays under differential test with the budget at 0.
"""

import random

import pytest
from hypothesis import given, settings

from localcuts import connectivity, flow
from localcuts.connectivity import (PairCuts, fallback_exact,
                                    is_connectivity_at_least,
                                    local_sweep_step, max_feasible_delta,
                                    sample_pair_step,
                                    vertex_connectivity_directed,
                                    vertex_connectivity_undirected)
from localcuts.generators import _random_scc_edges, planted_separator
from localcuts.graph import Graph
from localcuts.oracles import oracle_vertex_connectivity

from test_kappa_large_n import instances
from test_probe_stops import bidirected_clique, circulant


def counting_probes(monkeypatch):
    probed = []
    real = connectivity.is_connectivity_at_least

    def counting(g, k, *args, **kwargs):
        probed.append(k)
        return real(g, k, *args, **kwargs)

    monkeypatch.setattr(connectivity, "is_connectivity_at_least", counting)
    return probed


@pytest.mark.parametrize("g", [circulant(12, 2), circulant(12, 3),
                               circulant(16, 2), bidirected_clique(8)],
                         ids=["C(12,2)", "C(12,3)", "C(16,2)", "K8"])
def test_an_exact_probe_ends_the_directed_search(monkeypatch, g):
    kappa, cut = fallback_exact(g)
    for seed in range(5):
        probed = counting_probes(monkeypatch)
        assert vertex_connectivity_directed(g, random.Random(seed)) == \
            (kappa, cut)
        monkeypatch.undo()
        assert len(probed) == 1
        if cut is None:
            assert kappa == g.n - 1
        else:
            assert cut.size == kappa and cut.validate(g)


def sampled_alone(g, k, seed):
    """The sampled steps of a probe at k on a fresh PairCuts: (cut, rng)."""
    rng = random.Random(seed)
    delta_star = max_feasible_delta(k, g.m)
    pairs = PairCuts()
    cut = sample_pair_step(g, k, delta_star, 2.0, rng, pairs)
    if cut is None and not pairs.proves_at_least(g, k):
        cut = local_sweep_step(g, k, delta_star, 2.0, rng)
    return cut, rng


@pytest.mark.parametrize("g,k", [
    (circulant(12, 3), 2), (circulant(16, 2), 2), (circulant(40, 3), 3),
    (planted_separator(3, 40, 1, random.Random(9))[0], 2),
    (planted_separator(4, 30, 2, random.Random(5))[0], 3)])
def test_a_zero_budget_leaves_the_sampled_path_alone(monkeypatch, g, k):
    monkeypatch.setattr(connectivity, "_sampled_probe_cost",
                        lambda *args: 0)
    for seed in range(5):
        rng = random.Random(seed)
        verdict = is_connectivity_at_least(g, k, rng)
        cut, alone = sampled_alone(g, k, seed)
        assert verdict.stats["mode"] == "sampled"
        assert verdict.exact is None
        assert verdict.found == (cut is not None)
        assert verdict.cut == cut
        assert rng.getstate() == alone.getstate()


def test_memo_hits_and_proven_pairs_cost_nothing():
    g = circulant(12, 3)
    pairs = PairCuts()
    assert pairs.cut(g, 1, 8, 4) is not None     # kappa = 3 < 4
    spent = pairs.spent
    assert spent > 0
    pairs.cut(g, 1, 8, 4)                       # answered from the memo
    assert pairs.spent == spent
    # every vertex joins 1's forward set at limit 2; the far ends' sets,
    # which a lookup grows, are built first, so only lookups follow
    assert len(pairs.proven_reach(g, 1, 2, False).members) == g.n
    for t in range(2, g.n + 1):
        pairs.proven_reach(g, t, 2, True)
    spent = pairs.spent
    for t in range(2, g.n + 1):
        assert pairs.cut(g, 1, t, 2) is None    # skipped by the set
    assert pairs.spent == spent


@pytest.mark.parametrize("g", [circulant(16, 2), circulant(20, 3),
                               planted_separator(3, 20, 1,
                                                 random.Random(2))[0]])
def test_an_abandoned_run_is_replayed_for_free(g):
    fresh = PairCuts()
    answer = fallback_exact(g, fresh)
    total = fresh.spent
    pairs = PairCuts()
    assert flow.even_scheme(g, pairs, total // 2) is None
    # the replay of the first run is free, so the rest of the work fits
    # in what the first run left of the whole
    assert flow.even_scheme(g, pairs, total - pairs.spent) == \
        answer
    assert pairs.spent == total


def test_cut_is_none_only_when_no_vertex_cut_exists():
    k5 = bidirected_clique(5)
    verdict = is_connectivity_at_least(k5, 5, random.Random(0))
    assert verdict.found and verdict.cut is None
    assert verdict.exact == (4, None)
    assert not is_connectivity_at_least(k5, 4, random.Random(0)).found

    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 9)
        g = Graph.from_endpoints(n, *_random_scc_edges(
            range(1, n + 1), rng.randint(0, n * n), rng))
        kappa = oracle_vertex_connectivity(g)
        complete = len(set(g.pairs()) - {(v, v) for v in g.vertices()}) \
            == n * (n - 1)
        for k in range(1, n + 2):
            verdict = is_connectivity_at_least(g, k, rng)
            assert verdict.found == (kappa < k)
            if verdict.found and verdict.cut is None:
                assert complete and k > n - 1
            elif verdict.found:
                assert verdict.cut.size < k and verdict.cut.validate(g)


@settings(max_examples=100, deadline=None)
@given(instances())
def test_sampled_drivers_match_the_exact_fallback(instance):
    # the instances of test_kappa_large_n, with every probe sampled
    g, dg, seed = instance
    kappa = fallback_exact(dg)[0]
    runs = [(vertex_connectivity_directed, dg)]
    if g is not dg:
        runs.append((vertex_connectivity_undirected, g))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(connectivity, "_sampled_probe_cost", lambda *args: 0)
        for driver, arg in runs:
            found, cut = driver(arg, random.Random(seed))
            assert found == kappa
            if cut is None:
                assert kappa == g.n - 1
            else:
                assert cut.size == kappa and cut.validate(dg)
