import random

import pytest

from localcuts.edge_cut import (ComponentResult, budgeted_dfs,
                                detect_component, detect_component_param,
                                repetitions_for, verify_k_edge_out)
from localcuts.generators import planted_edge_component, random_digraph
from localcuts.graph import CountedView, Graph
from localcuts.oracles import (oracle_is_minimal_component,
                               oracle_min_edge_out_component)


def path_graph():
    return Graph(3, [(1, 2), (2, 3)])


def two_cycles_bridge():
    # cycle 1-2-3 feeding cycle 4-5-6 through one edge, and back
    return Graph(6, [(1, 2), (2, 3), (3, 1), (3, 4),
                     (4, 5), (5, 6), (6, 4), (6, 1)])


def test_dfs_visits_reachable_set_under_budget():
    res = budgeted_dfs(CountedView(path_graph()), 1, 10)
    assert res.completed
    assert res.visited == {1, 2, 3}
    assert [eid for eid, _ in res.processed] == [0, 1]
    assert res.tree_parent == {2: (1, 0), 3: (2, 1)}


def test_dfs_stops_the_moment_budget_is_hit():
    res = budgeted_dfs(CountedView(path_graph()), 1, 1)
    assert not res.completed
    assert len(res.processed) == 1


def test_dfs_exhausting_exactly_at_budget_is_not_completed():
    res = budgeted_dfs(CountedView(path_graph()), 1, 2)
    assert len(res.processed) == 2
    assert not res.completed


def test_dfs_attaches_tree_parent_at_first_encounter():
    g = Graph(3, [(1, 2), (1, 3), (3, 2)])
    res = budgeted_dfs(CountedView(g), 1, 10)
    # vertex 2 is first encountered over edge 0, even though edge 2
    # reaches it again later
    assert res.tree_parent[2] == (1, 0)


def test_detect_with_k_zero_is_budgeted_reachability():
    g = path_graph()
    res = detect_component(g, 1, 0, 2, random.Random(0))
    assert res.members == {1, 2, 3}
    assert res.out_edges == ()
    assert res.edge_size == 2
    # probes: two present and one absent per vertex tail, 5 in total
    assert res.queries_used == 5
    assert res.edges_processed == 2
    res = detect_component(g, 1, 0, 1, random.Random(0))
    assert not res


def test_detect_returns_empty_on_expander_like_start():
    # a bidirected triangle has no proper 0-edge-out subset and the whole
    # vertex set exceeds the budget, so k=0 detection with delta=1 fails
    g = Graph(3, [(1, 2), (2, 1), (2, 3), (3, 2), (3, 1), (1, 3)])
    for s in range(20):
        assert not detect_component(g, 1, 0, 1, random.Random(s))


def test_detect_finds_small_cycle_component():
    # the chord (1, 3) rules out every proper subset of the first cycle,
    # so {1, 2, 3} is the unique minimal 1-edge-out set containing 1; the
    # long second cycle keeps the first search round from finishing
    g = Graph(9, [(1, 2), (2, 3), (3, 1), (1, 3), (3, 4), (4, 5),
                  (5, 6), (6, 7), (7, 8), (8, 9), (9, 4), (9, 1)])
    hits = 0
    for s in range(400):
        res = detect_component(g, 1, 1, 4, random.Random(s))
        if res:
            hits += 1
            assert res.members == {1, 2, 3}
            assert len(res.out_edges) <= 1
    assert hits / 400 >= 0.5


def test_nonempty_results_are_sound_and_size_bounded():
    rng = random.Random(42)
    for _ in range(150):
        n = rng.randint(2, 9)
        g, _ = random_digraph(n, rng.randint(1, 3 * n), rng)
        s = rng.randint(1, n)
        k = rng.randint(0, 2)
        delta = rng.randint(1, 6)
        res = detect_component(g, s, k, delta, rng)
        if res:
            assert s in res.members
            assert len(res.out_edges) <= k
            assert res.edge_size <= max(2 * k * (delta + k), delta)
        assert res.edges_processed <= 2 * k * k * (delta + k) + delta + 1


def test_nonempty_results_are_minimal():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 8)
        g, _ = random_digraph(n, rng.randint(1, 3 * n), rng)
        s = rng.randint(1, n)
        res = detect_component(g, s, 1, 4, rng)
        if res:
            assert oracle_is_minimal_component(g, s, res.members, 1)


def test_success_floor_on_planted_instance():
    g, cert = planted_edge_component(4, 1, 300, random.Random(9))
    hits = sum(bool(detect_component(g, 1, 1, 4, random.Random(s)))
               for s in range(2000))
    assert hits / 2000 >= 0.5 - 3 * (0.25 / 2000) ** 0.5


def test_sampling_is_uniform_over_processed_edges():
    # the detector samples via randrange over F; check the raw stream
    rng = random.Random(123)
    bins = [0] * 20
    draws = 10 ** 5
    for _ in range(draws):
        bins[rng.randrange(20)] += 1
    expected = draws / 20
    chi2 = sum((b - expected) ** 2 / expected for b in bins)
    # 99.9% quantile of chi-square with 19 degrees of freedom
    assert chi2 < 43.82


@pytest.mark.parametrize("p,reps", [(0.5, 1), (0.75, 2), (15 / 16, 4)])
def test_repetition_count(p, reps):
    assert repetitions_for(p) == reps


def test_repetitions_reject_bad_p():
    with pytest.raises(ValueError):
        repetitions_for(1.0)


def test_param_detection_amplifies_and_reports_trials():
    g = two_cycles_bridge()
    res = detect_component_param(g, 1, 1, 3, 15 / 16, random.Random(3))
    assert res
    assert 1 <= res.trials_used <= 4


def test_detect_validates_arguments():
    g = path_graph()
    with pytest.raises(ValueError):
        detect_component(g, 9, 1, 2, random.Random(0))
    with pytest.raises(ValueError):
        detect_component(g, 1, -1, 2, random.Random(0))
