"""mkecs charges its local phase against the global work it replaces.

One capped flow on the graph that detection reads costs 2k|read| edge
scans: k augmenting searches over its 2|read| arcs.  A local phase stops
popping starts once its detections have processed more than that, times
one plus the carves it has made, so it never outspends a flow per carve
by more than its last start.  Starts are taken by out-degree on that
graph, lowest first, where sides with few leaving edges are likely.

On a 2-link chain of c 6-cliques at k = 3 every class has more edges
than the detector's budget admits, so every detection fails; the charge
keeps the failing detections to at most 2c where they were up to 20c.
On a clique with pendant pairs the low out-degree starts reach every
pair before the credit is spent.
"""

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from localcuts import mkecs
from localcuts.graph import Graph, UndirectedGraph

from test_mkecs_global_first import pendant_core
from test_mkecs_requeue import clique_chain


@contextlib.contextmanager
def local_phases():
    """Record each `_carve` call: the credit one flow earns on the graph
    its detection reads, every detection as (start, edges processed,
    members), and the number of carves."""
    real_carve, real_detect = mkecs._carve, mkecs.detect_component_param
    phases = []

    def carve(vertices, tail, head, edges, cert, queue, k, *rest):
        read = edges if cert is None else cert
        phase = {"flow": 2 * k * len(read), "detections": [], "queue": queue}
        phases.append(phase)
        out = real_carve(vertices, tail, head, edges, cert, queue, k, *rest)
        phase["carves"] = len(out[0])
        return out

    def detect(g, s, *rest):
        res = real_detect(g, s, *rest)
        phases[-1]["detections"].append((s, res.edges_processed,
                                         res.members))
        return res

    with mock.patch.object(mkecs, "_carve", side_effect=carve), \
            mock.patch.object(mkecs, "detect_component_param",
                              side_effect=detect):
        yield phases


def start_costs(detections):
    """Edges processed per start: a backward detection follows the
    forward one from the same start, and a start is popped once."""
    costs = []
    last = None
    for s, processed, _ in detections:
        if s == last:
            costs[-1] += processed
        else:
            costs.append(processed)
        last = s
    return costs


def check_charges(phases):
    for phase in phases:
        costs = start_costs(phase["detections"])
        if phase["queue"]:
            assert costs, "a phase with a queue runs at least one start"
        # every start but the last began within the credit
        assert sum(costs[:-1]) <= phase["flow"] * (1 + phase["carves"])


@pytest.mark.parametrize("count,seed", [(10, 0), (20, 1), (40, 2)])
def test_clique_chains_run_at_most_two_detections_per_clique(count, seed):
    und = clique_chain(count, random.Random(seed))
    g = und.to_directed()
    expected = mkecs.baseline_mkecs(g, 3)
    assert len(expected.classes) == count
    with local_phases() as directed_phases:
        directed = mkecs.mkecs_directed(g, 3, random.Random(seed))
    with local_phases() as undirected_phases:
        undirected = mkecs.mkecs_undirected(und, 3, random.Random(seed))
    assert directed == expected
    assert undirected == expected
    for phases in (directed_phases, undirected_phases):
        check_charges(phases)
        assert sum(len(p["detections"]) for p in phases) <= 2 * count


def test_low_out_degree_starts_find_every_pendant_pair():
    und = pendant_core(20, 30, random.Random(5))
    g = und.to_directed()
    expected = mkecs.baseline_mkecs(g, 3)
    # a pair has 2 leaving edges, so it is carved, then falls apart
    assert len(expected.classes) == 61
    pairs = {frozenset((20 + 2 * i + 1, 20 + 2 * i + 2)) for i in range(30)}
    for run in (lambda: mkecs.mkecs_directed(g, 3, random.Random(1)),
                lambda: mkecs.mkecs_undirected(und, 3, random.Random(1))):
        with local_phases() as phases:
            assert run() == expected
        check_charges(phases)
        found = {frozenset(members) for p in phases
                 for _, _, members in p["detections"]}
        assert pairs <= found


@st.composite
def clustered_graphs(draw):
    """(n, pairs): cliques of 2-7 vertices, each thinned at its own rate,
    joined by up to n random links; parallel pairs allowed."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(2, 40))
    labels = rng.sample(range(1, n + 1), n)
    pairs = []
    i = 0
    while i < n:
        cluster = labels[i:i + rng.randint(2, 7)]
        i += len(cluster)
        p = rng.uniform(0.5, 1.0)
        pairs += [(a, b) for a in cluster for b in cluster
                  if a < b and rng.random() < p]
    pairs += [tuple(rng.sample(range(1, n + 1), 2))
              for _ in range(rng.randint(0, n))]
    return n, pairs


@settings(max_examples=60, deadline=None)
@given(clustered_graphs(), st.integers(1, 4), st.none() | st.integers(1, 8),
       st.integers(0, 2 ** 32))
def test_every_phase_stays_within_its_credit(graph, k, budget, seed):
    n, pairs = graph
    rng = random.Random(seed)
    und = UndirectedGraph(n, pairs)
    bidirected = und.to_directed()
    # each pair kept one way or both: unbalanced, so read both ways
    arcs = [a for u, v in pairs
            for a in rng.choice([[(u, v)], [(v, u)], [(u, v), (v, u)]])]
    oriented = Graph(n, arcs)
    runs = [(oriented, lambda: mkecs.mkecs_directed(
                oriented, k, random.Random(seed), delta=budget)),
            (bidirected, lambda: mkecs.mkecs_directed(
                bidirected, k, random.Random(seed), delta=budget)),
            (bidirected, lambda: mkecs.mkecs_undirected(
                und, k, random.Random(seed), gamma=budget))]
    for g, run in runs:
        with local_phases() as phases:
            decomposition = run()
        check_charges(phases)
        assert decomposition == mkecs.baseline_mkecs(g, k)
