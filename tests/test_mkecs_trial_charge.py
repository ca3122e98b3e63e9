"""mkecs charges its local phase per detection trial.

A phase's credit starts at the arcs its piece's cut search scanned, at
most one capped flow on the graph detection reads (2k|read|), and each
carve adds one such flow.  A start is popped only while the credit left
covers one trial at the detector's edge bound, and each detection runs
at most the trials that the credit left pays for, at least one and at
most those of a 1 - n^-3 target.  So a phase spends at most its credit
plus one trial bound per orientation it reads.

On a 2-link chain of c 6-cliques at k = 3 the cut search finds a cut
of the chain in few flows, and each phase with a queue runs one
detection, within its credit or, when that covers less, one trial; a
detection that returns the whole piece carves nothing and is followed
by the next start's.
"""

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from localcuts import mkecs
from localcuts.edge_cut import (high_probability, repetitions_for,
                                trial_edge_bound)
from localcuts.graph import Graph, UndirectedGraph

from test_mkecs_charged_phase import clustered_graphs
from test_mkecs_requeue import clique_chain


@contextlib.contextmanager
def local_phases():
    """Record each `_carve` call: its initial credit, what one carve
    earns, its trial bound and trial cap, every detection as (start,
    trials paid, trials used, edges processed, members), and the
    member sets it carved."""
    real_carve, real_detect = mkecs._carve, mkecs.detect_component_param
    phases = []

    def carve(vertices, tail, head, edges, cert, queue, k, kd, delta, rng,
              scans):
        read = edges if cert is None else cert
        flow = 2 * k * len(read)
        phase = {"credit": min(scans, flow), "flow": flow,
                 "trial": trial_edge_bound(kd, delta),
                 "most": repetitions_for(
                     high_probability(max(2, len(vertices)))),
                 "detections": [], "queue": queue,
                 "vertices": frozenset(vertices)}
        phases.append(phase)
        out = real_carve(vertices, tail, head, edges, cert, queue, k, kd,
                         delta, rng, scans)
        phase["carved"] = [members for members, _ in out[0]]
        return out

    def detect(g, s, k, delta, p, rng):
        res = real_detect(g, s, k, delta, p, rng)
        phases[-1]["detections"].append(
            (s, repetitions_for(p), res.trials_used, res.edges_processed,
             res.members))
        return res

    with mock.patch.object(mkecs, "_carve", side_effect=carve), \
            mock.patch.object(mkecs, "detect_component_param",
                              side_effect=detect):
        yield phases


def check_phase(phase):
    """Replay the phase's charge; return its spend and final credit."""
    detections = phase["detections"]
    if phase["queue"]:
        assert detections, "a phase with a queue runs at least one start"
    # a carve follows the last detection that returned its members
    found_at = {members: i for i, (*_, members) in enumerate(detections)}
    carve_at = {found_at[frozenset(members)] for members in phase["carved"]}
    credit, spent = phase["credit"], 0
    backward = False
    last = None
    trial = phase["trial"]
    for i, (s, paid, used, processed, _) in enumerate(detections):
        left = credit - spent
        if s == last:
            # the backward detection of the same start
            backward = True
        elif last is not None:
            # every start but the first is popped within its credit
            assert left >= trial
        assert 1 <= paid <= phase["most"]
        assert paid <= max(1, left // trial)
        assert used <= paid
        assert processed <= used * trial
        spent += processed
        if i in carve_at:
            credit += phase["flow"]
        last = s
    assert spent <= credit + (2 if backward else 1) * trial
    return spent, credit


@settings(max_examples=60, deadline=None)
@given(clustered_graphs(), st.integers(1, 4), st.none() | st.integers(1, 8),
       st.integers(0, 2 ** 32))
def test_every_detection_runs_only_the_trials_its_credit_paid(
        graph, k, budget, seed):
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
        for phase in phases:
            check_phase(phase)
        assert decomposition == mkecs.baseline_mkecs(g, k)


@pytest.mark.parametrize("count,seed", [(10, 0), (20, 1), (40, 2)])
def test_clique_chain_phases_run_one_detection_within_credit(count, seed):
    und = clique_chain(count, random.Random(seed))
    g = und.to_directed()
    expected = mkecs.baseline_mkecs(g, 3)
    assert len(expected.classes) == count
    for run in (lambda: mkecs.mkecs_directed(g, 3, random.Random(seed)),
                lambda: mkecs.mkecs_undirected(und, 3, random.Random(seed))):
        with local_phases() as phases:
            assert run() == expected
        assert phases
        for phase in phases:
            spent, credit = check_phase(phase)
            assert bool(phase["detections"]) == bool(phase["queue"])
            # a detection that returns the whole piece carves nothing,
            # and only then does the phase go on to its next start
            assert all(members == phase["vertices"]
                       for *_, members in phase["detections"][:-1])
            # the first start runs even when its credit covers no trial
            assert spent <= max(credit, phase["trial"])
