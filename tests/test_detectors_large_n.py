"""Both detectors at n = 50-150, where no enumeration oracle reaches.

Planted edge components, planted vertex separators and random digraphs,
each in its own orientation or reversed, with the vertex detector in
plain and symmetric mode.  Every call must return without raising and
keep the guarantees that hold on every path, found or not: the trial
edge bound, soundness, the size and volume caps, and (for edge results
small enough to enumerate) minimality.  The trial edge bound is written
out here as well as read from the library: each trial is capped by how
it is built, not by a check inside the detector.
"""

import random

from hypothesis import given, settings, strategies as st

from localcuts import edge_cut, vertex_cut
from localcuts.edge_cut import (detect_component_param, internal_edge_count,
                                out_edge_ids, repetitions_for)
from localcuts.generators import (planted_edge_component, planted_separator,
                                  random_digraph)
from localcuts.graph import Graph, reverse_graph
from localcuts.oracles import oracle_is_minimal_component
from localcuts.vertex_cut import (boundary_of, component_volume_bound,
                                  detect_vertex_out_component,
                                  symmetric_volume, volume)


@st.composite
def instances(draw):
    """(graph, start vertex, k, delta, p, detector rng) at n = 50-150."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    k = draw(st.integers(0, 3))
    delta = draw(st.integers(1, 12))
    family = draw(st.sampled_from(("component", "separator", "random")))
    if family == "component":
        # the blob has about (nb - 1)^2 edges on nb vertices
        size = draw(st.integers(2, 12))
        nb = draw(st.integers(50 - size, 100 - size))
        g, _ = planted_edge_component(size, max(k, 1), (nb - 1) ** 2, rng)
    elif family == "separator":
        left = draw(st.integers(2, 12))
        sep = max(k, 1)
        right = draw(st.integers(50, 150)) - left - sep
        g, _ = planted_separator(left, right, sep, rng)
    else:
        n = draw(st.integers(50, 150))
        g, _ = random_digraph(n, draw(st.integers(n, 4 * n)), rng)
    if draw(st.booleans()):
        g = reverse_graph(g)
    s = 1 if draw(st.booleans()) else rng.randint(1, g.n)
    p = draw(st.sampled_from((0.5, 0.75, 0.9)))
    return g, s, k, delta, p, random.Random(rng.random())


def edges_from(g, members):
    """The edges of g whose tail is in members: every proper subset's
    leaving edges are among them, so minimality reads this graph only."""
    return Graph(g.n, [(t, h) for t, h in g.pairs() if t in members])


@settings(max_examples=300, deadline=None)
@given(instances())
def test_edge_detector_keeps_its_guarantees(instance):
    g, s, k, delta, p, rng = instance
    res = detect_component_param(g, s, k, delta, p, rng)

    assert 1 <= res.trials_used <= repetitions_for(p)
    for bound in (2 * k * k * (delta + k) + delta + 1,
                  edge_cut.trial_edge_bound(k, delta)):
        assert res.edges_processed <= res.trials_used * bound
    if not res:
        assert res.trials_used == repetitions_for(p)
        return
    members = res.members
    everything = set(range(1, g.n + 1))
    assert s in members <= everything
    assert sorted(res.out_edges) == sorted(out_edge_ids(g, members))
    assert len(res.out_edges) <= k
    size_cap = max(2 * k * (delta + k), delta)
    assert res.edge_size == internal_edge_count(g, members) <= size_cap
    assert members < everything or g.m <= size_cap
    if len(members) <= 16:
        assert oracle_is_minimal_component(edges_from(g, members), s,
                                           members, k)


@settings(max_examples=300, deadline=None)
@given(instances(), st.booleans())
def test_vertex_detector_keeps_its_guarantees(instance, symmetric):
    g, s, k, delta, p, rng = instance
    res = detect_vertex_out_component(g, s, k, delta, p, rng,
                                      symmetric=symmetric)

    assert 1 <= res.trials_used <= repetitions_for(p)
    # an edge-detector trial at budget 3 * delta on the split graph
    for bound in (2 * k * k * (3 * delta + k) + 3 * delta + 1,
                  vertex_cut.trial_edge_bound(k, delta)):
        assert res.edges_processed <= res.trials_used * bound
    if not res:
        assert res.trials_used == repetitions_for(p)
        return
    members = res.members
    everything = set(range(1, g.n + 1))
    assert s in members <= everything
    assert res.boundary == boundary_of(g, members)
    assert members.isdisjoint(res.boundary)
    assert len(res.boundary) <= k
    assert res.volume == volume(g, members)
    assert res.symmetric_volume == symmetric_volume(g, members)
    # the split-graph volume of the members' copies: their out-edges
    # plus one transit edge per in-copy (the start vertex has none)
    cap = component_volume_bound(k, delta)
    assert res.volume + len(members) - 1 <= cap
    if symmetric:
        assert res.symmetric_volume <= cap
    assert members < everything or volume(g, everything) <= cap
