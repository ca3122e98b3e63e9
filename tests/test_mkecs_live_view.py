"""mkecs local phases cost what they carve.

Detection reads one graph per local phase: the piece's detection graph,
as it is built, until the first carve, and from then on a
`graph.LiveView` of it, which a carve updates by reading only its
members' incidence lists.  The live edge list is rebuilt once per phase,
so Graph builds per run follow the pieces, not the carves.  Each carve
returns a new view, and every earlier view keeps answering as it did,
so a caller may hold them all.

A piece whose first cut has more than the detector's edge cap on both
sides, counted on the graph detection reads, is split by that cut at
once: the detector can return neither side, so no detection runs first.
"""

import importlib.util
import math
import pathlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from localcuts import graph, mkecs
from localcuts.graph import Graph, LiveView, reverse_graph

from test_mkecs_requeue import clique_chain


def lists(g, vertices):
    """Every vertex's out- and in-edges as (tail, head) pairs, in order."""
    return [([(g.tail(e), g.head(e)) for e in g.out_ids(v)],
             [(g.tail(e), g.head(e)) for e in g.in_ids(v)])
            for v in vertices]


def rebuilt(n, pairs, live):
    """The Graph of the pairs with both ends live, in their order."""
    return Graph(n, [(t, h) for t, h in pairs if t in live and h in live])


@st.composite
def removals(draw):
    """A multigraph with loops and parallel edges, and disjoint vertex
    sets removed from it one after the other."""
    n = draw(st.integers(1, 9))
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=5 * n))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n), max_size=4)))
    sets = [set(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    reverse_at = draw(st.sets(st.integers(0, len(sets))))
    return n, pairs, sets, reverse_at


@settings(max_examples=300, deadline=None)
@given(removals())
def test_every_view_answers_as_the_graph_rebuilt_at_its_removal(case):
    n, pairs, sets, reverse_at = case
    base = Graph(n, pairs)
    view = LiveView(base)
    live = set(range(1, n + 1))
    held = []       # (view, its reverse or None, live vertices then)

    def hold(view):
        rev = reverse_graph(view) if len(held) in reverse_at else None
        held.append((view, rev, set(live)))

    hold(view)
    for members in sets:
        frontier = {w for t, h in pairs for v, w in ((t, h), (h, t))
                    if v in members and w in live - members}
        live -= members
        view = view.without(members, frontier)
        hold(view)
    vertices = range(1, n + 1)
    for view, rev, then in held:
        want = rebuilt(n, pairs, then)
        assert list(view.vertices()) == list(want.vertices())
        assert lists(view, vertices) == lists(want, vertices)
        if rev is not None:
            assert lists(rev, vertices) == lists(reverse_graph(want),
                                                 vertices)


def graph_builds(run):
    """Graphs built while run() runs, and its result."""
    real = graph.Graph.__init__
    count = [0]

    def init(self, *args):
        count[0] += 1
        real(self, *args)

    with mock.patch.object(graph.Graph, "__init__", init):
        result = run()
    return count[0], result


def phases(run):
    """(phases, carves, result) of run(): its `_carve` calls and the
    components they carved."""
    real = mkecs._carve
    calls = []

    def carve(*args):
        out = real(*args)
        calls.append(len(out[0]))
        return out

    with mock.patch.object(mkecs, "_carve", side_effect=carve):
        result = run()
    return len(calls), sum(calls), result


@pytest.mark.parametrize("count", [200, 400])
def test_graph_builds_follow_the_pieces_not_the_carves(count):
    # a chain of bidirected triangles at k = 2: every triangle is a
    # class, and the local phases carve almost all of them
    und = clique_chain(count, random.Random(1), size=3, links=1)
    g = und.to_directed()
    expected = mkecs.baseline_mkecs(g, 2)
    assert len(expected.classes) == count
    runs = [(1, lambda: mkecs.mkecs_directed(g, 2, random.Random(0))),
            (2, lambda: mkecs.mkecs_undirected(und, 2, random.Random(0)))]
    for per_phase, run in runs:
        called, carves, _ = phases(run)
        builds, got = graph_builds(run)
        assert got == expected
        assert carves >= count // 2
        # the detection graph per phase, and an undirected piece's live
        # edges once it carves
        assert builds <= per_phase * called <= 12


def detection_cap(g_m, n, k, undirected):
    """The drivers' default detection budget and the detector's cap."""
    if undirected:
        delta = k * max(1, math.ceil(math.sqrt(n) / k))
    else:
        delta = max(1, math.ceil(math.sqrt(g_m / k)))
    kd = min(k, delta) - 1
    return mkecs.detection_edge_bound(kd, delta)


def inside(side, pairs):
    held = sum(t in side and h in side for t, h in pairs)
    rest = sum(t not in side and h not in side for t, h in pairs)
    return held, rest


@pytest.mark.parametrize("undirected", [False, True])
@pytest.mark.parametrize("count,seed", [(20, 1), (40, 2)])
def test_a_cut_with_both_sides_above_the_cap_splits_first(count, seed,
                                                          undirected):
    k = 3
    und = clique_chain(count, random.Random(seed), links=k - 1)
    g = und.to_directed()
    cap = detection_cap(g.m, und.n, k, undirected)
    events = []
    real_cut, real_detect = mkecs._cut_below, mkecs.detect_component_param

    def cut_below(vertices, tail, head, edges, k):
        cut = real_cut(vertices, tail, head, edges, k)
        events.append(("cut", [(tail[i], head[i]) for i in edges], cut))
        return cut

    def detect(*args):
        events.append(("detect",))
        return real_detect(*args)

    with mock.patch.object(mkecs, "_cut_below", side_effect=cut_below), \
            mock.patch.object(mkecs, "detect_component_param",
                              side_effect=detect):
        if undirected:
            got = mkecs.mkecs_undirected(und, k, random.Random(seed))
        else:
            got = mkecs.mkecs_directed(g, k, random.Random(seed))
    assert got == mkecs.baseline_mkecs(g, k)
    split_first = 0
    for event, after in zip(events, events[1:] + [("end",)]):
        if event[0] == "cut" and event[2] is not None and \
                min(inside(event[2].side, event[1])) > cap:
            split_first += 1
            assert after[0] != "detect"
    assert split_first > 0
    # the cliques below the cap are still carved locally or decided by
    # their own search, so detection still runs
    assert any(event[0] == "detect" for event in events)


def bench_instances():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" \
        / "instances.py"
    spec = importlib.util.spec_from_file_location("bench_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_bench_four_clique_chain_still_runs_detections():
    pairs, blocks = bench_instances().clique_chain(4, 2, random.Random(2))
    und = graph.UndirectedGraph(24, pairs)
    g = und.to_directed()
    expected = mkecs.Decomposition(3, blocks)
    for run in (lambda: mkecs.mkecs_directed(g, 3, random.Random(0)),
                lambda: mkecs.mkecs_undirected(und, 3, random.Random(0))):
        with mock.patch.object(mkecs, "detect_component_param",
                               wraps=mkecs.detect_component_param) as detect:
            assert run() == expected
        assert detect.call_count > 0
