"""Exact connectivity pays for each proof once.

`fallback_exact` runs Even's scheme with proven-reach sets for its
sources only: a pair that a source's own set proves is skipped, and a
far end gets sets only from the flows run for it.  It must return the
very κ and witness of the plain scheme, which flows every non-adjacent
ordered pair with no sets and no memo.  The drivers check strong
connectivity once per graph they search: the directed driver's check is
the one its probes read, and certificates of a connected undirected
input need none.
"""

import random

from hypothesis import given, settings, strategies as st

from localcuts import connectivity, flow, graph
from localcuts.connectivity import (PairCuts, fallback_exact,
                                    vertex_connectivity_directed,
                                    vertex_connectivity_undirected)
from localcuts.graph import Graph, UndirectedGraph


def circulant_pairs(n, d):
    return [(i, (i - 1 + j) % n + 1)
            for i in range(1, n + 1) for j in range(1, d + 1)]


def plain_even(g):
    """Even's scheme with a fresh capped flow for every non-adjacent
    ordered pair: (kappa, (left, middle, right) or None)."""
    if g.n <= 1:
        return 0, None
    adjacent = set(g.pairs())
    order = list(g.vertices())
    best, best_cut = g.n - 1, None
    for i, v in enumerate(order):
        if i >= best:
            break
        for w in order[i + 1:]:
            for s, t in ((v, w), (w, v)):
                if (s, t) in adjacent:
                    continue
                cut = flow.st_vertex_cut_at_most(g, s, t, best)
                if cut is not None:
                    best, best_cut = len(cut[1]), cut
                    if best == 0:
                        return 0, best_cut
    return best, best_cut


@st.composite
def searches(draw):
    """A multigraph on up to 30 vertices, sometimes made strongly
    connected by a cycle through every vertex, and a few lookups that
    a PairCuts answers before the fallback runs on it."""
    n = draw(st.integers(2, 30))
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=6 * n))
    if draw(st.booleans()):
        order = draw(st.permutations(range(1, n + 1)))
        pairs += list(zip(order, order[1:] + order[:1]))
    g = Graph(n, draw(st.permutations(pairs)))
    query = st.tuples(vertex, vertex, st.integers(1, n))
    lookups = draw(st.lists(query.filter(lambda q: q[0] != q[1]),
                            max_size=8))
    return g, lookups


@settings(max_examples=150, deadline=None)
@given(searches())
def test_fallback_exact_equals_the_plain_scheme(search):
    g, lookups = search
    kappa, cut = plain_even(g)
    want = (kappa, None if cut is None else tuple(map(frozenset, cut)))
    pairs = PairCuts()
    for s, t, k in lookups:
        pairs.cut(g, s, t, k)
    for shared in (None, pairs, pairs):     # fresh, then warm twice
        kappa, cut = fallback_exact(g, shared)
        got = (kappa, None if cut is None
               else (cut.left, cut.middle, cut.right))
        assert got == want


def counting(monkeypatch, module, name):
    """Count calls of module.name from here on."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_fallback_builds_sets_for_its_sources_and_its_flows(monkeypatch):
    rng = random.Random(3)
    for _ in range(8):
        labels = list(range(1, 13))
        rng.shuffle(labels)
        g = Graph(12, [(labels[a - 1], labels[b - 1])
                       for a, b in circulant_pairs(12, 3)])
        built = counting(monkeypatch, flow, "ProvenReach")
        flows = counting(monkeypatch, flow, "st_vertex_cut_at_most")
        kappa, cut = fallback_exact(g)
        monkeypatch.undo()
        assert kappa == 3 and cut.validate(g)
        # a source builds two sets per limit: the last limit has at
        # most kappa + 1 sources, each earlier one ended at a flow, and
        # the answer of a flow builds at most two sets
        assert len(built) <= 2 * (kappa + 1) + 2 * len(flows)


def test_directed_driver_checks_strong_connectivity_once(monkeypatch):
    g = Graph(12, circulant_pairs(12, 3))
    checks = counting(monkeypatch, flow, "is_strongly_connected")
    kappa, cut = vertex_connectivity_directed(g, random.Random(0))
    assert kappa == 3 and cut.validate(g)
    assert len(checks) == 1


def test_undirected_driver_checks_each_probed_graph_at_most_once(
        monkeypatch):
    probe = connectivity.is_connectivity_at_least
    for n, d in ((10, 3), (14, 2), (16, 3)):
        und = UndirectedGraph(n, circulant_pairs(n, d))
        sccs = counting(monkeypatch, graph, "strongly_connected_components")
        checks = counting(monkeypatch, flow, "is_strongly_connected")
        alive = []          # probed graphs, so that their ids stay unique
        during = {}         # id of a probed graph -> checks in its probes

        def counted(g, *args, **kwargs):
            alive.append(g)
            before = len(checks)
            verdict = probe(g, *args, **kwargs)
            during[id(g)] = during.get(id(g), 0) + len(checks) - before
            return verdict

        monkeypatch.setattr(connectivity, "is_connectivity_at_least",
                            counted)
        kappa, cut = vertex_connectivity_undirected(und, random.Random(n))
        monkeypatch.undo()
        assert kappa == 2 * d and cut.validate(und.to_directed())
        assert during and max(during.values()) <= 1
        # every probed graph is a bidirected certificate of the connected
        # input, held as strongly connected without a check
        assert not checks
        # the input's components and the lifted witness add one each
        assert len(sccs) <= 2
