"""budgeted_dfs reads each incidence list once per scan and charges the
probes of CountedView.

The reference below is the probe-by-probe walk: one query_out_edge or
query_in_edge call per slot, the absent probe that ends a full scan
included.  The fast walk must process the same edges in the same order,
build the same tree and charge the same number of queries, at every
budget from 0 to one past the full walk, so that the budget stops it in
the middle of every out-scan and every in-scan.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from localcuts.edge_cut import budgeted_dfs
from localcuts.graph import CountedView, Graph, GraphError, Overlay
from localcuts.vertex_cut import SplitGraph


def reference_dfs(view, s, budget, interior_partner=None):
    processed = []
    visited = set()
    tree_parent = {}
    in_scanned = set()
    if budget <= 0:
        return processed, visited, tree_parent, False
    stack = [s]
    while stack:
        u = stack.pop()
        if u in visited:
            continue
        visited.add(u)
        if interior_partner is not None:
            q = interior_partner(u)
            if q is not None and q not in in_scanned:
                in_scanned.add(q)
                i = 1
                while (e := view.query_in_edge(q, i)) is not None:
                    processed.append((e, u))
                    if len(processed) == budget:
                        return processed, visited, tree_parent, False
                    i += 1
        i = 1
        while (e := view.query_out_edge(u, i)) is not None:
            processed.append((e, u))
            if e.head != s and e.head not in tree_parent:
                tree_parent[e.head] = (u, e.id)
            stack.append(e.head)
            if len(processed) == budget:
                return processed, visited, tree_parent, False
            i += 1
    return processed, visited, tree_parent, True


def flat(processed):
    return [(e.id, e.tail, e.head, charger) for e, charger in processed]


def flat_ids(processed, base):
    return [(eid, base.tail(eid), base.head(eid), charger)
            for eid, charger in processed]


def assert_same_walks(view_of, s, partner):
    ref_view = CountedView(view_of())
    full = reference_dfs(ref_view, s, 10 ** 9, partner)
    assert full[3]
    for budget in range(len(full[0]) + 2):
        ref_view = CountedView(view_of())
        ref = reference_dfs(ref_view, s, budget, partner)
        view = CountedView(view_of())
        res = budgeted_dfs(view, s, budget, interior_partner=partner)
        assert flat_ids(res.processed, view.base) == flat(ref[0]), budget
        assert res.visited == ref[1]
        assert res.tree_parent == ref[2]
        assert res.completed == ref[3]
        assert view.query_count == ref_view.query_count, budget


@st.composite
def multigraphs(draw):
    """Small multigraphs with self-loops and parallel edges."""
    n = draw(st.integers(1, 7))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          max_size=18))
    return Graph(n, pairs)


def reversed_overlay(g, seed):
    """Overlay of g after random path reversals (walks over unused edges)."""
    rng = random.Random(seed)
    overlay = Overlay(g)
    for _ in range(rng.randint(0, 4)):
        u = rng.randint(1, g.n)
        path = []
        for _ in range(rng.randint(1, 4)):
            ids = [eid for eid in overlay.out_ids(u) if eid not in path]
            if not ids:
                break
            eid = rng.choice(ids)
            path.append(eid)
            u = overlay.edge(eid).head
        overlay.apply_path_reversal(path)
    return overlay


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.data())
def test_graph_walks_match_the_probe_walk(g, data):
    s = data.draw(st.integers(1, g.n))
    assert_same_walks(lambda: g, s, None)
    assert_same_walks(lambda: g, s, lambda v: v)


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.integers(0, 2 ** 32), st.data())
def test_overlay_walks_match_the_probe_walk(g, seed, data):
    s = data.draw(st.integers(1, g.n))
    assert_same_walks(lambda: reversed_overlay(g, seed), s, None)
    assert_same_walks(lambda: reversed_overlay(g, seed), s, lambda v: v)


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.data())
def test_split_graph_walks_match_the_probe_walk(g, data):
    s = data.draw(st.integers(1, g.n))
    sv = SplitGraph(g, s)
    assert_same_walks(lambda: sv, s, None)
    assert_same_walks(lambda: sv, s, sv.interior_partner)


def test_unknown_start_vertex_raises():
    g = Graph(3, [(1, 2), (2, 3)])
    with pytest.raises(GraphError):
        budgeted_dfs(CountedView(g), 4, 5)


def assert_protocol_matches_edges(view, ids):
    for eid in ids:
        e = view.edge(eid)
        assert (view.tail(eid), view.head(eid)) == (e.tail, e.head), eid


def split_endpoints(g, s, eid):
    """The split graph's edge rule written out: an image of a base edge
    runs to the head's in-copy (s itself for s), the transit edge of v
    from n + v to v."""
    if eid < g.m:
        e = g.edges[eid]
        return e.tail, e.head if e.head == s else g.n + e.head
    v = eid - g.m
    return g.n + v, v


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.integers(0, 2 ** 32), st.data())
def test_head_and_tail_match_the_edge(g, seed, data):
    """head/tail agree with edge() on every id of every view, and with
    the split rule on the split graph and on an overlay of it."""
    s = data.draw(st.integers(1, g.n))
    sv = SplitGraph(g, s)
    split_ids = list(range(g.m)) + [g.m + v for v in g.vertices() if v != s]
    assert_protocol_matches_edges(g, range(g.m))
    assert_protocol_matches_edges(reversed_overlay(g, seed), range(g.m))
    assert_protocol_matches_edges(sv, split_ids)
    flipped = Overlay(sv)
    chosen = random.Random(seed).sample(split_ids, len(split_ids) // 2)
    for eid in chosen:
        flipped.flip(eid)
    assert_protocol_matches_edges(flipped, split_ids)
    for eid in split_ids:
        t, h = split_endpoints(g, s, eid)
        assert (sv.tail(eid), sv.head(eid)) == (t, h), eid
        expected = (h, t) if eid in chosen else (t, h)
        assert (flipped.tail(eid), flipped.head(eid)) == expected, eid
