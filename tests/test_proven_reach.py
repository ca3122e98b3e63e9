"""Proven-reach sets skip only flows that would find no cut.

A `flow.ProvenReach` member has no cut below the limit from the root
(to the root, backward), before and after flows add members.  The
callers that skip the flows of members return exactly what their
unpruned loops, kept here as references, return.
"""

import random

from hypothesis import given, settings, strategies as st

from localcuts import connectivity, flow, testers
from localcuts.edge_cut import verify_k_edge_out
from localcuts.graph import Graph, reverse_graph
from localcuts.vertex_cut import boundary_of, verify_vertex_out

from test_flow_network import random_multigraph


def network(g, split):
    if split:
        return flow.vertex_split_network(g)
    return flow.edge_flow_network(g.n, *g.endpoints(), range(g.m))


def no_cut(g, s, t, k, split, net=None):
    """A capped flow from s to t at k finds no cut (fresh network when
    `net` is None)."""
    if split:
        return flow.st_vertex_cut_at_most(g, s, t, k, net) is None
    return flow.st_edge_cut_below(g.n, *g.endpoints(), range(g.m), s, t, k,
                                  net) is None


def ends(root, v, backward):
    return (v, root) if backward else (root, v)


def assert_sound(g, reach, root, k, split, backward):
    for w in reach.members - {root}:
        assert no_cut(g, *ends(root, w, backward), k, split), (w, k)


@st.composite
def reach_cases(draw):
    n = draw(st.integers(1, 8))
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    pairs += [(v, v) for v in draw(st.lists(vertex, max_size=2))]
    return (Graph(n, draw(st.permutations(pairs))), draw(vertex),
            draw(st.integers(1, 4)), draw(st.booleans()), draw(st.booleans()),
            draw(st.permutations(range(1, n + 1))))


@settings(max_examples=400, deadline=None)
@given(reach_cases())
def test_members_have_no_cut_below_the_limit(case):
    g, root, k, split, backward, order = case
    net = network(g, split)
    reach = flow.ProvenReach(net, root, k, backward, split)
    assert root in reach
    assert_sound(g, reach, root, k, split, backward)
    for v in order:
        if v in reach:
            continue
        if no_cut(g, *ends(root, v, backward), k, split, net):
            reach.add(v)
            assert_sound(g, reach, root, k, split, backward)
    # every vertex was proven or flowed, so the set is exactly the
    # vertices with no cut below k
    assert reach.members == {root} | {
        v for v in g.vertices()
        if v != root and no_cut(g, *ends(root, v, backward), k, split)}


def test_edge_mode_counts_arcs_and_vertex_mode_counts_neighbours():
    # two parallel arcs 1 -> 2 and two 2 -> 3: two edge-disjoint paths
    # reach 3, but vertex 2 alone separates it from 1
    g = Graph(4, [(1, 2), (1, 2), (2, 3), (2, 3), (1, 4), (4, 1), (3, 1)])
    edge = flow.ProvenReach(network(g, False), 1, 2)
    assert edge.members == {1, 2, 3}
    vertex = flow.ProvenReach(network(g, True), 1, 2, split=True)
    assert vertex.members == {1, 2, 4}
    rev = reverse_graph(g)
    assert flow.ProvenReach(network(rev, False), 1, 2,
                            backward=True).members == {1, 2, 3}
    assert flow.ProvenReach(network(rev, True), 1, 2, backward=True,
                            split=True).members == {1, 2, 4}


def test_a_single_arc_from_the_root_proves_nothing_for_edge_cuts():
    g = Graph(3, [(1, 2), (2, 3), (3, 1)])
    for k in (2, 3):
        for backward in (False, True):
            reach = flow.ProvenReach(network(g, False), 1, k, backward)
            assert reach.members == {1}
            reach.add(2)
            assert reach.members == {1, 2}
    # at limit 1 reachability decides, and the set is complete
    assert flow.ProvenReach(network(g, False), 1, 1).members == {1, 2, 3}


def test_vertex_mode_joins_at_k_distinct_member_in_neighbours():
    # 4 has in-neighbours 2 and 3, both adjacent from the root 1
    g = Graph(4, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 1)])
    assert flow.ProvenReach(network(g, True), 1, 2,
                            split=True).members == {1, 2, 3, 4}
    assert flow.ProvenReach(network(g, True), 1, 3,
                            split=True).members == {1, 2, 3}


def test_bidirected_k6_cut_search_flows_from_the_root_only(monkeypatch):
    g = Graph(6, [(a, b) for a in range(1, 7) for b in range(1, 7) if a != b])
    calls = []
    inner = flow.st_edge_cut_below

    def counted(*args):
        calls.append(args[4:6])
        return inner(*args)

    monkeypatch.setattr(flow, "st_edge_cut_below", counted)
    assert flow.global_edge_cut_below(g, 3) is None
    # the graph is balanced, so a flow from the root answers the flow
    # back; after the flows to 2 and 3 every vertex has 3 arcs from (and
    # to) members
    assert calls == [(1, 2), (1, 3)]


# the unpruned loops the callers ran before they skipped proven pairs


def unpruned_cut_below(vertices, tail, head, ids, k):
    if len(vertices) <= 1:
        return None
    ordered = sorted(vertices)
    n_max = ordered[-1]
    net = flow.edge_flow_network(n_max, tail, head, ids, ordered)
    root = min(ordered, key=lambda v: len(net.arcs[v]))
    for v in ordered:
        if v == root:
            continue
        for s, t in ((root, v), (v, root)):
            res = flow.st_edge_cut_below(n_max, tail, head, ids, s, t, k,
                                         net)
            if res is not None:
                side, cut = res
                return flow.EdgeCut(frozenset(side), tuple(cut))
    return None


def unpruned_exact_edge(g, s, k, net):
    for t in g.vertices():
        if t == s:
            continue
        res = flow.st_edge_cut_below(g.n, *g.endpoints(), range(g.m), s, t,
                                     k, net)
        if res is not None:
            side, cut = res
            return True, testers.edge_cut.ComponentResult(
                frozenset(side), tuple(cut),
                testers.edge_cut.internal_edge_count(g, side), g.m, 1, g.m)
    return False, None


def unpruned_exact_vertex(g, s, k, net):
    adjacent = set(g.pairs())
    for t in g.vertices():
        if t == s or (s, t) in adjacent:
            continue
        res = flow.st_vertex_cut_at_most(g, s, t, k, net)
        if res is not None:
            left, middle, right = res
            if s not in left or not right:
                continue
            vc = testers.vertex_cut
            return True, vc.VertexComponentResult(
                frozenset(left), frozenset(middle), vc.volume(g, left),
                vc.symmetric_volume(g, left), g.m, 1, g.m)
    return False, None


def random_piece(rng):
    """A strongly connected multigraph on a random set of vertex ids: a
    cycle, random chords and some parallel copies; (the ids, the Graph)."""
    n = rng.randint(2, 10)
    ids = rng.sample(range(1, 2 * n + 1), n)
    pairs = list(zip(ids, ids[1:] + ids[:1]))
    pairs += [tuple(rng.sample(ids, 2))
              for _ in range(rng.randint(0, 3 * n))]
    pairs += rng.sample(pairs, rng.randint(0, len(pairs) // 2))
    rng.shuffle(pairs)
    return set(ids), Graph(max(ids), pairs)


def test_cut_below_equals_the_unpruned_loop():
    rng = random.Random(12)
    found = 0
    for _ in range(300):
        vertices, g = random_piece(rng)
        piece = (*g.endpoints(), range(g.m))
        for k in (1, 2, 3, 4):
            want = unpruned_cut_below(vertices, *piece, k)
            assert flow.edge_cut_below(vertices, *piece, k) == want
            found += want is not None
    assert 100 < found < 1100


def test_pair_cuts_equal_fresh_flows_on_shuffled_queries():
    rng = random.Random(5)
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(2, 9))
        qs = [(s, t, k) for s in g.vertices() for t in g.vertices()
              if s != t for k in range(1, g.n + 2)]
        qs += rng.sample(qs, len(qs) // 4)
        rng.shuffle(qs)
        pairs = connectivity.PairCuts()
        for s, t, k in qs:
            got = pairs.cut(g, s, t, k)
            if got is not None:
                got = got.left, got.middle, got.right
            assert got == flow.st_vertex_cut_at_most(g, s, t, k)


def test_exact_tester_decisions_equal_the_unpruned_loops():
    # a tester's whole-graph read decides every vertex in both
    # orientations with one global search: it finds a side exactly when
    # the unpruned per-vertex loop finds one from some vertex of g or of
    # its reverse, and its side validates
    rng = random.Random(8)
    yes = 0
    for _ in range(60):
        g = random_multigraph(rng, rng.randint(2, 9))
        both = (g, reverse_graph(g))
        nets = [(network(h, False), network(h, True)) for h in both]
        for k in (1, 2, 3, 4):
            edge = [any(unpruned_exact_edge(h, s, k, enet)[0]
                        for s in h.vertices())
                    for h, (enet, _) in zip(both, nets)]
            vertex = [any(unpruned_exact_vertex(h, s, k, vnet)[0]
                          for s in h.vertices())
                      for h, (_, vnet) in zip(both, nets)]
            assert edge[0] == edge[1] and vertex[0] == vertex[1]
            found, side = testers._whole_edge(g, k)
            assert found == edge[0]
            if found:
                assert 0 < len(side.members) < g.n
                assert verify_k_edge_out(g, side.members, k - 1)
            found, side = testers._whole_vertex(g, k)
            assert found == vertex[0]
            if found:
                assert len(side.members | side.boundary) < g.n
                assert side.boundary == boundary_of(g, side.members)
                assert verify_vertex_out(g, side.members, k - 1)
            yes += edge[0] + vertex[0]
    assert yes
