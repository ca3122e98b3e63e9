"""One residual network per graph serves every capped s-t query on it.

Each answer from a reused network must equal the answer from a network
built fresh for that query, whatever was asked before; it is None iff a
brute-force minimum separator (or edge cut) has size at least k, and a
returned cut is a valid partition of minimum size.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from localcuts import flow
from localcuts.graph import Graph


def random_multigraph(rng, n):
    """Random pairs with forced self-loops and parallel edges."""
    pairs = [(rng.randint(1, n), rng.randint(1, n))
             for _ in range(rng.randint(0, 3 * n))]
    if pairs:
        pairs += rng.sample(pairs, min(len(pairs), 3))      # parallels
    v = rng.randint(1, n)
    pairs.append((v, v))                                    # a self-loop
    rng.shuffle(pairs)
    return Graph(n, pairs)


def _reaches(g, s, t, removed):
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for eid in g.out_ids(u):
            w = g.edges[eid].head
            if w not in seen and w not in removed:
                seen.add(w)
                stack.append(w)
    return t in seen


def brute_separator(g, s, t):
    """Fewest vertices other than s, t whose removal cuts every s -> t
    path; None when an edge s -> t makes that impossible."""
    if any(e.tail == s and e.head == t for e in g.edges):
        return None
    others = [v for v in g.vertices() if v not in (s, t)]
    for size in range(len(others) + 1):
        for removed in itertools.combinations(others, size):
            if not _reaches(g, s, t, set(removed)):
                return size
    raise AssertionError("removing every other vertex separates s from t")


def brute_edge_cut(g, s, t):
    """Fewest edges leaving a vertex set that holds s and not t."""
    others = [v for v in g.vertices() if v not in (s, t)]
    best = None
    for size in range(len(others) + 1):
        for extra in itertools.combinations(others, size):
            side = {s, *extra}
            out = sum(1 for e in g.edges
                      if e.tail in side and e.head not in side)
            if best is None or out < best:
                best = out
    return best


def check_vertex_answer(g, s, t, k, res, want):
    if want is None or want >= k:
        assert res is None
        return
    assert res is not None
    left, middle, right = res
    assert left | middle | right == set(g.vertices())
    assert len(left) + len(middle) + len(right) == g.n
    assert s in left and t in right
    assert not any(e.tail in left and e.head in right for e in g.edges)
    assert len(middle) == want


def check_edge_answer(g, s, t, k, res, want):
    if want >= k:
        assert res is None
        return
    assert res is not None
    side, cut = res
    assert s in side and t not in side and side <= set(g.vertices())
    assert cut == [e.id for e in g.edges
                   if e.tail in side and e.head not in side]
    assert len(cut) == want


def check_queries(g, qs):
    """Answer qs in order on one network of each kind, against fresh
    networks and brute force."""
    vnet = flow.vertex_split_network(g)
    every = (*g.endpoints(), range(g.m))
    enet = flow.edge_flow_network(g.n, *every)
    brute = {}
    for s, t, k in qs:
        if (s, t) not in brute:
            brute[s, t] = brute_separator(g, s, t), brute_edge_cut(g, s, t)
        want_vertex, want_edge = brute[s, t]
        res = flow.st_vertex_cut_at_most(g, s, t, k, vnet)
        assert res == flow.st_vertex_cut_at_most(g, s, t, k)
        check_vertex_answer(g, s, t, k, res, want_vertex)
        res = flow.st_edge_cut_below(g.n, *every, s, t, k, enet)
        assert res == flow.st_edge_cut_below(g.n, *every, s, t, k)
        check_edge_answer(g, s, t, k, res, want_edge)


def queries(g, rng):
    """Every ordered pair at every k in 1..n+2, shuffled, some twice."""
    qs = [(s, t, k) for s in g.vertices() for t in g.vertices() if s != t
          for k in range(1, g.n + 3)]
    qs += rng.sample(qs, len(qs) // 4)
    rng.shuffle(qs)
    return qs


def test_reused_networks_match_fresh_ones_and_brute_force():
    rng = random.Random(0)
    for n in range(2, 11):
        for _ in range(3 if n <= 7 else 1):
            g = random_multigraph(rng, n)
            check_queries(g, queries(g, rng))


def test_parallel_edges_s_to_t_are_never_cut_at_any_limit():
    g = Graph(3, [(1, 3), (1, 3), (1, 2), (2, 3)])
    net = flow.vertex_split_network(g)
    for k in (1, 3, 5, 50):
        assert flow.st_vertex_cut_at_most(g, 1, 3, k, net) is None
    # the edge network does cut them, and only below the limit
    every = (*g.endpoints(), range(g.m))
    assert flow.st_edge_cut_below(3, *every, 1, 3, 3) is None
    assert flow.st_edge_cut_below(3, *every, 1, 3, 4) == ({1}, [0, 1, 2])


def test_nonpositive_limit_has_no_cut():
    g = Graph(3, [(1, 2)])
    assert flow.st_vertex_cut_at_most(g, 1, 3, 0) is None
    every = (*g.endpoints(), range(g.m))
    assert flow.st_edge_cut_below(3, *every, 1, 3, 0) is None
    assert flow.st_edge_cut_below(3, *every, 1, 3, 1) == ({1, 2}, [])


@st.composite
def multigraph_queries(draw):
    n = draw(st.integers(2, 7))
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    g = Graph(n, pairs)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    qs = draw(st.lists(st.tuples(pair, st.integers(1, n + 2)),
                       min_size=1, max_size=12))
    return g, [(s, t, k) for (s, t), k in qs]


@settings(max_examples=150, deadline=None)
@given(multigraph_queries())
def test_reused_network_property(case):
    g, qs = case
    check_queries(g, qs + qs[::-1])


def test_network_over_a_piece_answers_as_the_full_size_one():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 10)
        g = random_multigraph(rng, n)
        piece = sorted(rng.sample(range(1, n + 1), rng.randint(2, n)))
        inside = set(piece)
        edges = (*g.endpoints(), [e.id for e in g.edges
                                  if e.tail in inside and e.head in inside])
        net = flow.edge_flow_network(n, *edges, piece)
        assert len(net.arcs) == len(piece)
        for s, t in itertools.permutations(piece, 2):
            for k in (1, 2, 3):
                assert (flow.st_edge_cut_below(n, *edges, s, t, k, net)
                        == flow.st_edge_cut_below(n, *edges, s, t, k))
