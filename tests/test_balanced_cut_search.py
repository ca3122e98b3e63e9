"""On a balanced piece the global cut search flows from the root only.

Where every vertex has in-degree equal to its out-degree, every cut has
as many edges entering as leaving, so lambda(r, v) = lambda(v, r) and
the flow toward the root repeats the answer of the flow from it.
"""

import random

from localcuts import flow, mkecs
from localcuts.graph import Graph

from test_proven_reach import random_piece, unpruned_cut_below


def every_edge(g):
    """g's endpoint lists and all its ids, as the edge searches take them."""
    return (*g.endpoints(), range(g.m))


def bidirected_piece(rng):
    """A piece of `random_piece` with every edge as a pair of opposite
    arcs."""
    vertices, g = random_piece(rng)
    pairs = list(g.pairs())
    return vertices, Graph(max(vertices), pairs + [(b, a) for a, b in pairs])


def counting_flows(monkeypatch):
    calls = []
    inner = flow.st_edge_cut_below

    def counted(*args):
        calls.append(args[4:6])
        return inner(*args)

    monkeypatch.setattr(flow, "st_edge_cut_below", counted)
    return calls


def test_balanced_search_equals_the_unpruned_loop(monkeypatch):
    rng = random.Random(21)
    calls = counting_flows(monkeypatch)
    found = none = 0
    for _ in range(300):
        vertices, g = bidirected_piece(rng)
        piece = every_edge(g)
        assert flow.balanced(*piece)
        for k in (1, 2, 3, 4, 5):
            want = unpruned_cut_below(vertices, *piece, k)
            calls.clear()
            assert flow.edge_cut_below(vertices, *piece, k) == want
            if want is None:
                none += 1
                assert len(calls) <= len(vertices) - 1
            else:
                found += 1
            root = calls[0][0] if calls else None
            assert all(s == root for s, _ in calls)
    assert found > 100 and none > 100


def test_balance_is_read_from_degrees():
    assert not flow.balanced(*every_edge(Graph(3, [(1, 2), (2, 3), (3, 1),
                                                     (1, 3)])))
    # balanced but not bidirected: arcs 1 -> 2 and 2 -> 3 have no reverse
    assert flow.balanced(*every_edge(Graph(3, [(1, 2), (2, 3), (3, 1),
                                                 (1, 3), (3, 1)])))


def test_baseline_pieces_of_bidirected_k6_flow_from_the_root_only(
        monkeypatch):
    g = Graph(6, [(a, b) for a in range(1, 7) for b in range(1, 7) if a != b])
    calls = counting_flows(monkeypatch)
    assert mkecs.baseline_mkecs(g, 3).classes == [frozenset(range(1, 7))]
    # after the flows to 2 and 3 every vertex has 3 arcs from (and to)
    # members of the root's sets
    assert calls == [(1, 2), (1, 3)]


def strongly_connected_graph(rng):
    """A cycle on 1..n with random chords and some parallel copies."""
    n = rng.randint(2, 10)
    pairs = [(v, v % n + 1) for v in range(1, n + 1)]
    pairs += [tuple(rng.sample(range(1, n + 1), 2))
              for _ in range(rng.randint(0, 3 * n))]
    pairs += rng.sample(pairs, rng.randint(0, len(pairs) // 2))
    rng.shuffle(pairs)
    return Graph(n, pairs)


def circulant(n, d):
    """The directed circulant C(n, d): edges i -> i+1, ..., i+d (mod n)."""
    return Graph(n, [(i, (i - 1 + j) % n + 1)
                     for i in range(1, n + 1) for j in range(1, d + 1)])


def test_global_search_flows_from_the_root_only_on_balanced_graphs(
        monkeypatch):
    rng = random.Random(34)
    graphs = []
    for _ in range(150):
        g = strongly_connected_graph(rng)
        pairs = list(g.pairs())
        graphs.append(Graph(g.n, pairs + [(b, a) for a, b in pairs]))
    graphs += [circulant(n, d) for n in range(3, 13) for d in range(1, 5)
               if d < n - 1]
    calls = counting_flows(monkeypatch)
    found = none = 0
    for g in graphs:
        vertices = set(g.vertices())
        assert flow.balanced(*every_edge(g))
        for k in (1, 2, 3, 4, 5):
            want = unpruned_cut_below(vertices, *every_edge(g), k)
            calls.clear()
            assert flow.global_edge_cut_below(g, k) == want
            if want is None:
                none += 1
                assert len(calls) <= g.n - 1
            else:
                found += 1
            root = calls[0][0] if calls else None
            assert all(s == root for s, _ in calls)
    assert found > 100 and none > 100


def test_global_search_still_flows_both_ways_on_unbalanced_graphs(
        monkeypatch):
    rng = random.Random(35)
    calls = counting_flows(monkeypatch)
    tested = toward_root = 0
    while tested < 150:
        g = strongly_connected_graph(rng)
        if flow.balanced(*every_edge(g)):
            continue
        tested += 1
        for k in (1, 2, 3, 4):
            want = unpruned_cut_below(set(g.vertices()), *every_edge(g), k)
            calls.clear()
            assert flow.global_edge_cut_below(g, k) == want
            root = calls[0][0] if calls else None
            toward_root += any(t == root for _, t in calls)
    assert toward_root > 40
