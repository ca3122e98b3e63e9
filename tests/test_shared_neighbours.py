"""Proven-reach sets on one network share its neighbour lists.

A vertex-split network derives each vertex's neighbour list once per
orientation, when a `flow.ProvenReach` set first pops the vertex, and
every later set on the network reads that list.  So a set built on a
network that earlier sets have read must hold exactly the members of
the same set built alone on a fresh network, through the same `add`
calls, and however many sets a network serves, each of its arc lists is
read at most once to derive neighbours.  Edge networks, on which
callers build one set per orientation, are held to the same members.
`PairCuts.spent` is what a recording of the arc lists and neighbour
lists read on its split networks recounts, across graphs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from localcuts import flow
from localcuts.connectivity import PairCuts, vertex_connectivity_directed
from localcuts.graph import Graph


class CountedArcs(list):
    """An arc-list table that records which node's list was read."""

    def __init__(self, arcs):
        super().__init__(arcs)
        self.reads = []

    def __getitem__(self, u):
        self.reads.append(u)
        return super().__getitem__(u)


def counted(net):
    net.arcs = CountedArcs(net.arcs)
    return net.arcs.reads


class CountedNear(dict):
    """A neighbour-list table that records which vertex's list was read."""

    def __init__(self):
        super().__init__()
        self.reads = []

    def get(self, u, default=None):
        self.reads.append(u)
        return super().get(u, default)


@st.composite
def multigraphs(draw, spread=1):
    """A multigraph with loops and parallel edges on up to 8 vertices
    whose ids lie in 1..spread * n, with the set of those ids."""
    n = draw(st.integers(1, 8))
    ids = sorted(draw(st.sets(st.integers(1, spread * n),
                              min_size=n, max_size=n)))
    vertex = st.sampled_from(ids)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    pairs += [(v, v) for v in draw(st.lists(vertex, max_size=2))]
    return Graph(ids[-1], draw(st.permutations(pairs))), ids


@st.composite
def sequences(draw):
    """A network kind, its graph, and a sequence of set builds (root,
    limit, orientation) and `add` calls on sets built earlier."""
    kind = draw(st.sampled_from(["split", "edge", "piece"]))
    g, ids = draw(multigraphs(2 if kind == "piece" else 1))
    vertex = st.sampled_from(ids)
    ops, built = [], 0
    for _ in range(draw(st.integers(1, 12))):
        if built and draw(st.booleans()):
            ops.append(("add", draw(st.integers(0, built - 1)),
                        draw(vertex)))
        else:
            ops.append(("build", draw(vertex), draw(st.integers(1, 4)),
                        draw(st.booleans())))
            built += 1
    return kind, g, ids, ops


def network(kind, g, ids):
    if kind == "split":
        return flow.vertex_split_network(g)
    if kind == "edge":
        return flow.edge_flow_network(g.n, *g.endpoints(), range(g.m))
    return flow.edge_flow_network(g.n, *g.endpoints(), range(g.m), ids)


@settings(max_examples=400, deadline=None)
@given(sequences())
def test_sets_on_one_network_equal_sets_built_alone(case):
    kind, g, ids, ops = case
    split = kind == "split"
    net = network(kind, g, ids)
    reads = counted(net) if split else None
    shared, alone = [], []
    for op in ops:
        if op[0] == "build":
            _, root, limit, backward = op
            shared.append(flow.ProvenReach(net, root, limit, backward,
                                           split))
            alone.append(flow.ProvenReach(network(kind, g, ids), root,
                                          limit, backward, split))
        else:
            _, i, v = op
            shared[i].add(v)
            alone[i].add(v)
        for mine, fresh in zip(shared, alone):
            assert mine.members == fresh.members
    if split:
        # forward reads out-nodes and backward in-nodes: one read each
        assert len(reads) == len(set(reads))


@st.composite
def pair_sessions(draw):
    """Two graphs, each with a sequence of `PairCuts` calls on it: cuts
    (s, t, limit) and set fetches (root, limit, orientation)."""
    sessions = []
    for _ in range(2):
        g, ids = draw(multigraphs())
        vertex = st.sampled_from(ids)
        limit = st.integers(1, 4)
        ops = draw(st.lists(st.one_of(
            st.tuples(st.just("cut"), vertex, vertex, limit),
            st.tuples(st.just("reach"), vertex, limit, st.booleans())),
            max_size=12))
        sessions.append((g, ops))
    return sessions


@settings(max_examples=300, deadline=None)
@given(pair_sessions())
def test_pair_cuts_spend_the_slots_their_networks_read(sessions):
    build = flow.vertex_split_network
    recounts = []

    def recorded(g):
        net = build(g)
        arcs = net.arcs
        reads = counted(net)
        net.near = (CountedNear(), CountedNear())
        # every arc list a search or a derivation read, and every
        # neighbour list a set popped, in full
        recounts.append(lambda: sum(len(arcs[u]) for u in reads) +
                        sum(len(near[u]) for near in net.near
                            for u in near.reads))
        return net

    pairs = PairCuts()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "vertex_split_network", recorded)
        for g, ops in sessions:
            for op in ops:
                if op[0] == "reach":
                    pairs.proven_reach(g, *op[1:])
                elif op[1] != op[2]:
                    pairs.cut(g, *op[1:])
            assert pairs.spent == sum(recount() for recount in recounts)


def circulant(n, d):
    return Graph(n, [(i, (i - 1 + j) % n + 1)
                     for i in range(1, n + 1) for j in range(1, d + 1)])


def test_every_set_of_a_split_network_reads_each_arc_list_once():
    g = circulant(12, 3)
    net = flow.vertex_split_network(g)
    reads = counted(net)
    for limit in (1, 2, 3, 4):
        for root in g.vertices():
            for backward in (False, True):
                flow.ProvenReach(net, root, limit, backward, split=True)
    # 96 sets, and each node's list was read once, by the first set
    # that popped it
    assert sorted(reads) == list(range(2, 2 * g.n + 2))


def test_directed_driver_derives_each_neighbour_list_once(monkeypatch):
    search = flow.Network.source_side

    def plain_search(net, *args):
        # a flow's reads of the arc lists derive no neighbours
        arcs = net.arcs
        net.arcs = list(arcs)
        try:
            return search(net, *args)
        finally:
            net.arcs = arcs

    build = flow.vertex_split_network
    reads = []

    def counted_network(g):
        net = build(g)
        reads.append(counted(net))
        return net

    monkeypatch.setattr(flow.Network, "source_side", plain_search)
    monkeypatch.setattr(flow, "vertex_split_network", counted_network)
    for g, want in ((circulant(16, 2), 2), (circulant(12, 3), 3)):
        reads.clear()
        kappa, cut = vertex_connectivity_directed(g, random.Random(0))
        assert kappa == want and cut.validate(g)
        # one network per graph; its sets, many per source and limit,
        # read each node's arc list at most once
        assert len(reads) == 1 and reads[0]
        assert len(reads[0]) == len(set(reads[0]))
