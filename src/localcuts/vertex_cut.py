"""Local detection of bounded-volume k-vertex-out components.

A vertex component is found by running the edge detector on a lazily
materialized split graph: every vertex v becomes an in-copy and an
out-copy joined by a transit edge (the start vertex keeps a single
merged copy), and every original edge runs from the tail's out-copy to
the head's in-copy.  Vertex cuts of the original graph then correspond
to transit-edge cuts of the split graph, with volumes inflated by at
most a factor of three.
"""

import dataclasses

from .edge_cut import (internal_edge_count, repetitions_for, run_detection,
                       trial_edge_bound as edge_trial_bound)
from .graph import Edge, Graph, GraphError


class SplitGraph:
    """Query view of the split graph of g rooted at s; nothing is built.

    Vertex ids: the out-copy of v is v itself; the in-copy of v != s is
    n + v; the two copies of s are merged as s.  Edge ids: an image of
    base edge e keeps id e; the transit edge of v != s has id m + v.
    The transit edge occupies position 1 of the in-copy's out-incidence.
    """

    __slots__ = ("base", "s")

    def __init__(self, base, s):
        if not base.has_vertex(s):
            raise GraphError("unknown start vertex %d" % s)
        self.base = base
        self.s = s

    @property
    def vertex_count(self):
        return 2 * self.base.n - 1

    @property
    def edge_count(self):
        return self.base.m + self.base.n - 1

    def has_vertex(self, v):
        n = self.base.n
        if 1 <= v <= n:
            return True
        return n < v <= 2 * n and v - n != self.s

    def is_out_copy(self, v):
        return 1 <= v <= self.base.n

    def tail(self, eid):
        base = self.base
        if eid < base.m:
            return base.tail(eid)
        return base.n + eid - base.m

    def head(self, eid):
        base = self.base
        if eid < base.m:
            h = base.head(eid)
            return h if h == self.s else base.n + h
        return eid - base.m

    def has_edge(self, eid):
        base = self.base
        v = eid - base.m
        return 0 <= eid < base.m or (1 <= v <= base.n and v != self.s)

    def edge(self, eid):
        if not self.has_edge(eid):
            raise GraphError("unknown edge id %d" % eid)
        return Edge(eid, self.tail(eid), self.head(eid))

    def out_ids(self, u):
        base = self.base
        if u <= base.n:
            return base.out_ids(u)
        return [base.m + u - base.n]

    def in_ids(self, u):
        base = self.base
        if u == self.s:
            return base.in_ids(u)
        if u <= base.n:
            return [base.m + u]
        return base.in_ids(u - base.n)

    def interior_partner(self, v):
        """The vertex whose in-edges become chargeable once v is visited.

        Visiting an out-copy makes the matching in-copy interior; the
        merged start vertex is its own partner.  Visiting an in-copy
        triggers nothing by itself.
        """
        if v == self.s:
            return v
        if v <= self.base.n:
            return self.base.n + v
        return None

    def materialize(self):
        """Explicit Graph copy of the split graph (testing aid).

        Split vertices are renumbered 1..2n-1: out-copies keep their id,
        in-copies n+v shift down by one for v > s.
        """
        n = self.base.n

        def remap(v):
            if v <= n:
                return v
            return v - 1 if v - n > self.s else v

        edges = [(remap(self.tail(eid)), remap(self.head(eid)))
                 for eid in range(self.base.m)]
        for v in range(1, n + 1):
            if v != self.s:
                edges.append((remap(n + v), v))
        return Graph(2 * n - 1, edges)


@dataclasses.dataclass
class VertexComponentResult:
    members: frozenset          # component C, start vertex included
    boundary: frozenset         # heads of edges leaving C, outside C
    volume: int                 # edges with tail in C
    symmetric_volume: int       # edges with tail or head in C
    queries_used: int
    trials_used: int
    edges_processed: int

    def __bool__(self):
        return bool(self.members)


def volume(g, members):
    return sum(g.out_degree(v) for v in members)


def symmetric_volume(g, members):
    """Edges with an endpoint in members, read from members' incidences."""
    degrees = sum(g.out_degree(v) + g.in_degree(v) for v in members)
    return degrees - internal_edge_count(g, members)


def boundary_of(g, members):
    head = g.head
    b = set()
    for u in members:
        for eid in g.out_ids(u):
            h = head(eid)
            if h not in members:
                b.add(h)
    return b


def verify_vertex_out(g, members, k):
    """True iff the out-neighborhood of the set (outside it) has size <= k."""
    return len(boundary_of(g, members)) <= k


def component_volume_bound(k, delta):
    """Guaranteed cap on the split-graph volume of any nonempty result.

    Rounds process fewer than 2k(3*delta + k) edges and the final pass
    accepts at most 3*delta, so 2(k+1)(3*delta + k) dominates both.
    """
    return 2 * (k + 1) * (3 * delta + k)


def trial_edge_bound(k, delta):
    """Split-graph edges one trial of detect_vertex_out_component
    processes at most: an edge-detector trial at budget 3*delta."""
    return edge_trial_bound(k, 3 * delta)


def detect_component_volume(view, s, k, delta_v, rng, symmetric=False):
    """One detection attempt under a volume budget delta_v.

    `view` is a Graph or SplitGraph; symmetric mode takes a SplitGraph,
    and the in-edges of the in-copies its visited out-copies make
    interior (`SplitGraph.interior_partner`) are charged (and sampled)
    as well, so the budget tracks restricted symmetric volume.  Returns
    the raw visited vertex set of the view (or None) plus counters.
    """
    if k < 0 or delta_v < 0:
        raise ValueError("k and delta_v must be non-negative")
    partner = view.interior_partner if symmetric else None
    return run_detection(view, s, k, delta_v, rng, interior_partner=partner)


def detect_vertex_out_component(g, s, k, delta, p, rng, symmetric=False):
    """Amplified search for a k-vertex-out component containing s.

    Looks for components of volume at most delta (symmetric volume when
    `symmetric` is set) by running the volume detector on the split
    graph with budget 3*delta.  A nonempty result always has a boundary
    of at most k vertices; if a qualifying component exists the result
    is nonempty with probability at least p.
    """
    sv = SplitGraph(g, s)
    reps = repetitions_for(p)
    queries = 0
    processed = 0
    for t in range(1, reps + 1):
        raw, q, total = detect_component_volume(sv, s, k, 3 * delta, rng,
                                                symmetric=symmetric)
        queries += q
        processed += total
        if raw is not None:
            members = frozenset(v for v in raw if sv.is_out_copy(v))
            return VertexComponentResult(
                members, frozenset(boundary_of(g, members)),
                volume(g, members), symmetric_volume(g, members),
                queries, t, processed)
    return VertexComponentResult(frozenset(), frozenset(), 0, 0,
                                 queries, reps, processed)
