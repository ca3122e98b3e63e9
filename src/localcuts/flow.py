"""Capped unit-capacity s-t flows for connectivity, mkecs and the testers.

A network is a flat residual structure built once per graph: arc a runs
to `head[a]` with base capacity `cap[a]`, its partner `a ^ 1` is the
reverse residual arc (base capacity 0), and `arcs[u]` lists the arcs
leaving node u.  Every s-t query on the graph reuses it: the query
copies the base capacities, runs at most `limit` shortest augmenting
paths (Edmonds-Karp) and reads the side residual-reachable from s.

Below the limit the flow is a maximum flow, and the residual-reachable
source side is the same for every maximum flow, so an answer depends
only on (s, t, limit), never on earlier queries or on the paths taken.
"""

# Capacity of arcs that must never be cut.  One network serves queries
# at every limit, and limits may exceed n, so no finite value fixed when
# the network is built will do: parallel edges s -> t carry up to
# `limit` units at once.
UNBOUNDED = float("inf")


class Network:
    """Flat residual network over nodes 0..nodes-1, or over the node ids
    of `nodes` when it is a collection rather than a count."""

    __slots__ = ("head", "cap", "arcs")

    def __init__(self, nodes):
        self.head = []
        self.cap = []
        if isinstance(nodes, int):
            self.arcs = [[] for _ in range(nodes)]
        else:
            self.arcs = {u: [] for u in nodes}

    def add(self, u, v, c):
        a = len(self.head)
        self.head += (v, u)
        self.cap += (c, 0)
        self.arcs[u].append(a)
        self.arcs[v].append(a + 1)

    def source_side(self, source, sink, limit):
        """Nodes residual-reachable from source after a maximum flow, or
        None when the flow reaches `limit`."""
        if limit <= 0:
            return None
        head, arcs = self.head, self.arcs
        cap = self.cap[:]
        flow = 0
        while True:
            via = {source: -1}      # node -> arc it was reached by
            queue = [source]
            for u in queue:
                for a in arcs[u]:
                    if cap[a]:
                        v = head[a]
                        if v not in via:
                            via[v] = a
                            queue.append(v)
                if sink in via:
                    break
            else:
                return via
            flow += 1
            if flow >= limit:
                return None
            v = sink
            while v != source:
                a = via[v]
                cap[a] -= 1
                cap[a ^ 1] += 1
                v = head[a ^ 1]


def vertex_split_network(g):
    """Vertex-split network of g for every s-t vertex-cut query on it.

    Node 2v is the in-side and 2v+1 the out-side of vertex v, joined by
    a transit arc of capacity 1; each edge u -> v becomes an unbounded
    arc 2u+1 -> 2v.  A query flows from 2s+1 to 2t, so no augmenting path
    crosses the transit arc of s or t and only interior vertices are cut.
    """
    net = Network(2 * g.n + 2)
    for v in g.vertices():
        net.add(2 * v, 2 * v + 1, 1)
    for t, h in g.pairs():
        net.add(2 * t + 1, 2 * h, UNBOUNDED)
    return net


def st_vertex_cut_at_most(g, s, t, k, net=None):
    """Vertex cut (L, M, R) with s in L, t in R, |M| < k, or None.

    Runs at most k unit augmentations on `net`, g's vertex-split network
    (built here when not given); when the flow value f stays below k the
    residual reachability from s yields a cut with |M| = f.
    """
    if s == t:
        raise ValueError("endpoints must differ")
    if net is None:
        net = vertex_split_network(g)
    reach = net.source_side(2 * s + 1, 2 * t, k)
    if reach is None:
        return None
    left = {x >> 1 for x in reach if x & 1}
    middle = {x >> 1 for x in reach if not x & 1} - left
    right = set(g.vertices()) - left - middle
    return left, middle, right


def edge_flow_network(n, edges, vertices=None):
    """Unit-capacity network over vertices 1..n, one arc per edge.

    Given `vertices`, a piece of a larger graph that holds every endpoint
    of `edges`, the network has a node for those vertices only, so its
    size does not depend on n."""
    net = Network(n + 1 if vertices is None else vertices)
    for e in edges:
        net.add(e.tail, e.head, 1)
    return net


def st_edge_cut_below(n, edges, s, t, k, net=None):
    """Edge cut (S, cut edge ids) with s in S, t outside, < k edges, or
    None; `net` is the network of (n, edges), built here when not given."""
    if s == t:
        raise ValueError("endpoints must differ")
    if net is None:
        net = edge_flow_network(n, edges)
    side = net.source_side(s, t, k)
    if side is None:
        return None
    side = set(side)
    cut = [e.id for e in edges if e.tail in side and e.head not in side]
    return side, cut
