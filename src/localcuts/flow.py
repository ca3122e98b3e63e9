"""Capped unit-capacity s-t flows for connectivity, mkecs and the testers.

A network is a flat residual structure built once per graph: arc a runs
to `head[a]` with base capacity `cap[a]`, its partner `a ^ 1` is the
reverse residual arc (base capacity 0), and `arcs[u]` lists the arcs
leaving node u.  Every s-t query on the graph reuses it: the query
copies the base capacities, runs at most `limit` augmentations and reads
the side residual-reachable from s.  Each augmenting path is searched in
stack order and the search stops once the sink is discovered, so a
query costs at most `limit` searches of O(m) each.  A network meters
its work in one unit, the slots read on it, counted in `scans` over
every query and set on it: a search reads the whole arc list of each
node it pops, and a set on a vertex-split network the slots below.

Below the limit the flow is a maximum flow, and the residual-reachable
source side is the same for every maximum flow, so an answer depends
only on (s, t, limit), never on earlier queries or on the paths taken.

Most flows a caller runs only confirm that no cut below the limit
exists, and the graph's neighbourhoods often imply that already.  A
`ProvenReach` set for a root r, a limit k and one orientation holds
vertices proven to have k disjoint paths from r (to r, backward), so
the flow between r and a member is skipped: it would return None.  The
root is a member; for edge cuts a vertex joins once it has k arcs from
members, counted with multiplicity; for vertex cuts once it has k
distinct member in-neighbours or an arc from r itself; and a flow that
returns no cut adds its far end, from which the rule spreads.

Proof, forward (backward is its mirror image): let C be fewer than k
edges, or fewer than k vertices other than r and w, and let w join by
the rule.  One of w's k arcs from members, or one of its k distinct
member in-neighbours, is not in C; it comes from u, and C cannot cut a
member u off from r, so w is reached from r without C as well.  An arc
r -> w proves w for vertex cuts alone, since C may not hold r or w.
Each vertex joins a set once, and the set then reads the vertex's
neighbours in its orientation once.  On a vertex-split network the
neighbour list of a vertex (distinct vertices) is derived from the arc
lists once per network and orientation, when a set first pops the
vertex, and every later set on the network reads it: however many sets
a caller builds on one network, their derivations scan each arc list at
most once per orientation.  Such a set adds to `scans` the arcs of the
lists it derives and the neighbour entries it pops.  On an edge
network, where callers build one set per orientation, each set derives
its own, heads counted with multiplicity, and counts nothing.
"""

# Capacity of arcs that must never be cut.  One network serves queries
# at every limit, and limits may exceed n, so no finite value fixed when
# the network is built will do: parallel edges s -> t carry up to
# `limit` units at once.
UNBOUNDED = float("inf")


class Network:
    """Flat residual network over nodes 0..nodes-1, or over the node ids
    of `nodes` when it is a collection rather than a count, with one arc
    tails[i] -> heads[i] of capacity caps[i] for each i: arc 2i, whose
    reverse is arc 2i + 1.  `scans` counts the slots read on it: the
    arcs its augmenting searches read, and on a vertex-split network the
    slots its split `ProvenReach` sets read.  Only a
    vertex_split_network carries `near`: `near[side]` maps a vertex to
    its neighbour list in that orientation (0 forward, 1 backward),
    filled by the split `ProvenReach` sets on the network as they pop
    vertices."""

    __slots__ = ("head", "cap", "arcs", "scans", "near")

    def __init__(self, nodes, tails, heads, caps):
        m2 = 2 * len(tails)
        self.head = [0] * m2
        self.head[::2] = heads
        self.head[1::2] = tails
        self.cap = [0] * m2
        self.cap[::2] = caps
        if isinstance(nodes, int):
            arcs = [[] for _ in range(nodes)]
        else:
            arcs = {u: [] for u in nodes}
        for i, (u, v) in enumerate(zip(tails, heads)):
            arcs[u].append(2 * i)
            arcs[v].append(2 * i + 1)
        self.arcs = arcs
        self.scans = 0

    def source_side(self, source, sink, limit):
        """Nodes residual-reachable from source after a maximum flow, or
        None when the flow reaches `limit`."""
        if limit <= 0:
            return None
        head, arcs = self.head, self.arcs
        cap = self.cap[:]
        flow = scans = 0
        while True:
            via = {source: -1}      # node -> arc it was reached by
            stack = [source]
            while stack:
                out = arcs[stack.pop()]
                scans += len(out)
                for a in out:
                    if cap[a]:
                        v = head[a]
                        if v not in via:
                            via[v] = a
                            stack.append(v)
                if sink in via:
                    break
            else:
                self.scans += scans
                return via
            flow += 1
            if flow >= limit:
                self.scans += scans
                return None
            v = sink
            while v != source:
                a = via[v]
                cap[a] -= 1
                cap[a ^ 1] += 1
                v = head[a ^ 1]


class ProvenReach:
    """Vertices proven to have `limit` disjoint paths from `root` in
    `net`, or to it when `backward`, by the rule of the module
    docstring: a capped flow between the root and a member at `limit`
    would return no cut.  Edge-disjoint paths on an edge_flow_network;
    with `split`, paths disjoint in their interior vertices on a
    vertex_split_network, whose neighbour lists (`Network.near`) the
    sets on it share.  `add(v)` records a vertex a flow proved.  With
    `split`, the set adds the slots it reads to the network's `scans`:
    the arcs of the lists it is the first to derive neighbours from, and
    the neighbour entries it pops.  On an edge network it counts
    nothing."""

    __slots__ = ("members", "net", "limit", "side", "split", "count")

    def __init__(self, net, root, limit, backward=False, split=False):
        self.net, self.limit, self.split = net, limit, split
        self.side = 1 if backward else 0
        self.members = {root}
        self.count = {}
        if split:
            # an arc between the root and w leaves no vertex to cut
            near = [w for w in self._next(root) if w != root]
            self.members.update(near)
            self._spread(near)
        else:
            self._spread([root])

    def __contains__(self, v):
        return v in self.members

    def add(self, v):
        if v not in self.members:
            self.members.add(v)
            self._spread([v])

    def _next(self, u):
        """Vertices one arc from u in the set's orientation: heads of
        even arcs forward, tails through odd arcs backward."""
        net, side = self.net, self.side
        head = net.head
        if self.split:
            near = net.near[side]
            nbrs = near.get(u)
            if nbrs is None:
                # forward from u's out-node, backward from its in-node
                arcs = net.arcs[2 * u + 1 - side]
                net.scans += len(arcs)
                nbrs = near[u] = list({head[a] >> 1 for a in arcs
                                       if a & 1 == side})
            net.scans += len(nbrs)
            return nbrs
        return [head[a] for a in net.arcs[u] if a & 1 == side]

    def _spread(self, stack):
        members, count, limit = self.members, self.count, self.limit
        while stack:
            for w in self._next(stack.pop()):
                if w not in members:
                    c = count.get(w, 0) + 1
                    if c >= limit:
                        members.add(w)
                        stack.append(w)
                    else:
                        count[w] = c


def vertex_split_network(g):
    """Vertex-split network of g for every s-t vertex-cut query on it.

    Node 2v is the in-side and 2v+1 the out-side of vertex v, joined by
    a transit arc of capacity 1; each edge u -> v becomes an unbounded
    arc 2u+1 -> 2v.  A query flows from 2s+1 to 2t, so no augmenting path
    crosses the transit arc of s or t and only interior vertices are cut.
    `near` starts empty; the split ProvenReach sets on it fill it.
    """
    vs = list(g.vertices())
    pairs = list(g.pairs())
    net = Network(2 * g.n + 2,
                  [2 * v for v in vs] + [2 * t + 1 for t, _ in pairs],
                  [2 * v + 1 for v in vs] + [2 * h for _, h in pairs],
                  [1] * len(vs) + [UNBOUNDED] * len(pairs))
    net.near = ({}, {})
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
    return Network(n + 1 if vertices is None else vertices,
                   [e.tail for e in edges], [e.head for e in edges],
                   [1] * len(edges))


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
