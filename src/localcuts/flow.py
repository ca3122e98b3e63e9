"""The exact-cut layer: capped unit-capacity s-t flows, and the two
global cut searches on them that connectivity, mkecs and the testers
call.

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

Every exact global cut is found by one of two searches, both of which
skip the flows their proven-reach sets answer.  `edge_cut_below` finds
a directed cut of fewer than k edges in a piece by flows from and to
one root, as in the global phase of Chechik, Hansen, Italiano,
Loitzenbauer and Parotsidis (SODA 2017): mkecs runs it on each piece,
and `global_edge_cut_below` runs it on a whole graph for the testers.
The edge functions read a piece as a list of edge ids over two endpoint
lists, a graph's own (`Graph.endpoints`) or mkecs' antiparallel ones,
and a cut lists the ids of its edges.
`even_scheme` finds the vertex connectivity, or a separator below a
given size, by Even's scheme (1975): capped flows to and from each of
the first kappa + 1 vertices, asked through one `PairCuts`, which holds
one graph's network, memo and sets and meters their reads.
Connectivity runs it per probe, and the testers on a whole graph.
"""

import dataclasses
import math
from collections import Counter

from .graph import is_strongly_connected

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


def edge_flow_network(n, tail, head, ids, vertices=None):
    """Unit-capacity network over vertices 1..n, one arc per edge of
    `ids`, whose endpoints are read from the lists `tail` and `head`.

    Given `vertices`, a piece of a larger graph that holds every endpoint
    of those edges, the network has a node for those vertices only, so
    its size does not depend on n."""
    return Network(n + 1 if vertices is None else vertices,
                   [tail[i] for i in ids], [head[i] for i in ids],
                   [1] * len(ids))


def st_edge_cut_below(n, tail, head, ids, s, t, k, net=None):
    """Edge cut (S, cut edge ids) of the edges `ids` over `tail` and
    `head`, with s in S, t outside and fewer than k edges, or None;
    `net` is their edge_flow_network, built here when not given."""
    if s == t:
        raise ValueError("endpoints must differ")
    if net is None:
        net = edge_flow_network(n, tail, head, ids)
    side = net.source_side(s, t, k)
    if side is None:
        return None
    side = set(side)
    cut = [i for i in ids if tail[i] in side and head[i] not in side]
    return side, cut


@dataclasses.dataclass(frozen=True)
class EdgeCut:
    side: frozenset
    cut_edges: tuple
    # arcs the augmenting searches of the cut search read, up to this cut
    arc_scans: int = dataclasses.field(default=0, compare=False)


def balanced(tail, head, ids):
    """Every vertex has as many of the edges `ids` entering as leaving it."""
    return Counter(tail[i] for i in ids) == Counter(head[i] for i in ids)


def edge_cut_below(vertices, tail, head, ids, k):
    """Directed cut (S, rest) with fewer than k edges, on a strongly
    connected piece whose edges are `ids` over the endpoint lists `tail`
    and `head`, or None; the cut lists edge ids.  Max-flow from and to a
    fixed root decides the global minimum cut exactly; one network over
    the piece's own vertices serves every flow.

    The root is a vertex of minimum degree (ties to the smallest id) and
    the other vertices follow in id order: a small side with fewer than
    k leaving edges has low degrees, so the first flows usually find it.
    A flow is skipped when the root's proven-reach set in its direction
    already holds the other end (`ProvenReach`): it would find no cut,
    so the first cut in this order is found all the same.

    On a balanced piece (`balanced`: every bidirected piece and
    undirected certificate) each cut has as many edges entering as
    leaving, so lambda(r, v) = lambda(v, r), and a member of either set
    is proven both ways.  So only flows from the root run there, at
    most one per vertex, and the first cut is unchanged: a cut from v
    to the root means one from the root to v, which is flowed first.
    The cut carries the arcs its search scanned (`EdgeCut.arc_scans`).
    """
    if len(vertices) <= 1:
        return None
    is_balanced = balanced(tail, head, ids)
    ordered = sorted(vertices)
    n_max = ordered[-1]
    net = edge_flow_network(n_max, tail, head, ids, ordered)
    # a node's arc list holds one arc per edge at it, in or out
    root = min(ordered, key=lambda v: len(net.arcs[v]))
    fwd = ProvenReach(net, root, k)
    bwd = ProvenReach(net, root, k, backward=True)
    for v in ordered:
        for s, t, proven, other in ((root, v, fwd, bwd), (v, root, bwd, fwd)):
            if v in proven:
                continue
            if not (is_balanced and v in other):
                res = st_edge_cut_below(n_max, tail, head, ids, s, t, k, net)
                if res is not None:
                    side, cut = res
                    return EdgeCut(frozenset(side), tuple(cut), net.scans)
            proven.add(v)
    return None


def global_edge_cut_below(g, k):
    """Cut with at most k-1 edges leaving a proper vertex set of g, or
    None.  g need not be strongly connected: a flow to a vertex the root
    does not reach, or from one that does not reach it, returns a cut
    with no edges.  The search reads g's endpoint lists
    (`Graph.endpoints`) with every id, range(g.m)."""
    return edge_cut_below(set(g.vertices()), *g.endpoints(), range(g.m), k)


@dataclasses.dataclass(frozen=True)
class VertexCut:
    left: frozenset
    middle: frozenset
    right: frozenset

    @property
    def size(self):
        return len(self.middle)

    def validate(self, g):
        """Structural check: a partition, both sides nonempty, no edge L->R."""
        union = self.left | self.middle | self.right
        if len(union) != len(self.left) + len(self.middle) + len(self.right):
            return False
        if union != set(g.vertices()):
            return False
        if not self.left or not self.right:
            return False
        head = g.head
        for u in self.left:
            for eid in g.out_ids(u):
                if head(eid) in self.right:
                    return False
        return True


class PairCuts:
    """Capped s-t vertex cuts asked for in one connectivity computation.

    Holds, for the graph last asked about, whether it is strongly
    connected (checked once, when first asked), its vertex-split network
    (built when first needed; its sets share the network's neighbour
    lists, `Network.near`) and a memo of its answers keyed by
    (s, t, limit), so a pair already answered in the call is never
    flowed again.  Asking about another graph drops all of it.

    A (vertex, limit) may keep a forward and a backward proven-reach set
    (`ProvenReach`).  A pair with t in the forward set of s, or s in the
    backward set of t, is answered None without a flow, which is the
    flow's own answer, so every answer equals `st_vertex_cut_at_most` on
    g.  A lookup reads only the sets held.  Callers build, through
    `proven_reach`, the sets they expect to prove pairs: the sampled
    step both ends of each pair, Even's scheme its sources only.  An
    answer with no cut grows the forward set of s and the backward set
    of t, building them when missing.

    Per limit it also keeps the complete vertices: those whose forward
    and backward sets both hold every vertex of g.  A set is built in
    `proven_reach` and grows only in a call that finds no cut, so a
    vertex is checked there, when one of its sets is built or grown.

    `spent` is the slots read on the networks held, across graphs: their
    `Network.scans`, which count the arcs each flow's searches read and
    the list slots each set reads.  Memo hits and pairs proven by a set
    read nothing.
    """

    __slots__ = ("g", "strong", "net", "memo", "reach", "complete", "past")

    def __init__(self):
        self.g = self.net = None
        self.past = 0       # the scans of networks held for other graphs

    @property
    def spent(self):
        return self.past + (0 if self.net is None else self.net.scans)

    def hold(self, g, strong=None):
        """Hold g, dropping what was held for another graph; `strong`
        is g's strong connectivity when the caller already knows it."""
        if g is not self.g:
            self.past = self.spent
            self.g, self.strong, self.net = g, strong, None
            self.memo, self.reach, self.complete = {}, {}, {}

    def strongly_connected(self, g):
        """Whether g is strongly connected, checked once per graph."""
        self.hold(g)
        if self.strong is None:
            self.strong = is_strongly_connected(g)
        return self.strong

    def proven_reach(self, g, v, k, backward):
        """The forward (backward) proven-reach set of v at limit k,
        built when missing."""
        self.hold(g)
        key = (v, k, backward)
        reach = self.reach.get(key)
        if reach is None:
            reach = self.reach[key] = ProvenReach(
                self._network(), v, k, backward, split=True)
            # checked in line, as in `cut`: on small graphs most sets are
            # built whole, and a method call per build is a measurable
            # share of a probe
            if len(reach.members) == g.n:
                other = self.reach.get((v, k, not backward))
                if other is not None and len(other.members) == g.n:
                    self.complete.setdefault(k, set()).add(v)
        return reach

    def _network(self):
        if self.net is None:
            self.net = vertex_split_network(self.g)
        return self.net

    def cut(self, g, s, t, k):
        self.hold(g)
        key = (s, t, k)
        if key in self.memo:
            return self.memo[key]
        if s == t:
            raise ValueError("endpoints must differ")
        if t in self.reach.get((s, k, False), ()) or \
                s in self.reach.get((t, k, True), ()):
            res = None
        else:
            res = st_vertex_cut_at_most(g, s, t, k, self._network())
        if res is None:
            for v, w, back in ((s, t, False), (t, s, True)):
                grown = self.proven_reach(g, v, k, back)
                grown.add(w)
                if len(grown.members) == g.n:
                    other = self.reach.get((v, k, not back))
                    if other is not None and len(other.members) == g.n:
                        self.complete.setdefault(k, set()).add(v)
        else:
            left, middle, right = res
            res = VertexCut(frozenset(left), frozenset(middle),
                            frozenset(right))
        self.memo[key] = res
        return res

    def proves_at_least(self, g, k):
        """True when k <= n - 1 and at least k vertices of g are complete
        at limit k: then kappa(g) >= k.

        Even's argument (1975): a set C of fewer than k vertices misses
        one of the k complete vertices, v.  If removing C left g not
        strongly connected, some w outside C would not be reached from
        v or would not reach v; but v's complete sets mean no fewer than
        k vertices other than v and w separate them either way.  The
        guard is needed because kappa is at most n - 1 by convention,
        while a complete digraph has complete vertices at every limit.
        """
        return (g is self.g and k <= g.n - 1
                and len(self.complete.get(k, ())) >= k)


def even_scheme(g, pairs, budget=None, below=None):
    """Directed vertex connectivity of g and a witness by Even's scheme
    of capped flows, asked through `pairs`: (kappa, cut), the cut None
    when every ordered pair is adjacent.

    A minimum separator misses one of any kappa + 1 vertices, and that
    vertex is separated from some other vertex in one direction.  So the
    i-th vertex (i from 0) is flowed to and from every later vertex,
    skipping adjacent ordered pairs, while i is below the best value
    found so far: until that value is kappa, the first kappa + 1
    vertices all get their turn.

    Only the sources hold proven-reach sets for the loop: the pair
    (v, w) is skipped when w is in v's forward set at the current best,
    (w, v) when w is in v's backward set, for their flows would find no
    cut.  No set is built for a far end w unless a flow runs for it, so
    a limit costs two sets per source and at most one per flow, not 2n.
    Once both of a source's sets hold every vertex (`PairCuts.complete`),
    its remaining pairs are not looked up at all.  Skipped pairs leave
    best and its witness as they were, so the answer is that of the
    plain scheme.

    With a budget, the run returns None as soon as the slots read on
    its networks (`PairCuts.spent`) in this run pass it.  With `below`,
    best starts at min(below, n - 1) instead of n - 1: the run returns a
    cut of fewer vertices than that when one exists, and that value with
    no witness otherwise."""
    n = g.n
    if n <= 1:
        return 0, None
    # no flow can cut an adjacent pair, so skip it before the sources'
    # sets: on an all-adjacent graph such as K8 reading them would build
    # two sets per source for pairs with nothing to decide
    adjacent = set(g.pairs())
    stop = math.inf if budget is None else pairs.spent + budget
    order = list(g.vertices())
    best = n - 1 if below is None else min(below, n - 1)
    best_cut = None
    for i, v in enumerate(order):
        if i >= best:
            break
        reach = [None, None]    # v's forward and backward sets at best
        for w in order[i + 1:]:
            for back, s, t in ((False, v, w), (True, w, v)):
                if (s, t) in adjacent:
                    continue
                if reach[back] is None:
                    reach[back] = pairs.proven_reach(g, v, best, back)
                elif w in reach[back]:
                    continue
                cut = None if w in reach[back] else pairs.cut(g, s, t, best)
                if pairs.spent > stop:
                    return None
                if cut is not None and cut.size < best:
                    best = cut.size
                    best_cut = cut
                    reach = [None, None]
                    if best == 0:
                        return 0, best_cut
                elif v in pairs.complete.get(best, ()):
                    # v's sets prove every pair left: no flow, set or
                    # charge
                    break
            else:
                continue
            break
    return best, best_cut
