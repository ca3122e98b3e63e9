"""Directed multigraph with incidence-list query access.

Vertices are 1-based integers.  The id of an edge is its position,
0..m-1, so overlays can reverse individual edges by id without touching
the base graph.  Graph and UndirectedGraph share one storage: two flat
int lists, the tails and the heads, checked once when a graph is built
and handed out by `endpoints()`.  `from_endpoints(n, tail, head)` builds
either from such lists and takes them without a copy; `Graph(n, pairs)`
and `UndirectedGraph(n, pairs)` unzip pairs in front of it.  A Graph
adds the per-vertex incidence lists of ids.  An UndirectedGraph reads
as its antiparallel encoding (`antiparallel()`: edge i becomes arcs 2i
and 2i + 1), as endpoint lists or, through `to_directed()`, as a Graph.

Graph, Overlay, LiveView and SplitGraph (in vertex_cut) share one probe
protocol: `out_ids(u)`/`in_ids(u)` give a vertex's incidence lists of
edge ids, and `tail(eid)`/`head(eid)` the endpoints of an edge in the
view's current orientation.  The local algorithms read only this
protocol and are charged per incidence slot they read: one query per
slot, plus one for the probe that learns the slot after the last is
absent.  CountedView holds the count and offers that probe one slot at
a time; the detector's DFS reads a whole incidence list at once and
charges the view the same amount.  Whole-graph builds and walks read a
Graph's flat lists instead: the generators and `to_directed` fill one
from endpoint lists, `is_strongly_connected` and `graph_sccs` walk its
incidence and endpoint lists, and the forest certificates, component
walks, flow networks and mkecs read id lists over the endpoint lists.

So no driver builds an Edge object.  Edge triples are the API boundary:
`g.edges` and `g.edge(eid)` build the list of all m Edges on first use
and then cache it on the graph; `Overlay.edge`, `SplitGraph.edge` and
the CountedView probes build one Edge each, and a view's
`has_edge(eid)` tells whether an id is one of its edges.
"""

import dataclasses
from collections import deque


class GraphError(ValueError):
    pass


class EdgeListError(GraphError):
    """Raised on malformed edge-list input; message carries a line number."""


@dataclasses.dataclass(frozen=True, slots=True)
class Edge:
    id: int
    tail: int
    head: int


def _unzip(pairs):
    """The tail list and the head list of (tail, head) pairs."""
    tail, head = [], []
    for t, h in pairs:
        tail.append(t)
        head.append(h)
    return tail, head


class _EdgeLists:
    """Edges over vertices 1..n as two flat endpoint lists, the storage
    Graph and UndirectedGraph share; the id of an edge is its position."""

    __slots__ = ("n", "m", "_tail", "_head", "_edges")

    @classmethod
    def from_endpoints(cls, n, tail, head):
        """Build from the tail list and the head list, indexed by edge
        id.  The lists are taken, not copied: the graph owns them from
        here on, and the caller must not change them."""
        g = cls.__new__(cls)
        g._fill(n, tail, head)
        return g

    def _take(self, n, tail, head):
        """Hold the endpoint lists, which are taken, not copied, once n,
        their lengths and every endpoint are checked."""
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        if not (isinstance(tail, list) and isinstance(head, list)):
            raise GraphError("endpoints must be given as two lists")
        if len(tail) != len(head):
            raise GraphError("%d tails but %d heads" % (len(tail), len(head)))
        if tail and not (1 <= min(tail) and max(tail) <= n
                         and 1 <= min(head) and max(head) <= n):
            eid = next(i for i, t in enumerate(tail)
                       if not (1 <= t <= n and 1 <= head[i] <= n))
            raise GraphError("edge %d endpoint out of range" % eid)
        self.n, self.m, self._tail, self._head = n, len(tail), tail, head
        self._edges = None

    def endpoints(self):
        """The tail list and the head list, indexed by edge id; shared,
        so a caller reads them and never changes them."""
        return self._tail, self._head

    def tail(self, eid):
        return self._tail[eid]

    def head(self, eid):
        return self._head[eid]

    def pairs(self):
        """(tail, head) of every edge, in id order."""
        return zip(self._tail, self._head)

    @property
    def edges(self):
        """All edges as Edge triples, in id order; built once, on demand."""
        if self._edges is None:
            self._edges = [Edge(i, t, h)
                           for i, (t, h) in enumerate(self.pairs())]
        return self._edges

    def has_edge(self, eid):
        return 0 <= eid < self.m

    def edge(self, eid):
        if self.has_edge(eid):
            return self.edges[eid]
        raise GraphError("unknown edge id %d" % eid)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.n == other.n and self._tail == other._tail
                and self._head == other._head)

    def __repr__(self):
        return "%s(n=%d, m=%d)" % (type(self).__name__, self.n, self.m)


class Graph(_EdgeLists):
    """Immutable directed multigraph over vertices 1..n."""

    __slots__ = ("_out", "_in")

    def __init__(self, n, pairs):
        self._fill(n, *_unzip(pairs))

    @classmethod
    def from_edges(cls, n, edges):
        """Build from Edge triples whose ids are their positions."""
        edges = list(edges)
        for i, e in enumerate(edges):
            if e.id != i:
                raise GraphError("edge id %d at position %d" % (e.id, i))
        g = cls.from_endpoints(n, [e.tail for e in edges],
                               [e.head for e in edges])
        g._edges = edges
        return g

    def _fill(self, n, tail, head):
        """Take the endpoint lists and index them."""
        self._take(n, tail, head)
        out = [[] for _ in range(n + 1)]
        inc = [[] for _ in range(n + 1)]
        for eid, t in enumerate(tail):
            out[t].append(eid)
            inc[head[eid]].append(eid)
        self._out, self._in = out, inc

    def _reversed(self):
        """This graph with every edge flipped; ids are preserved.

        Incidence lists swap roles, so the i-th in-edge of v here is the
        i-th out-edge of v in the reverse.  Both graphs are immutable, so
        the reverse shares this graph's endpoint and incidence lists.
        """
        rev = Graph.__new__(Graph)
        rev.n, rev.m, rev._edges = self.n, self.m, None
        rev._tail, rev._head = self._head, self._tail
        rev._out, rev._in = self._in, self._out
        return rev

    def has_vertex(self, v):
        return 1 <= v <= self.n

    def vertices(self):
        return range(1, self.n + 1)

    def out_ids(self, u):
        return self._out[u]

    def in_ids(self, u):
        return self._in[u]

    def out_degree(self, u):
        return len(self._out[u])

    def in_degree(self, u):
        return len(self._in[u])


class UndirectedGraph(_EdgeLists):
    """Undirected multigraph; edge i joins tail(i) and head(i), unordered."""

    __slots__ = ()

    def __init__(self, n, pairs):
        self._take(n, *_unzip(pairs))

    # an undirected graph indexes nothing: it only holds the lists
    _fill = _EdgeLists._take

    def antiparallel(self):
        """Endpoint lists of the antiparallel encoding: edge i becomes the
        arcs 2i (tail -> head) and 2i + 1 (head -> tail), so an arc maps
        back to its edge by `a // 2`."""
        tail, head = [0] * (2 * self.m), [0] * (2 * self.m)
        tail[::2] = head[1::2] = self._tail
        head[::2] = tail[1::2] = self._head
        return tail, head

    def to_directed(self):
        """The antiparallel encoding as a Graph."""
        return Graph.from_endpoints(self.n, *self.antiparallel())


def reverse_graph(g):
    """Graph with every edge flipped; see Graph._reversed."""
    return g._reversed()


class LiveView:
    """The edges of a base graph between its live vertices, on the probe
    protocol, for a caller that removes vertex sets one at a time.

    A live vertex's `out_ids`/`in_ids` list its edges to and from live
    vertices in the base graph's order, and a removed vertex's nothing;
    ids are the base graph's, so `tail`/`head` are its own methods.
    `LiveView(g)` starts with every vertex live.  `without` removes a
    set in time linear in the degrees of the set and of the live
    vertices next to it, and returns the view of what is left; the view
    it is called on keeps answering as before, from the lists that were
    replaced, so a caller may hold every view it made.  `reverse_graph`
    works as on a Graph; a reversed view follows its view, and is not
    removed from itself.
    """

    __slots__ = ("n", "_out", "_in", "tail", "head", "_rev", "_past")

    def __init__(self, g):
        self.n = g.n
        self._out, self._in = list(g._out), list(g._in)
        self.tail, self.head = g.tail, g.head
        self._rev = self._past = None

    def has_vertex(self, v):
        return 1 <= v <= self.n

    def vertices(self):
        return range(1, self.n + 1)

    def out_ids(self, u):
        return self._out[u]

    def in_ids(self, u):
        return self._in[u]

    def _reversed(self):
        """This view with every edge flipped, sharing its lists; made
        once per view."""
        if self._rev is None:
            rev = self._rev = LiveView.__new__(LiveView)
            rev.n, rev._out, rev._in = self.n, self._in, self._out
            rev.tail, rev.head = self.head, self.tail
        return self._rev

    def without(self, members, frontier):
        """The view with `members` removed; `frontier` must hold every
        live vertex outside them with an edge to or from them.  Only the
        lists of those vertices are replaced, never changed in place."""
        out, inc, head, tail = self._out, self._in, self.head, self.tail
        saved_out, saved_in = {}, {}
        for v in members:
            saved_out[v], saved_in[v] = out[v], inc[v]
            out[v] = inc[v] = ()
        for v in frontier:
            saved_out[v], saved_in[v] = out[v], inc[v]
            out[v] = [e for e in out[v] if head(e) not in members]
            inc[v] = [e for e in inc[v] if tail(e) not in members]
        new = LiveView.__new__(LiveView)
        new.n, new._out, new._in = self.n, out, inc
        new.tail, new.head, new._rev = tail, head, None
        # this view, and its reverse, now read the replaced lists first
        past = new._past = (_Past(saved_out, out), _Past(saved_in, inc))
        if self._past is not None:
            self._past[0].later, self._past[1].later = past
        self._out, self._in = past
        if self._rev is not None:
            self._rev._out, self._rev._in = past[::-1]
        return new


class _Past:
    """Incidence lists as a retired LiveView saw them: the lists that
    the removal retiring it replaced, over what the next view saw."""

    __slots__ = ("saved", "later")

    def __init__(self, saved, later):
        self.saved, self.later = saved, later

    def __getitem__(self, v):
        past = self
        while isinstance(past, _Past):
            if v in past.saved:
                return past.saved[v]
            past = past.later
        return past[v]


def _parse_edge_list(text):
    """(n, pairs) of the delimited format: header "n m", then one
    "tail head" per line.

    Lines starting with '#' (after stripping) are comments.  Vertices are
    1-based.  Raises EdgeListError with the offending line number.
    """
    header = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise EdgeListError("line %d: expected two fields, got %d"
                                % (lineno, len(fields)))
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError("line %d: non-integer field" % lineno) from None
        if header is None:
            if a < 0 or b < 0:
                raise EdgeListError("line %d: negative header value" % lineno)
            header = (a, b)
        else:
            if not (1 <= a <= header[0] and 1 <= b <= header[0]):
                raise EdgeListError("line %d: endpoint out of range 1..%d"
                                    % (lineno, header[0]))
            pairs.append((a, b))
    if header is None:
        raise EdgeListError("line 1: missing header")
    n, m = header
    if len(pairs) != m:
        raise EdgeListError("line %d: header promises %d edges, found %d"
                            % (lineno if text.splitlines() else 1, m, len(pairs)))
    return n, pairs


def load_edge_list(text):
    """The Graph of a text in the delimited format (`_parse_edge_list`)."""
    return Graph(*_parse_edge_list(text))


def dump_edge_list(g):
    lines = ["%d %d" % (g.n, g.m)]
    for t, h in g.pairs():
        lines.append("%d %d" % (t, h))
    return "\n".join(lines) + "\n"


def load_undirected_edge_list(text):
    """The UndirectedGraph of a text in the delimited format."""
    return UndirectedGraph(*_parse_edge_list(text))


class Overlay:
    """Mutable orientation overlay on a base graph.

    Tracks a set of reversed edge ids.  A vertex's incidence lists are
    copied from the base graph when a flip first touches it; a flipped
    edge is appended at the end of the gaining endpoint's list.  The
    base graph is never modified.
    """

    __slots__ = ("base", "reversed_ids", "_out", "_in")

    def __init__(self, base):
        self.base = base
        self.reversed_ids = set()
        self._out = {}
        self._in = {}

    def has_vertex(self, v):
        return self.base.has_vertex(v)

    def is_reversed(self, eid):
        return eid in self.reversed_ids

    def tail(self, eid):
        if eid in self.reversed_ids:
            return self.base.head(eid)
        return self.base.tail(eid)

    def head(self, eid):
        if eid in self.reversed_ids:
            return self.base.tail(eid)
        return self.base.head(eid)

    def edge(self, eid):
        """The Edge of id eid in its current orientation, built alone:
        the base's list of all its Edges is never built."""
        if self.base.has_edge(eid):
            return Edge(eid, self.tail(eid), self.head(eid))
        raise GraphError("unknown edge id %d" % eid)

    def _materialize(self, v):
        if v not in self._out:
            self._out[v] = list(self.base.out_ids(v))
            self._in[v] = list(self.base.in_ids(v))

    def out_ids(self, u):
        ids = self._out.get(u)
        return self.base.out_ids(u) if ids is None else ids

    def in_ids(self, u):
        ids = self._in.get(u)
        return self.base.in_ids(u) if ids is None else ids

    def flip(self, eid):
        """Reverse one edge's current orientation."""
        t, h = self.tail(eid), self.head(eid)
        self._materialize(t)
        self._materialize(h)
        self._out[t].remove(eid)
        self._in[h].remove(eid)
        # new orientation: head -> tail, appended at the end of each list
        self._out[h].append(eid)
        self._in[t].append(eid)
        if eid in self.reversed_ids:
            self.reversed_ids.discard(eid)
        else:
            self.reversed_ids.add(eid)

    def apply_path_reversal(self, edge_ids):
        """Flip every edge of a directed path (given in path order)."""
        if __debug__ and edge_ids:
            prev = None
            for eid in edge_ids:
                assert prev is None or self.tail(eid) == prev, \
                    "path edges are not consecutive"
                prev = self.head(eid)
        for eid in edge_ids:
            self.flip(eid)


class CountedView:
    """Query-counting facade; one unit per probe, absent probes included."""

    __slots__ = ("base", "query_count")

    def __init__(self, base):
        self.base = base
        self.query_count = 0

    def _probe(self, incidence, u, i):
        if not self.base.has_vertex(u):
            raise GraphError("unknown vertex %r" % (u,))
        if i < 1:
            raise GraphError("incidence index must be positive")
        self.query_count += 1
        ids = incidence(u)
        if i > len(ids):
            return None
        eid = ids[i - 1]
        return Edge(eid, self.base.tail(eid), self.base.head(eid))

    def query_out_edge(self, u, i):
        """Return the i-th (1-based) out-edge of u, or None when absent."""
        return self._probe(self.base.out_ids, u, i)

    def query_in_edge(self, u, i):
        """Return the i-th (1-based) in-edge of u, or None when absent."""
        return self._probe(self.base.in_ids, u, i)


def strongly_connected_components(vertices, succ):
    """Iterative Tarjan SCC over an adjacency callable.

    `succ(v)` yields successor vertices.  Returns a list of vertex sets
    in reverse topological order of the condensation (sinks first).
    """
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
    counter = [0]

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                elif w in on_stack:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def graph_sccs(g):
    """Strongly connected components of a Graph, in the order of
    strongly_connected_components, read from its flat lists."""
    out, head = g._out, g._head
    return strongly_connected_components(
        g.vertices(), lambda v: map(head.__getitem__, out[v]))


def _reached(inc, end):
    """How many vertices a walk from vertex 1 reaches, leaving v by the
    edges of the incidence list inc[v] to their end[eid]."""
    seen = {1}
    stack = [1]
    while stack:
        for eid in inc[stack.pop()]:
            w = end[eid]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def is_strongly_connected(g):
    """One walk forward and one backward from vertex 1 over a Graph's
    incidence and endpoint lists (every caller holds a Graph): g is
    strongly connected iff both reach every vertex."""
    if g.n <= 1:
        return True
    return (_reached(g._out, g._head) == g.n
            and _reached(g._in, g._tail) == g.n)


def components(vertices, pairs, undirected=False):
    """Strongly connected components of the (tail, head) pairs on
    `vertices`.

    With `undirected` every edge is also followed from head to tail, so
    the result is the connected components.  Every endpoint must lie in
    `vertices`; the order is that of strongly_connected_components.
    """
    adj = {v: [] for v in vertices}
    for t, h in pairs:
        adj[t].append(h)
        if undirected:
            adj[h].append(t)
    return strongly_connected_components(vertices, adj.__getitem__)


def scan_first_forests(tail, head, ids, k):
    """Ids of the edges of k scan-first spanning forests, in the order of
    `ids`, over the endpoint lists `tail` and `head`.

    Each forest is grown breadth-first on the edges the earlier ones
    left, read as undirected: a scanned vertex acquires all its unseen
    neighbours, roots go in vertex order, neighbours in the order of
    `ids` (increasing, at every caller), and loops are skipped.  So
    every forest is maximal on what it grows on, and the union keeps
    every edge cut of at most k edges whole and at least k edges of
    every larger one (Nagamochi and Ibaraki, 1992).  On a simple graph
    it also keeps vertex connectivity up to k (Cheriyan, Kao and
    Thurimella, 1993).
    """
    remaining = [i for i in ids if tail[i] != head[i]]
    kept = set()
    for _ in range(k):
        if not remaining:
            break
        adj = {}
        for i in remaining:
            adj.setdefault(tail[i], []).append((head[i], i))
            adj.setdefault(head[i], []).append((tail[i], i))
        seen = set()
        for root in sorted(adj):
            if root in seen:
                continue
            seen.add(root)
            queue = deque([root])
            while queue:
                for w, eid in adj[queue.popleft()]:
                    if w not in seen:
                        seen.add(w)
                        kept.add(eid)
                        queue.append(w)
        remaining = [i for i in remaining if i not in kept]
    return [i for i in ids if i in kept]


def undirected_components(und):
    """Connected components of an UndirectedGraph, as vertex sets."""
    return components(range(1, und.n + 1), und.pairs(), undirected=True)
