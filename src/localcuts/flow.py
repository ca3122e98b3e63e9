"""Small unit-capacity max-flow routines shared by the connectivity code.

Everything here is plain Edmonds-Karp on dict-of-dict residual networks;
the graphs involved are desk scale and augmentation counts are capped by
the connectivity parameter under test.
"""

from collections import deque


def _bfs_augment(cap, source, sink):
    """One shortest augmenting path; returns bottleneck (0 when none)."""
    parent = {source: None}
    q = deque([source])
    while q:
        u = q.popleft()
        if u == sink:
            break
        for v, c in cap[u].items():
            if c > 0 and v not in parent:
                parent[v] = u
                q.append(v)
    if sink not in parent:
        return 0
    # unit capacities throughout, bottleneck is 1
    v = sink
    while parent[v] is not None:
        u = parent[v]
        cap[u][v] -= 1
        cap[v].setdefault(u, 0)
        cap[v][u] += 1
        v = u
    return 1


def _residual_reachable(cap, source):
    seen = {source}
    q = deque([source])
    while q:
        u = q.popleft()
        for v, c in cap[u].items():
            if c > 0 and v not in seen:
                seen.add(v)
                q.append(v)
    return seen


def max_flow_capped(cap, source, sink, limit):
    """Augment up to `limit` units; returns the flow value reached."""
    flow = 0
    while flow < limit:
        if _bfs_augment(cap, source, sink) == 0:
            break
        flow += 1
    return flow


def vertex_split_network(g, s, t, k):
    """Residual network for s-t vertex connectivity, transit capacity 1.

    Node 2v is the in-side and 2v+1 the out-side of vertex v; s and t get
    transit capacity k+1 so only interior vertices can be cut.  Image
    edges carry capacity k+1, which never saturates below flow k.
    """
    cap = {}

    def node(v, side):
        return 2 * v + side

    def ensure(u):
        if u not in cap:
            cap[u] = {}

    def add(u, v, c):
        ensure(u)
        ensure(v)
        cap[u][v] = cap[u].get(v, 0) + c
        cap[v].setdefault(u, 0)

    big = k + 1
    for v in g.vertices():
        add(node(v, 0), node(v, 1), big if v in (s, t) else 1)
    for e in g.edges:
        add(node(e.tail, 1), node(e.head, 0), big)
    return cap, node(s, 1), node(t, 0)


def st_vertex_cut_at_most(g, s, t, k):
    """Vertex cut (L, M, R) with s in L, t in R, |M| < k, or None.

    Runs at most k unit augmentations; when the flow value f stays below
    k the residual reachability from s yields a cut with |M| = f.
    """
    if s == t:
        raise ValueError("endpoints must differ")
    cap, source, sink = vertex_split_network(g, s, t, k)
    if max_flow_capped(cap, source, sink, k) >= k:
        return None
    reach = _residual_reachable(cap, source)
    left = set()
    middle = set()
    for v in g.vertices():
        if 2 * v + 1 in reach:
            left.add(v)
        elif 2 * v in reach:
            middle.add(v)
    right = set(g.vertices()) - left - middle
    return left, middle, right


def edge_flow_network(n, edges):
    """Unit-capacity network over vertices 1..n; parallel edges add up."""
    cap = {v: {} for v in range(1, n + 1)}
    for e in edges:
        cap[e.tail][e.head] = cap[e.tail].get(e.head, 0) + 1
        cap[e.head].setdefault(e.tail, 0)
    return cap


def st_edge_cut_below(n, edges, s, t, k):
    """Edge cut (S, cut edge ids) with s in S, t outside, < k edges, or None."""
    if s == t:
        raise ValueError("endpoints must differ")
    cap = edge_flow_network(n, edges)
    if max_flow_capped(cap, s, t, k) >= k:
        return None
    side = _residual_reachable(cap, s)
    cut = [e.id for e in edges if e.tail in side and e.head not in side]
    return side, cut
