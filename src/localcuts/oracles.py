"""Reference oracles, written against raw edge lists only.

These deliberately do not share code with the algorithms under test:
component oracles enumerate vertex subsets outright and the connectivity
oracle carries its own max-flow, so agreement between an oracle and the
library is meaningful evidence.
"""

from collections import deque
from itertools import combinations


def _out_count(pairs, members):
    return sum(1 for (t, h) in pairs if t in members and h not in members)


def oracle_min_edge_out_component(g, s, k):
    """All minimal k-edge-out components containing s, by enumeration.

    Minimal means no proper subset containing s has at most as many
    leaving edges.  Guarded to n <= 20 (exponential enumeration).
    """
    n = g.n
    if n > 20:
        raise ValueError("oracle is guarded to n <= 20")
    if not 1 <= s <= n:
        raise ValueError("start vertex %d is not in 1..%d" % (s, n))
    pairs = list(g.pairs())
    others = [v for v in range(1, n + 1) if v != s]
    subsets = []
    for r in range(0, n):
        for extra in combinations(others, r):
            members = frozenset((s,) + extra)
            cut = _out_count(pairs, members)
            if cut <= k:
                subsets.append((members, cut))
    minimal = []
    for members, cut in subsets:
        dominated = any(other < members and ocut <= cut
                        for other, ocut in subsets if other != members)
        if not dominated:
            minimal.append((members, cut))
    return minimal


def oracle_is_minimal_component(g, s, members, k):
    """Check one set: contains s, at most k leaving edges, and no proper
    subset containing s does at least as well."""
    if s not in members:
        return False
    pairs = list(g.pairs())
    cut = _out_count(pairs, members)
    if cut > k:
        return False
    others = [v for v in members if v != s]
    for r in range(0, len(others)):
        for extra in combinations(others, r):
            sub = frozenset((s,) + extra)
            if sub != members and _out_count(pairs, sub) <= cut:
                return False
    return True


def _maxflow(cap, source, sink):
    total = 0
    while True:
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
            return total
        v = sink
        while parent[v] is not None:
            u = parent[v]
            cap[u][v] -= 1
            cap[v][u] = cap[v].get(u, 0) + 1
            v = u
        total += 1


def oracle_vertex_connectivity(g):
    """Exact directed vertex connectivity by all-pairs vertex-split flow.

    Guarded to n <= 64.  Returns n - 1 when every ordered pair of
    distinct vertices is adjacent.
    """
    n = g.n
    if n > 64:
        raise ValueError("oracle is guarded to n <= 64")
    if n <= 1:
        return 0
    pairs = list(g.pairs())
    adjacent = set(pairs)
    best = n - 1
    big = n + 1
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            if s == t or (s, t) in adjacent:
                continue
            cap = {}
            for v in range(1, n + 1):
                cap.setdefault(2 * v, {})[2 * v + 1] = \
                    big if v in (s, t) else 1
                cap.setdefault(2 * v + 1, {})
            for (u, v) in pairs:
                cap[2 * u + 1][2 * v] = cap[2 * u + 1].get(2 * v, 0) + big
            val = _maxflow(cap, 2 * s + 1, 2 * t)
            if val < best:
                best = val
                if best == 0:
                    return 0
    return best


def oracle_undirected_vertex_connectivity(und):
    """Exact undirected vertex connectivity via the antiparallel encoding."""
    return oracle_vertex_connectivity(und.to_directed())


def oracle_min_directed_cut(g):
    """Smallest directed cut value over all proper vertex subsets
    (enumeration; guarded to n <= 16)."""
    n = g.n
    if n > 16:
        raise ValueError("oracle is guarded to n <= 16")
    pairs = list(g.pairs())
    best = None
    for mask in range(1, (1 << n) - 1):
        members = {v for v in range(1, n + 1) if mask >> (v - 1) & 1}
        cut = _out_count(pairs, members)
        if best is None or cut < best:
            best = cut
    return best


def oracle_min_vertex_out(g, s, k):
    """All k-vertex-out components containing s, with their volumes.

    Returns a list of (members, boundary, volume, symmetric_volume);
    guarded to n <= 16.
    """
    n = g.n
    if n > 16:
        raise ValueError("oracle is guarded to n <= 16")
    if not 1 <= s <= n:
        raise ValueError("start vertex %d is not in 1..%d" % (s, n))
    pairs = list(g.pairs())
    others = [v for v in range(1, n + 1) if v != s]
    found = []
    for r in range(0, n):
        for extra in combinations(others, r):
            members = frozenset((s,) + extra)
            boundary = {h for (t, h) in pairs
                        if t in members and h not in members}
            if len(boundary) > k:
                continue
            vol = sum(1 for (t, _h) in pairs if t in members)
            svol = sum(1 for (t, h) in pairs
                       if t in members or h in members)
            found.append((members, frozenset(boundary), vol, svol))
    return found
