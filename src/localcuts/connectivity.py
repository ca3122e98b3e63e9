"""Vertex connectivity via local cut detection and sampled pair flows.

For a threshold k, every vertex cut of size below k either has a side of
small symmetric volume (caught by running the local vertex-out detector
from sampled edge endpoints at geometrically shrinking volume budgets)
or both sides are voluminous (caught by max-flow between sampled edge
endpoint pairs).  Thresholds too large for sampling are decided exactly
by Even's scheme of capped flows.  One doubling plus bisection search
over k finds the exact connectivity value of directed and undirected
inputs alike; undirected ones are first sparsified with a
scan-first-forest certificate.

The search has one failure budget.  It probes each threshold once, at
most P = 2 ceil(log2 n) probes, and each probe samples at constant
c + log_n P, so a union bound over the probes gives: the returned kappa
is wrong with probability at most n^-c + P * n^-3, the second term for
the sweep's detections, each amplified to 1 - n^-3.  A returned cut is
always a valid witness.
"""

import dataclasses
import math

from . import flow, vertex_cut
from .graph import (UndirectedGraph, components, graph_sccs,
                    is_strongly_connected, reverse_graph, undirected_components)


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
        for u in self.left:
            for eid in g.out_ids(u):
                if g.edge(eid).head in self.right:
                    return False
        return True


@dataclasses.dataclass
class ConnectivityVerdict:
    decision: str               # "cut_found" | "probably_at_least_k"
    k: int
    cut: VertexCut | None
    stats: dict

    @property
    def found(self):
        return self.decision == "cut_found"


class PairCuts:
    """Capped s-t vertex cuts asked for in one connectivity computation.

    Holds the vertex-split network of the graph last asked about, built
    when first needed, and a memo of its answers keyed by (s, t, limit),
    so a pair already answered in the call is never flowed again.
    """

    __slots__ = ("g", "net", "memo")

    def __init__(self):
        self.g = None

    def cut(self, g, s, t, k):
        if g is not self.g:
            self.g, self.net, self.memo = g, flow.vertex_split_network(g), {}
        key = (s, t, k)
        if key in self.memo:
            return self.memo[key]
        res = flow.st_vertex_cut_at_most(g, s, t, k, self.net)
        if res is not None:
            left, middle, right = res
            res = VertexCut(frozenset(left), frozenset(middle),
                            frozenset(right))
        self.memo[key] = res
        return res


def pair_vertex_cut_at_most(g, s, t, k):
    """Vertex cut separating s from t with fewer than k middle vertices."""
    return PairCuts().cut(g, s, t, k)


def _degenerate_cut(g):
    """Witness for a non-strongly-connected graph: a sink component."""
    comps = graph_sccs(g)
    sink = comps[0]  # Tarjan emits sinks of the condensation first
    rest = set(g.vertices()) - sink
    return VertexCut(frozenset(sink), frozenset(), frozenset(rest))


def detection_volume_bound(k, delta):
    """Symmetric-volume cap of components the sweep step can return."""
    return vertex_cut.component_volume_bound(k, delta)


def max_feasible_delta(k, m):
    """Largest delta with detection_volume_bound(k-1, delta) + k^2 < m."""
    kd = k - 1
    delta = 1
    while detection_volume_bound(kd, delta + 1) + k * k < m:
        delta += 1
    if detection_volume_bound(kd, delta) + k * k >= m:
        return 0
    return delta


def sample_pair_step(g, k, delta_star, c, rng, pairs=None):
    """Flow probes between endpoints of sampled edge pairs.

    Catches cuts below size k whose sides both have symmetric volume at
    least delta_star: sampling ceil((4m/delta_star) * c * ln n) edge
    pairs hits both sides with probability at least 1 - 1/n^c, and all
    four endpoint combinations get a capped flow run.  Results are
    memoized in `pairs` (the flow is deterministic), the PairCuts of the
    enclosing vertex_connectivity_* call, or a fresh one when omitted.
    """
    n, m = g.n, g.m
    if m == 0 or n < 2:
        return None
    t_pairs = math.ceil((4.0 * m / delta_star) * c * math.log(n))
    pairs = pairs or PairCuts()
    for _ in range(t_pairs):
        e1 = g.edges[rng.randrange(m)]
        e2 = g.edges[rng.randrange(m)]
        for a in (e1.tail, e1.head):
            for b in (e2.tail, e2.head):
                if a == b:
                    continue
                cut = pairs.cut(g, a, b, k)
                if cut is not None:
                    return cut
    return None


def local_sweep_step(g, k, delta_star, c, rng):
    """Local detection sweep over halving volume budgets.

    Level i uses budget delta_star / 2^i and samples enough edge
    endpoints to hit any component of symmetric volume above the next
    (halved) budget.  Detection runs in both edge orientations at
    success level 1 - 1/n^3; results with symmetric volume at least
    m - k^2 cannot be a proper side and are discarded.  Detection
    outcomes are memoized per (vertex, budget, orientation).
    """
    n, m = g.n, g.m
    if m == 0 or n < 2:
        return None
    grev = reverse_graph(g)
    p = 1.0 - 1.0 / n ** 3
    kd = k - 1
    seen = {}
    level = 0
    while True:
        budget = delta_star >> level
        if budget < 1:
            break
        next_budget = max(delta_star / 2.0 ** (level + 1), 0.5)
        t_i = math.ceil((m / next_budget) * c * math.log(n))
        for _ in range(t_i):
            e = g.edges[rng.randrange(m)]
            for s in (e.tail, e.head):
                for orient, gg in (("out", g), ("in", grev)):
                    key = (s, budget, orient)
                    if key in seen:
                        res = seen[key]
                    else:
                        res = vertex_cut.detect_vertex_out_component(
                            gg, s, kd, budget, p, rng, symmetric=True)
                        seen[key] = res
                    if not res:
                        continue
                    if res.symmetric_volume >= m - k * k:
                        continue
                    members, bnd = res.members, res.boundary
                    rest = frozenset(set(g.vertices()) - members - bnd)
                    if not rest:
                        continue
                    if orient == "out":
                        cut = VertexCut(members, bnd, rest)
                    else:
                        cut = VertexCut(rest, bnd, members)
                    if cut.validate(g):
                        return cut
        level += 1
    return None


def is_connectivity_at_least(g, k, rng, c=2.0, pairs=None):
    """Decide whether the directed vertex connectivity is at least k.

    Returns a cut of size below k when one is found (always correct), or
    "probably_at_least_k" otherwise (correct with high probability).
    Requires k <= sqrt(m)/2 for the sampling machinery; above that, and
    on graphs too small for any useful budget, an exact fallback runs.
    `pairs` carries one PairCuts across the probes of a search.
    """
    n, m = g.n, g.m
    stats = {"mode": None}
    if k < 1:
        raise ValueError("k must be positive")
    if n <= 1:
        # single vertex (or empty) graph: connectivity 0 by convention
        stats["mode"] = "tiny"
        return ConnectivityVerdict("cut_found", k, None, stats)
    if not is_strongly_connected(g):
        cut = _degenerate_cut(g)
        stats["mode"] = "degenerate"
        return ConnectivityVerdict("cut_found", k, cut, stats)
    if k == 1:
        stats["mode"] = "scc"
        return ConnectivityVerdict("probably_at_least_k", k, None, stats)
    delta_star = max_feasible_delta(k, m)
    if 2 * k > math.sqrt(m) or delta_star < 1:
        stats["mode"] = "exact"
        kappa, cut = fallback_exact(g, pairs)
        if kappa < k:
            return ConnectivityVerdict("cut_found", k, cut, stats)
        return ConnectivityVerdict("probably_at_least_k", k, None, stats)
    stats["mode"] = "sampled"
    stats["delta_star"] = delta_star
    cut = sample_pair_step(g, k, delta_star, c, rng, pairs)
    if cut is None:
        cut = local_sweep_step(g, k, delta_star, c, rng)
    if cut is not None:
        assert cut.size < k and cut.validate(g)
        return ConnectivityVerdict("cut_found", k, cut, stats)
    return ConnectivityVerdict("probably_at_least_k", k, None, stats)


def fallback_exact(g, pairs=None):
    """Exact directed vertex connectivity by Even's scheme of capped flows.

    A minimum separator misses one of any kappa + 1 vertices, and that
    vertex is separated from some other vertex in one direction.  So the
    i-th vertex (i from 0) is flowed to and from every later vertex,
    skipping adjacent ordered pairs, while i is below the best value
    found so far: until that value is kappa, the first kappa + 1
    vertices all get their turn.  Returns n-1 with no witness when
    every ordered pair is adjacent.  Flows go through `pairs`, the PairCuts of
    the search, or a fresh one.
    """
    n = g.n
    if n <= 1:
        return 0, None
    adjacent = {(e.tail, e.head) for e in g.edges}
    pairs = pairs or PairCuts()
    order = list(g.vertices())
    best = n - 1
    best_cut = None
    for i, v in enumerate(order):
        if i >= best:
            break
        for w in order[i + 1:]:
            for s, t in ((v, w), (w, v)):
                if (s, t) in adjacent:
                    continue
                cut = pairs.cut(g, s, t, best)
                if cut is not None and cut.size < best:
                    best = cut.size
                    best_cut = cut
                    if best == 0:
                        return 0, best_cut
    return best, best_cut


def _kappa_search(n, graph_at, rng, c):
    """Doubling search for an upper bracket, then bisection.

    `graph_at(k)` is the graph that decides threshold k; the bisection
    probes the graph of the doubling step that found a cut.  Each
    threshold is probed once: the doubling reaches n - 1 within
    ceil(log2 n) probes and the bisection halves [lo, hi] per probe, so
    there are at most P = 2 ceil(log2 n).  Every probe samples at
    constant c + log_n P, so by the union bound over the probes the
    search's sampling misses anything with probability at most n^-c.
    Returns (kappa, cut) with cut None iff no probe found one, i.e.
    kappa = n - 1.
    """
    c_probe = c + math.log(2 * math.ceil(math.log2(n)), n)
    lo, hi = 1, n - 1
    best_cut = None
    pairs = PairCuts()
    k = 2
    while lo < hi:
        g = graph_at(k)
        verdict = is_connectivity_at_least(g, k, rng, c_probe, pairs)
        if verdict.found:
            best_cut = verdict.cut
            hi = best_cut.size
            lo = min(lo, hi)
            break
        lo = k
        k = min(2 * k, n - 1)
    while lo < hi:
        k = (lo + hi) // 2 + 1
        verdict = is_connectivity_at_least(g, k, rng, c_probe, pairs)
        if verdict.found:
            best_cut = verdict.cut
            hi = best_cut.size
            lo = min(lo, hi)
        else:
            lo = k
    return lo, best_cut


def vertex_connectivity_directed(g, rng, c=2.0):
    """Exact directed vertex connectivity with a witness cut.

    Doubling search finds an upper bracket, bisection pins the value,
    probing each threshold once.  A returned cut is always valid; the
    returned kappa is wrong with probability at most n^-c + P * n^-3,
    P = 2 ceil(log2 n): sampling misses with probability at most n^-c
    over the whole search, and each of its at most P probes loses a hit
    side to detection with probability at most n^-3.  Returns
    (kappa, cut) where cut is None iff kappa == n - 1 (or n <= 1).
    """
    n = g.n
    if n <= 1:
        return 0, None
    if not is_strongly_connected(g):
        return 0, _degenerate_cut(g)
    return _kappa_search(n, lambda k: g, rng, c)


def scan_first_certificate(und, k):
    """Union of k iterated breadth-first spanning forests.

    Breadth-first search scans each vertex by acquiring all its unseen
    neighbors, so every forest is scan-first; the union preserves vertex
    connectivity up to k, and removing any vertex set of size below k
    disconnects the certificate iff it disconnects the input.
    """
    from collections import deque

    remaining = list(und.edges)
    kept = []
    for _ in range(k):
        if not remaining:
            break
        adj = {}
        for e in remaining:
            adj.setdefault(e.tail, []).append((e.head, e))
            adj.setdefault(e.head, []).append((e.tail, e))
        forest = []
        seen = set()
        for root in range(1, und.n + 1):
            if root in seen or root not in adj:
                continue
            seen.add(root)
            q = deque([root])
            while q:
                u = q.popleft()
                for w, e in adj.get(u, ()):
                    if w not in seen:
                        seen.add(w)
                        forest.append(e)
                        q.append(w)
        kept.extend(forest)
        forest_ids = {e.id for e in forest}
        remaining = [e for e in remaining if e.id not in forest_ids]
    kept.sort(key=lambda e: e.id)
    return UndirectedGraph(und.n, [(e.tail, e.head) for e in kept])


def _lift_cutset(und, middle):
    """Re-partition the input around a separator found on a certificate."""
    alive = set(range(1, und.n + 1)) - set(middle)
    comps = components(alive, [e for e in und.edges
                               if e.tail in alive and e.head in alive],
                       undirected=True)
    if len(comps) < 2:
        return None
    comp = comps[0]
    return VertexCut(frozenset(comp), frozenset(middle),
                     frozenset(alive - comp))


def vertex_connectivity_undirected(und, rng, c=2.0):
    """Exact undirected vertex connectivity with a witness cut.

    Each doubling step sparsifies with a scan-first certificate for the
    current threshold, bidirects it, and runs the directed decision; the
    separator found on the certificate is re-partitioned on the input.
    The search and its bound are those of vertex_connectivity_directed:
    kappa is wrong with probability at most n^-c + P * n^-3.
    """
    n = und.n
    if n <= 1:
        return 0, None
    comps = undirected_components(und)
    if len(comps) > 1:
        left = comps[0]
        rest = set(range(1, n + 1)) - left
        return 0, VertexCut(frozenset(left), frozenset(), frozenset(rest))
    # a certificate for k is valid for every probe up to k, so the
    # bisection may stay on the one that found the cut
    kappa, best_cut = _kappa_search(
        n, lambda k: scan_first_certificate(und, k).to_directed(), rng, c)
    if best_cut is None:
        return kappa, None
    lifted = _lift_cutset(und, best_cut.middle)
    if lifted is not None:
        return kappa, lifted
    # certificate cut failed to lift (should not happen); recover exactly
    kappa_exact, cut = fallback_exact(und.to_directed())
    return kappa_exact, cut
