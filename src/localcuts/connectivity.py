"""Vertex connectivity via local cut detection and sampled pair flows.

For a threshold k, every vertex cut of size below k either has a side of
small symmetric volume (caught by running the local vertex-out detector
from sampled edge endpoints at geometrically shrinking volume budgets)
or both sides are voluminous (caught by max-flow between sampled edge
endpoint pairs).  Even's scheme of capped flows (`flow.even_scheme`, on
one `flow.PairCuts` per search) decides thresholds too large for
sampling exactly, and runs first on the others (below).  One
doubling plus bisection search over k finds the exact connectivity
value of directed and undirected inputs alike; undirected ones are
first sparsified with a scan-first-forest certificate.

A probe stops as soon as its own work decides the threshold.  The pair
flows are exact, and each answer with no cut grows proven-reach sets.
Once k <= n - 1 vertices have forward and backward sets at k holding
every vertex, kappa >= k is proven by Even's argument: a separator
below k misses one of them, and that vertex can be separated from no
other.  The sweep then does not run.  The sweep detects each (vertex,
orientation) once per probe: the detector's guarantee is monotone in
the budget, so a failure at budget b answers every smaller budget, and
only a success that had to be discarded is retried, at smaller budgets.

Even's scheme runs first.  A probe in sampling range runs it under a
work budget equal to the code's own upper bound on the sampled probe's
cost, in slots read: the pair step's flows plus the sweep's detection
trials.  The scheme is charged what its flows and proven-reach sets
read, as the split network counts it (`flow.Network.scans`); memo hits
and pairs its sets prove read nothing, so a later probe replays an
abandoned run for free.  A run that finishes within the budget decides
the probe exactly, and the directed search ends with its kappa; a run
that does not hands the same PairCuts to the sampled steps.

The search has one failure budget.  It probes each threshold once, at
most P = 2 ceil(log2 n) probes, and each probe samples at constant
c + log_n P, so a union bound over the probes gives: the returned kappa
is wrong with probability at most n^-c + P * max(n^-3, 2^-53), the
second term for the sweep's detections, each amplified to 1 - n^-3
(`edge_cut.high_probability`; from n = 2^18 on, where 1 - n^-3 rounds
to 1.0 in a float, the failure is floored at 2^-53, so at most 53
trials), and P counting the sampled probes only, since an exact probe
cannot err.  Neither stopping rule adds to it: a probe decided by its
flows cannot err, and a small side whose first hit vertex is skipped had
that vertex fail one amplified detection at a budget where the side
qualified.  A returned cut is always a valid witness.
"""

import dataclasses
import math

from . import edge_cut, vertex_cut
from .flow import PairCuts, VertexCut, even_scheme
from .graph import (UndirectedGraph, components, graph_sccs, reverse_graph,
                    scan_first_forests, undirected_components)


@dataclasses.dataclass
class ConnectivityVerdict:
    decision: str               # "cut_found" | "probably_at_least_k"
    k: int
    cut: VertexCut | None
    stats: dict
    # (kappa, witness) of the probed graph when Even's scheme decided the
    # probe; the witness is None iff kappa = n - 1
    exact: tuple | None = None

    @property
    def found(self):
        return self.decision == "cut_found"


def _degenerate_cut(g):
    """Witness for a non-strongly-connected graph: a sink component."""
    comps = graph_sccs(g)
    sink = comps[0]  # Tarjan emits sinks of the condensation first
    rest = set(g.vertices()) - sink
    return VertexCut(frozenset(sink), frozenset(), frozenset(rest))


def max_feasible_delta(k, m):
    """Largest delta with
    vertex_cut.component_volume_bound(k-1, delta) + k^2 < m, or 0 when
    delta = 1 fails.

    The bound is 2k(3 delta + k - 1), so the condition reads
    3 delta + k - 1 <= (m - k^2 - 1) // 2k.
    """
    return max(0, ((m - k * k - 1) // (2 * k) - (k - 1)) // 3)


def _pair_draws(g, delta_star, c):
    """t_pairs: the edge pairs the pair step draws at most."""
    return math.ceil((4.0 * g.m / delta_star) * c * math.log(g.n))


def _sampled_probe_cost(g, k, delta_star, c):
    """The code's upper bound, in slots read, on a sampled probe at k.

    The pair step runs at most 4 t_pairs flows of at most k augmenting
    searches, each over the 2(n + m) arcs of the split network, and the
    sweep at most 2n detections of repetitions_for(1 - n^-3) trials,
    each within the vertex detector's per-trial bound at delta_star.
    """
    n = g.n
    pair_step = 4 * _pair_draws(g, delta_star, c) * k * 2 * (n + g.m)
    trials = 2 * n * edge_cut.repetitions_for(edge_cut.high_probability(n))
    return pair_step + trials * vertex_cut.trial_edge_bound(k - 1,
                                                            delta_star)


def sample_pair_step(g, k, delta_star, c, rng, pairs=None):
    """Flow probes between endpoints of sampled edge pairs.

    Catches cuts below size k whose sides both have symmetric volume at
    least delta_star: sampling ceil((4m/delta_star) * c * ln n) edge
    pairs hits both sides with probability at least 1 - 1/n^c, and all
    four endpoint combinations get a capped flow run.  Results are
    memoized in `pairs` (the flow is deterministic), the PairCuts of the
    enclosing vertex_connectivity_* call, or a fresh one when omitted.

    Drawing stops early once k vertices have forward and backward
    proven-reach sets at k holding every vertex: by Even's argument
    kappa >= k is then proven, and `pairs.proves_at_least(g, k)` reports
    it.  Returns a cut or None.
    """
    n, m = g.n, g.m
    if m == 0 or n < 2:
        return None
    pairs = pairs or PairCuts()
    for _ in range(_pair_draws(g, delta_star, c)):
        e1 = rng.randrange(m)
        e2 = rng.randrange(m)
        for a in (g.tail(e1), g.head(e1)):
            for b in (g.tail(e2), g.head(e2)):
                if a == b:
                    continue
                # the two ends' sets prove adjacent pairs, among others
                pairs.proven_reach(g, a, k, False)
                pairs.proven_reach(g, b, k, True)
                cut = pairs.cut(g, a, b, k)
                if cut is not None:
                    return cut
        if pairs.proves_at_least(g, k):
            break
    return None


def local_sweep_step(g, k, delta_star, c, rng):
    """Local detection sweep over halving volume budgets.

    Level i uses budget delta_star / 2^i and samples enough edge
    endpoints to hit any component of symmetric volume above the next
    (halved) budget.  Detection runs in both edge orientations at
    success level 1 - 1/n^3; results with symmetric volume at least
    m - k^2, with nothing left outside, or that fail to validate cannot
    be a proper side and are discarded.

    Each (vertex, orientation) keeps its last detection.  The detector's
    guarantee is monotone in the budget, so a failure at budget b
    answers every budget up to b and the key is never detected again; a
    discarded success answers its own budget and is retried only at
    smaller ones.  On a graph with no small side the sweep therefore
    makes at most 2n detections.
    """
    n, m = g.n, g.m
    if m == 0 or n < 2:
        return None
    grev = reverse_graph(g)
    p = edge_cut.high_probability(n)
    kd = k - 1
    last = {}           # (vertex, orientation) -> (budget, result)
    level = 0
    while True:
        budget = delta_star >> level
        if budget < 1:
            break
        next_budget = max(delta_star / 2.0 ** (level + 1), 0.5)
        t_i = math.ceil((m / next_budget) * c * math.log(n))
        for _ in range(t_i):
            e = rng.randrange(m)
            for s in (g.tail(e), g.head(e)):
                for orient, gg in (("out", g), ("in", grev)):
                    key = (s, orient)
                    prev = last.get(key)
                    if prev is not None and (prev[0] == budget or not prev[1]):
                        continue
                    res = vertex_cut.detect_vertex_out_component(
                        gg, s, kd, budget, p, rng, symmetric=True)
                    last[key] = (budget, res)
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


def _check_confidence(c):
    if not 0 < c < math.inf:
        raise ValueError("c must be positive and finite")


def is_connectivity_at_least(g, k, rng, c=2.0, pairs=None):
    """Decide whether the directed vertex connectivity is at least k.

    Returns "cut_found" when kappa(g) < k (always correct), or
    "probably_at_least_k" otherwise (certain when the probe is exact,
    else correct with high probability).  A found verdict carries a cut of
    size below k whenever g has a vertex cut at all; `cut` is None only
    when none exists: n <= 1, or every ordered pair is adjacent while
    k > n - 1.  `pairs` carries one PairCuts across the probes of a
    search, and with it the one strong-connectivity check of each graph
    it holds.

    The sampling machinery needs k <= sqrt(m)/2 and a useful budget
    delta_star; outside that range Even's scheme (`fallback_exact`)
    decides the probe, unbudgeted.  Inside it, Even's scheme runs first
    on `pairs` under a budget of `_sampled_probe_cost` slots read, the
    code's own upper bound on the sampled probe's cost.  Either way a
    finished run makes the probe "exact": it cannot err, and `exact`
    holds kappa(g) and its witness.

    A run over budget leaves its flows and sets in `pairs`, and the
    sampled steps take over.  The pair flows run first.  When their
    answers leave k vertices with complete proven-reach sets both ways
    at k (`PairCuts.proves_at_least`), kappa >= k is certain and the
    sweep is skipped; otherwise the sweep runs, and a miss has
    probability at most n^-c + n^-3.
    """
    n, m = g.n, g.m
    stats = {"mode": None}
    if k < 1:
        raise ValueError("k must be positive")
    _check_confidence(c)
    if n <= 1:
        # single vertex (or empty) graph: connectivity 0 by convention
        stats["mode"] = "tiny"
        return ConnectivityVerdict("cut_found", k, None, stats)
    pairs = pairs or PairCuts()
    if not pairs.strongly_connected(g):
        cut = _degenerate_cut(g)
        stats["mode"] = "degenerate"
        return ConnectivityVerdict("cut_found", k, cut, stats)
    if k == 1:
        stats["mode"] = "scc"
        return ConnectivityVerdict("probably_at_least_k", k, None, stats)
    delta_star = max_feasible_delta(k, m)
    if 2 * k > math.sqrt(m) or delta_star < 1:
        exact = fallback_exact(g, pairs)
    else:
        exact = even_scheme(g, pairs,
                            _sampled_probe_cost(g, k, delta_star, c))
    if exact is not None:
        stats["mode"] = "exact"
        kappa, cut = exact
        if kappa < k:
            return ConnectivityVerdict("cut_found", k, cut, stats, exact)
        return ConnectivityVerdict("probably_at_least_k", k, None, stats,
                                   exact)
    stats["mode"] = "sampled"
    cut = sample_pair_step(g, k, delta_star, c, rng, pairs)
    if cut is None and not pairs.proves_at_least(g, k):
        cut = local_sweep_step(g, k, delta_star, c, rng)
    if cut is not None:
        assert cut.size < k and cut.validate(g)
        return ConnectivityVerdict("cut_found", k, cut, stats)
    return ConnectivityVerdict("probably_at_least_k", k, None, stats)


def fallback_exact(g, pairs=None):
    """Exact directed vertex connectivity by Even's scheme of capped flows
    (`flow.even_scheme`): (kappa, witness), the witness None when every
    ordered pair is adjacent.  Flows go through `pairs`, the PairCuts of
    the search, or a fresh one."""
    return even_scheme(g, pairs or PairCuts())


def _kappa_search(n, graph_at, rng, c, pairs, exact_ends=False):
    """Doubling search for an upper bracket, then bisection, in one loop.

    `graph_at(k)` is the graph that decides threshold k; the thresholds
    double until a probe finds a cut, and the bisection then probes the
    graph of that probe.  Each threshold is probed once: the doubling
    reaches n - 1 within ceil(log2 n) probes and the bisection halves
    [lo, hi] per probe, so there are at most P = 2 ceil(log2 n).  Every
    probe samples at constant c + log_n P, so by the union bound over the
    probes the search's sampling misses anything with probability at
    most n^-c; exact probes sample nothing and cannot err.
    With `exact_ends`, for a search whose graph_at is one graph, the
    first exact probe's kappa and witness are the answer.
    `pairs` is the PairCuts the probes share.  Returns (kappa, cut)
    with cut None iff no probe found one, i.e. kappa = n - 1.
    """
    c_probe = c + math.log(2 * math.ceil(math.log2(n)), n)
    lo, hi = 1, n - 1
    best_cut = None
    k = 2
    while lo < hi:
        # a threshold above n - 1 could be "found" with no cut to return
        assert k <= n - 1
        if best_cut is None:
            g = graph_at(k)
        verdict = is_connectivity_at_least(g, k, rng, c_probe, pairs)
        if exact_ends and verdict.exact is not None:
            return verdict.exact
        if verdict.found:
            best_cut = verdict.cut
            hi = best_cut.size
            lo = min(lo, hi)
        else:
            lo = k
        k = min(2 * k, n - 1) if best_cut is None else (lo + hi) // 2 + 1
    return lo, best_cut


def vertex_connectivity_directed(g, rng, c=2.0):
    """Exact directed vertex connectivity with a witness cut.

    Doubling search finds an upper bracket, bisection pins the value,
    probing each threshold once.  Each probe runs Even's scheme first,
    within the cost bound of its sampled steps; the first probe whose
    run finishes has computed kappa of g exactly, and its kappa and
    witness end the search.  A returned cut is always valid; the
    returned kappa is wrong with probability at most n^-c + P * n^-3,
    P <= 2 ceil(log2 n) the number of sampled probes: sampling misses
    with probability at most n^-c over the whole search, and each
    sampled probe loses a hit side to detection with probability at
    most n^-3.  Returns (kappa, cut) where cut is None iff
    kappa == n - 1 (or n <= 1).
    """
    _check_confidence(c)
    n = g.n
    if n <= 1:
        return 0, None
    pairs = PairCuts()
    if not pairs.strongly_connected(g):
        return 0, _degenerate_cut(g)
    return _kappa_search(n, lambda k: g, rng, c, pairs, exact_ends=True)


def scan_first_certificate(und, k):
    """Union of k scan-first forests (`scan_first_forests`) of the simple
    graph underneath: no loops, the first edge of each endpoint pair.

    Removing any vertex set of size below k disconnects the certificate
    iff it disconnects the input.  A parallel copy adds no vertex
    connectivity, and on a multigraph the forests would spend rounds on
    copies: the union could fall below min(kappa, k).
    """
    tail, head = und.endpoints()
    firsts = {}
    for i, pair in enumerate(und.pairs()):
        firsts.setdefault(frozenset(pair), i)
    kept = scan_first_forests(tail, head, list(firsts.values()), k)
    return UndirectedGraph(und.n, [(tail[i], head[i]) for i in kept])


def _lift_cutset(und, middle):
    """Re-partition the input around a separator found on a certificate."""
    alive = set(range(1, und.n + 1)) - set(middle)
    comps = components(alive, [(t, h) for t, h in und.pairs()
                               if t in alive and h in alive],
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
    _check_confidence(c)
    n = und.n
    if n <= 1:
        return 0, None
    comps = undirected_components(und)
    if len(comps) > 1:
        left = comps[0]
        rest = set(range(1, n + 1)) - left
        return 0, VertexCut(frozenset(left), frozenset(), frozenset(rest))
    pairs = PairCuts()

    def certificate(k):
        # the first scan-first forest spans the connected input, so the
        # bidirected certificate is strongly connected without a check
        cert = scan_first_certificate(und, k).to_directed()
        pairs.hold(cert, strong=True)
        return cert

    # a certificate for k is valid for every probe up to k, so the
    # bisection may stay on the one that found the cut
    kappa, best_cut = _kappa_search(n, certificate, rng, c, pairs)
    if best_cut is None:
        return kappa, None
    lifted = _lift_cutset(und, best_cut.middle)
    if lifted is not None:
        return kappa, lifted
    # runs only if a certificate lost connectivity below its k; recover
    # exactly
    kappa_exact, cut = fallback_exact(und.to_directed())
    return kappa_exact, cut
