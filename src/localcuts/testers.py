"""One-sided property testers for k-edge- and k-vertex-connectivity.

A graph that is far from k-connected contains many small components
with few leaving edges (or few boundary vertices), so sampling start
vertices and running the local detectors at doubling size budgets finds
a witness with constant probability.  Rejection always ships a witness
that has been re-validated against the graph, so k-connected inputs are
never rejected.

Query accounting: a detector round is charged the queries the detector
made.  A decision on a graph small enough for its budget reads the whole
graph instead, is charged m, and decides every vertex in both
orientations at once with one global cut search capped at k: the root
flows of `flow.global_edge_cut_below` for edges, Even's scheme
(`flow.even_scheme`) with its best value starting at min(k, n - 1) for
vertices.  A side with few leaving edges or out-neighbours in the
reverse graph is the far side of a cut in g, so the search needs no
second orientation, and the first such read ends the call: it accepts
when the search finds no cut below k, and otherwise rejects with the
cut's side as the witness, in the "out" orientation.  A call is charged
its detector rounds and then m at most once.
"""

import dataclasses
import math

from . import edge_cut, flow, vertex_cut
from .graph import reverse_graph


@dataclasses.dataclass(frozen=True)
class TesterConfig:
    k: int
    epsilon: float
    model: str          # "unbounded" or "bounded"
    degree: float       # average degree m/n (unbounded) or degree bound d
    n: int
    m: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.model not in ("unbounded", "bounded"):
            raise ValueError("model must be 'unbounded' or 'bounded'")
        if not 0 < self.degree < math.inf:
            raise ValueError("degree must be positive and finite")


@dataclasses.dataclass
class TesterVerdict:
    accepted: bool
    witness: object = None          # ComponentResult / VertexComponentResult
    witness_orientation: str = ""   # "out" or "in"
    queries_used: int = 0
    samples_used: int = 0


# The bounded-degree analysis loses a constant factor when translating
# distance between the models; shrinking epsilon by 13 internally makes
# the unbounded-style argument go through.
BOUNDED_EPSILON_SHRINK = 13.0

# Sampling constant for the doubling schedule.  With N >= eps*m/(2k)
# small components spread over R rounds, the round owning the largest
# share holds components of at least 2^(i-1) vertices each, so samples
# hit one with probability >= 2^(i-1) * N / (R n).  The constant covers
# the round split (R <= log term), the 5/6 local success rate, and a
# 1/6 total miss target; c_s = 6 satisfies this for every family we can
# certify and is frozen here.
SAMPLE_CONSTANT = 6.0


def doubling_schedule(k, epsilon, density):
    """Rounds of (component size budget, sample count).

    Round i targets components of up to 2^i - 1 vertices; sample counts
    shrink geometrically since larger components are hit more easily.
    """
    ratio = 2.0 * k / (epsilon * density)
    rounds = max(1, math.ceil(math.log2(max(2.0, ratio))))
    logterm = max(1.0, math.log(max(math.e, k / (epsilon * density))))
    schedule = []
    for i in range(1, rounds + 1):
        gamma = 2 ** i - 1
        count = math.ceil(SAMPLE_CONSTANT * k * logterm
                          / (2 ** i * epsilon * density))
        schedule.append((gamma, max(1, count)))
    return schedule


def _effective(cfg):
    if cfg.model == "bounded":
        return cfg.epsilon / BOUNDED_EPSILON_SHRINK, cfg.degree
    return cfg.epsilon, cfg.degree


def _edge_budget(k, gamma, cfg):
    """Edge budget delta of an edge decision at component size gamma."""
    if cfg.model == "bounded":
        return max(1, math.ceil(gamma * cfg.degree))
    return max(1, gamma * gamma)


def _vertex_budget(k, gamma, cfg):
    """Volume budget delta of a vertex decision at component size gamma."""
    if cfg.model == "bounded":
        return max(1, math.ceil(gamma * cfg.degree))
    return max(1, 2 * gamma * gamma * k)


def _reads_whole(g, k, delta):
    """Whether a decision at budget delta reads all of g: its detector
    rounds alone could process every edge."""
    return g.m <= edge_cut.round_budget(k, delta)


def _whole_edge(g, k):
    """(yes, witness): a proper side of g with fewer than k leaving edges,
    from one global cut search (`flow.global_edge_cut_below`).  Draws no
    randomness."""
    cut = flow.global_edge_cut_below(g, k)
    if cut is None:
        return False, None
    return True, edge_cut.ComponentResult(
        cut.side, cut.cut_edges, edge_cut.internal_edge_count(g, cut.side),
        g.m, 1, g.m)


def _whole_vertex(g, k):
    """(yes, witness): a proper side of g whose out-neighbours outside it
    are fewer than k, from Even's scheme with its best value starting at
    min(k, n - 1) (`flow.even_scheme`).  Draws no randomness."""
    _, cut = flow.even_scheme(g, flow.PairCuts(), below=k)
    if cut is None:
        return False, None
    return True, vertex_cut.VertexComponentResult(
        cut.left, cut.middle, vertex_cut.volume(g, cut.left),
        vertex_cut.symmetric_volume(g, cut.left), g.m, 1, g.m)


def local_decision_edge(g, s, k, gamma, cfg, rng):
    """Is s in a proper (k-1)-edge-out component of about gamma vertices?

    Returns (yes, witness, queries).  The local detector runs at success
    level 5/6 and is charged the queries it made.  A Yes answer always
    comes with a component that has at most k-1 leaving edges and is a
    proper vertex subset.

    A graph small enough for the budget is read whole instead, charged
    g.m, and decided for every vertex at once: Yes iff some proper side
    has fewer than k leaving edges, with that side, which need not hold
    s, as the witness.  Its complement has fewer than k entering edges,
    so the read answers the reverse graph too.
    """
    delta = _edge_budget(k, gamma, cfg)
    if _reads_whole(g, k, delta):
        return (*_whole_edge(g, k), g.m)
    res = edge_cut.detect_component_param(g, s, k - 1, delta, 5.0 / 6.0, rng)
    if res and len(res.members) < g.n:
        return True, res, res.queries_used
    return False, None, res.queries_used


def local_decision_vertex(g, s, k, gamma, cfg, rng):
    """Vertex analogue; budgets track volume instead of edge size.

    A whole-graph read is charged g.m and answers for every vertex as in
    `local_decision_edge`: Yes iff fewer than k vertices separate some
    proper side from the rest, with that side as the witness.  The far
    side of that separator is a side in the reverse graph, so here too
    the read answers both orientations.
    """
    delta = _vertex_budget(k, gamma, cfg)
    if _reads_whole(g, k, delta):
        return (*_whole_vertex(g, k), g.m)
    res = vertex_cut.detect_vertex_out_component(g, s, k - 1, delta,
                                                 5.0 / 6.0, rng)
    if res and len(res.members | res.boundary) < g.n:
        return True, res, res.queries_used
    return False, None, res.queries_used


def _singleton_edge(g, v):
    return edge_cut.ComponentResult(
        frozenset([v]), tuple(edge_cut.out_edge_ids(g, {v})),
        edge_cut.internal_edge_count(g, {v}), 2, 1, 0)


def _singleton_vertex(g, v):
    return vertex_cut.VertexComponentResult(
        frozenset([v]), frozenset(vertex_cut.boundary_of(g, {v})),
        vertex_cut.volume(g, {v}), vertex_cut.symmetric_volume(g, {v}),
        2, 1, 0)


def _validated_edge_witness(g, members, k):
    return (members and len(members) < g.n
            and edge_cut.verify_k_edge_out(g, members, k - 1))


def _validated_vertex_witness(g, members, boundary, k):
    return (members and len(members | boundary) < g.n
            and vertex_cut.verify_vertex_out(g, members, k - 1))


def _run_tester(g, cfg, rng, decide, budget, validate, singleton):
    # fewer than two vertices leave no proper side to reject with
    if g.n < 2:
        return TesterVerdict(True)
    eps, density = _effective(cfg)
    queries = 0
    samples = 0
    # when k is small relative to eps*density, far graphs force every
    # vertex into a degree-deficient singleton; two probes decide, unless
    # the singleton is no proper vertex side (n <= k), which the sampled
    # rounds below then decide
    if cfg.k <= eps * density / 2.0:
        from .graph import CountedView
        view = CountedView(g)
        out_ok = view.query_out_edge(1, cfg.k) is not None
        in_ok = view.query_in_edge(1, cfg.k) is not None
        queries += view.query_count
        if out_ok and in_ok:
            return TesterVerdict(True, queries_used=queries)
        orient, gg = ("out", g) if not out_ok else ("in", reverse_graph(g))
        witness = singleton(gg, 1)
        if validate(gg, witness):
            return TesterVerdict(False, witness, orient, queries, samples)
    grev = reverse_graph(g)
    for gamma, count in doubling_schedule(cfg.k, eps, density):
        # the first decision that reads g whole answers for every vertex
        # in both orientations, so it ends the call
        whole = _reads_whole(g, cfg.k, budget(cfg.k, gamma, cfg))
        for _ in range(count):
            s = rng.randint(1, g.n)
            samples += 1
            for orient, gg in (("out", g), ("in", grev)):
                yes, witness, q = decide(gg, s, cfg.k, gamma, cfg, rng)
                queries += q
                if yes and validate(gg, witness):
                    return TesterVerdict(False, witness, orient,
                                         queries, samples)
                if whole:
                    return TesterVerdict(True, queries_used=queries,
                                         samples_used=samples)
    return TesterVerdict(True, queries_used=queries, samples_used=samples)


def test_k_edge_connectivity(g, cfg, rng):
    """One-sided tester: Accept all k-edge-connected graphs, reject
    graphs epsilon-far from k-edge-connected with probability >= 2/3."""
    return _run_tester(
        g, cfg, rng, local_decision_edge, _edge_budget,
        lambda gg, w: _validated_edge_witness(gg, w.members, cfg.k),
        _singleton_edge)


def test_k_vertex_connectivity(g, cfg, rng):
    """One-sided tester for k-vertex-connectivity."""
    return _run_tester(
        g, cfg, rng, local_decision_vertex, _vertex_budget,
        lambda gg, w: _validated_vertex_witness(gg, w.members, w.boundary,
                                                cfg.k),
        _singleton_vertex)
