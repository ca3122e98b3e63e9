"""One-sided property testers for k-edge- and k-vertex-connectivity.

A graph that is far from k-connected contains many small components
with few leaving edges (or few boundary vertices), so sampling start
vertices and running the local detectors at doubling size budgets finds
a witness with constant probability.  Rejection always ships a witness
that has been re-validated against the graph, so k-connected inputs are
never rejected.

Query accounting: a decision on a graph small enough for its budget
reads the whole graph and decides exactly by capped flows.  Within one
tester call, the first such read is charged m and later ones nothing,
since the reverse graph has the same edges; each (orientation, vertex)
pair is decided exactly at most once, on the one flow network the call
builds for that orientation; and once both orientations of
every vertex are decided and none is a Yes, the call accepts at once.
Detector rounds are charged the queries the detector made.
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


class _CallReads(dict):
    """The whole-graph reads of one tester call.

    Maps (orientation, vertex) to its exact decision, and keeps in
    `nets` the flow network of each orientation read so far, so every
    exact decision of the call in one orientation shares one network.
    """

    __slots__ = ("nets",)

    def __init__(self):
        super().__init__()
        self.nets = {}


def _edge_network(g):
    return flow.edge_flow_network(g.n, g.edges)


def _exact_edge(g, s, k, net):
    """(yes, witness): is s in a proper (k-1)-edge-out component of g?

    True iff some other vertex is separated from s by fewer than k
    edges; decided by capped flows from s on `net`, g's edge network,
    skipping those s's proven-reach set (`flow.ProvenReach`) already
    answers.  Draws no randomness.
    """
    proven = flow.ProvenReach(net, s, k)
    for t in g.vertices():
        if t in proven:
            continue
        res = flow.st_edge_cut_below(g.n, g.edges, s, t, k, net)
        if res is not None:
            side, cut = res
            return True, edge_cut.ComponentResult(
                frozenset(side), tuple(cut),
                edge_cut.internal_edge_count(g, side), g.m, 1, g.m)
        proven.add(t)
    return False, None


def _exact_vertex(g, s, k, net):
    """(yes, witness): does a set of fewer than k vertices separate some
    t not adjacent from s, with s on the near side?  Decided by capped
    flows on `net`, g's vertex-split network, skipping those s's
    proven-reach set (`flow.ProvenReach`) already answers: it holds
    every t adjacent from s.  Draws no randomness.
    """
    proven = flow.ProvenReach(net, s, k, split=True)
    for t in g.vertices():
        if t in proven:
            continue
        res = flow.st_vertex_cut_at_most(g, s, t, k, net)
        if res is None:
            proven.add(t)
            continue
        left, middle, _ = res
        return True, vertex_cut.VertexComponentResult(
            frozenset(left), frozenset(middle),
            vertex_cut.volume(g, left),
            vertex_cut.symmetric_volume(g, left), g.m, 1, g.m)
    return False, None


def _read_whole(exact, network, g, s, k, reads):
    """Exact decision of s on g with its query charge.

    `reads` is the call's (table, orientation of g); a call without one
    gets a fresh table.  The first read into a table costs g.m, and each
    (orientation, s) in it is decided at most once.  A _CallReads table
    builds g's network by `network(g)` once per orientation; any other
    table gets one per decision.
    """
    table, orient = reads if reads is not None else ({}, None)
    charge = 0 if table else g.m
    key = (orient, s)
    if key not in table:
        nets = getattr(table, "nets", {})
        if orient not in nets:
            nets[orient] = network(g)
        table[key] = exact(g, s, k, nets[orient])
    yes, witness = table[key]
    return yes, witness, charge


def local_decision_edge(g, s, k, gamma, cfg, rng, reads=None):
    """Is s in a proper (k-1)-edge-out component of about gamma vertices?

    Returns (yes, witness, queries).  Small graphs are read whole and
    decided exactly by capped flows; otherwise the local detector runs
    at success level 5/6.  A Yes answer always comes with a component
    that has at most k-1 leaving edges and is a proper vertex subset.

    A whole-graph read is charged g.m.  `reads` is the tester call's
    (table, orientation) pair: the table records exact decisions keyed
    by (orientation, vertex), and the orientation names the one g is in.
    With it, only the call's first read is charged and an entry already
    decided is returned as recorded; a _CallReads table also lends every
    decision in one orientation the same flow network.
    """
    kd = k - 1
    if cfg.model == "bounded":
        delta = max(1, math.ceil(gamma * cfg.degree))
    else:
        delta = max(1, gamma * gamma)
    if g.m <= edge_cut.round_budget(k, delta):
        return _read_whole(_exact_edge, _edge_network, g, s, k, reads)
    res = edge_cut.detect_component_param(g, s, kd, delta, 5.0 / 6.0, rng)
    if res and len(res.members) < g.n:
        return True, res, res.queries_used
    return False, None, res.queries_used


def local_decision_vertex(g, s, k, gamma, cfg, rng, reads=None):
    """Vertex analogue; budgets track volume instead of edge size.

    Whole-graph reads are charged and recorded through `reads` as in
    `local_decision_edge`.
    """
    kd = k - 1
    if cfg.model == "bounded":
        delta = max(1, math.ceil(gamma * cfg.degree))
    else:
        delta = max(1, 2 * gamma * gamma * k)
    if g.m <= edge_cut.round_budget(k, delta):
        return _read_whole(_exact_vertex, flow.vertex_split_network, g, s,
                           k, reads)
    res = vertex_cut.detect_vertex_out_component(g, s, kd, delta,
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


def _run_tester(g, cfg, rng, decide, validate, singleton):
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
    table = _CallReads()
    for gamma, count in doubling_schedule(cfg.k, eps, density):
        for _ in range(count):
            s = rng.randint(1, g.n)
            samples += 1
            for orient, gg in (("out", g), ("in", grev)):
                yes, witness, q = decide(gg, s, cfg.k, gamma, cfg, rng,
                                         (table, orient))
                queries += q
                if yes and validate(gg, witness):
                    return TesterVerdict(False, witness, orient,
                                         queries, samples)
            # budgets only grow with gamma, so every later decision is
            # exact and read from the table: a full table with no Yes
            # leaves nothing that can reject
            if len(table) == 2 * g.n and not any(
                    yes for yes, _ in table.values()):
                return TesterVerdict(True, queries_used=queries,
                                     samples_used=samples)
    return TesterVerdict(True, queries_used=queries, samples_used=samples)


def test_k_edge_connectivity(g, cfg, rng):
    """One-sided tester: Accept all k-edge-connected graphs, reject
    graphs epsilon-far from k-edge-connected with probability >= 2/3."""
    return _run_tester(
        g, cfg, rng, local_decision_edge,
        lambda gg, w: _validated_edge_witness(gg, w.members, cfg.k),
        _singleton_edge)


def test_k_vertex_connectivity(g, cfg, rng):
    """One-sided tester for k-vertex-connectivity."""
    return _run_tester(
        g, cfg, rng, local_decision_vertex,
        lambda gg, w: _validated_vertex_witness(gg, w.members, w.boundary,
                                                cfg.k),
        _singleton_vertex)
