"""End-to-end acceptance checks.

Each test freezes one advertised guarantee of the library: exact query
budgets, detection success floors, soundness and minimality of returned
components, split-graph correspondences, exactness of the connectivity
and decomposition drivers, tester one-sidedness and rejection power, and
experiment determinism.  Tolerances for randomized floors are stated
inline next to the assertion.
"""

import json
import math
import random
from itertools import combinations

from localcuts.graph import Graph, UndirectedGraph, reverse_graph
from localcuts import testers
from localcuts.edge_cut import (
    detect_component, verify_k_edge_out, internal_edge_count,
)
from localcuts.vertex_cut import (
    SplitGraph, detect_vertex_out_component, verify_vertex_out,
    volume, symmetric_volume, boundary_of,
)
from localcuts.connectivity import (
    max_feasible_delta, sample_pair_step, vertex_connectivity_directed,
    vertex_connectivity_undirected,
)
from localcuts.mkecs import (
    baseline_mkecs, baseline_mkecs_undirected, mkecs_directed,
    mkecs_undirected, sparse_certificate,
)
from localcuts.generators import (
    random_digraph, planted_edge_component, planted_separator,
    clique_union, cycle_union, figure_shape, farness_lower_bound,
    _random_scc_edges,
)
from localcuts.oracles import (
    oracle_is_minimal_component, oracle_vertex_connectivity,
    oracle_undirected_vertex_connectivity,
)
from localcuts.testers import TesterConfig as Config
from localcuts.experiment import run_experiment, deterministic_view


def bidirected_clique(n):
    return Graph(n, [(a, b) for a in range(1, n + 1)
                     for b in range(1, n + 1) if a != b])


def random_undirected(rng, n_max, density=3):
    n = rng.randint(2, n_max)
    pairs = set()
    for _ in range(rng.randint(1, density * n)):
        a, b = rng.sample(range(1, n + 1), 2)
        pairs.add((min(a, b), max(a, b)))
    return UndirectedGraph(n, sorted(pairs))


def test_query_budget_is_never_exceeded():
    # every single call processes at most 2k^2(delta+k) + delta + 1 edges
    rng = random.Random(1001)
    calls = 0
    while calls < 10_000:
        n = rng.randint(2, 20)
        g, _ = random_digraph(n, rng.randint(1, 4 * n), rng)
        s = rng.randint(1, n)
        for k in (0, 1, 2, 3):
            for delta in (2, 6, 16):
                res = detect_component(g, s, k, delta, rng)
                calls += 1
                bound = 2 * k * k * (delta + k) + delta + 1
                assert res.edges_processed <= bound, \
                    "budget exceeded at k=%d delta=%d" % (k, delta)


def test_detection_success_floor_on_planted_grid():
    # with a qualifying component present the nonempty-return rate is at
    # least one half; allow three binomial sigmas below it
    trials = 2000
    sigma = math.sqrt(0.25 / trials)
    floor = 0.5 - 3 * sigma
    for k in (1, 2, 3):
        for delta in (4, 8, 16):
            blob = 4 * 2 * k * (delta + k) + 60
            hits = 0
            for t in range(trials):
                rng = random.Random("%d:%d:%d" % (k, delta, t))
                g, cert = planted_edge_component(delta, k, blob, rng)
                if detect_component(g, 1, k, delta, rng):
                    hits += 1
            assert hits / trials >= floor, \
                "rate %.3f below floor at k=%d delta=%d" \
                % (hits / trials, k, delta)


def test_soundness_holds_for_every_nonempty_return():
    rng = random.Random(2002)
    edge_checked = vertex_checked = 0
    for _ in range(600):
        n = rng.randint(2, 14)
        g, _ = random_digraph(n, rng.randint(1, 3 * n), rng)
        s = rng.randint(1, n)
        k = rng.randint(0, 3)
        delta = rng.randint(1, 12)
        res = detect_component(g, s, k, delta, rng)
        if res:
            edge_checked += 1
            assert s in res.members
            assert verify_k_edge_out(g, res.members, k)
            assert res.edge_size <= max(2 * k * (delta + k), delta)
            assert res.edge_size == internal_edge_count(g, res.members)
        vres = detect_vertex_out_component(g, s, k, delta, 0.75, rng)
        if vres:
            vertex_checked += 1
            assert s in vres.members
            assert verify_vertex_out(g, vres.members, k)
            assert vres.boundary == boundary_of(g, vres.members)
    assert edge_checked > 50 and vertex_checked > 50


def test_every_detection_is_minimal():
    rng = random.Random(3003)
    graphs = 0
    confirmed = 0
    while graphs < 500:
        n = rng.randint(2, 9)
        g, _ = random_digraph(n, rng.randint(1, 3 * n), rng)
        graphs += 1
        s = rng.randint(1, n)
        for k in (0, 1, 2):
            res = detect_component(g, s, k, rng.randint(1, 10), rng)
            if res:
                confirmed += 1
                cut = len(res.out_edges)
                assert oracle_is_minimal_component(g, s, res.members, cut)
    assert confirmed > 200


def _split_vertices(sv):
    return [v for v in range(1, 2 * sv.base.n + 1) if sv.has_vertex(v)]


def _split_edges(sv):
    return [sv.edge(eid) for u in _split_vertices(sv)
            for eid in sv.out_ids(u)]


def _out_count(edges, members):
    return sum(1 for e in edges if e.tail in members
               and e.head not in members)


def _vol(edges, members):
    return sum(1 for e in edges if e.tail in members)


def _vol_prime(sv, edges, members):
    # tail-side volume plus edges entering the interior, where in-copies
    # whose out-copy lies outside do not count as interior
    interior = set(members)
    n = sv.base.n
    for v in members:
        if v > n and v - n not in members:
            interior.discard(v)
    entering = sum(1 for e in edges
                   if e.tail not in members and e.head in interior)
    return _vol(edges, members) + entering


def test_split_graph_correspondence_by_enumeration():
    # the split construction translates vertex components to edge
    # components with at most threefold volume, and minimal edge
    # components back to vertex components without volume loss
    # strongly connected corpus: the threefold volume bound charges each
    # member vertex to an incident edge, so isolated vertices are out
    rng = random.Random(4004)
    instances = 0
    while instances < 300:
        n = rng.randint(2, 6)
        g = Graph.from_endpoints(n, *_random_scc_edges(
            range(1, n + 1), rng.randint(0, 2 * n), rng))
        instances += 1
        s = rng.randint(1, n)
        sv = SplitGraph(g, s)
        verts = _split_vertices(sv)
        edges = _split_edges(sv)
        others = [v for v in range(1, n + 1) if v != s]

        def in_copy(v):
            return v if v == s else n + v

        # forward direction: every vertex set containing s maps over
        for r in range(0, n):
            for extra in combinations(others, r):
                comp = set((s,) + extra)
                bnd = boundary_of(g, comp)
                image = ({v for v in comp}
                         | {in_copy(v) for v in comp}
                         | {in_copy(v) for v in bnd if v != s})
                assert _out_count(edges, image) <= len(bnd)
                assert _vol(edges, image) <= 3 * volume(g, comp)
                assert _vol_prime(sv, edges, image) \
                    <= 3 * symmetric_volume(g, comp)

        # backward direction: minimal edge components project down
        split_others = [v for v in verts if v != s]
        candidates = []
        for r in range(0, len(split_others) + 1):
            for extra in combinations(split_others, r):
                members = frozenset((s,) + extra)
                cut = _out_count(edges, members)
                if cut <= 2:
                    candidates.append((members, cut))
        for members, cut in candidates:
            dominated = any(o < members and oc <= cut
                            for o, oc in candidates if o != members)
            if dominated:
                continue
            comp = {v for v in members if sv.is_out_copy(v)}
            assert len(boundary_of(g, comp)) <= cut
            assert symmetric_volume(g, comp) \
                <= _vol_prime(sv, edges, members)


def test_vertex_connectivity_matches_oracle():
    rng = random.Random(5005)
    for _ in range(200):
        n = rng.randint(2, 30)
        g = Graph.from_endpoints(n, *_random_scc_edges(
            range(1, n + 1), rng.randint(0, 2 * n), rng))
        kappa, cut = vertex_connectivity_directed(g, rng)
        assert kappa == oracle_vertex_connectivity(g)
        if cut is not None:
            assert cut.size == kappa and cut.validate(g)
        else:
            assert kappa == n - 1
    for _ in range(200):
        und = random_undirected(rng, 30)
        kappa, cut = vertex_connectivity_undirected(und, rng)
        assert kappa == oracle_undirected_vertex_connectivity(und)
        if cut is not None:
            assert cut.size == kappa and cut.validate(und.to_directed())
        else:
            assert kappa == und.n - 1


def test_pair_sampling_hit_rate_on_large_sided_cuts():
    # both sides of the planted separator are large, so sampled edge
    # pairs straddle it almost surely even at confidence c = 1
    g, cert = planted_separator(9, 9, 2, random.Random(6006))
    n = g.n
    k = len(cert["middle"]) + 1
    delta_star = max_feasible_delta(k, g.m)
    assert delta_star >= 1
    trials = 500
    hits = 0
    for t in range(trials):
        cut = sample_pair_step(g, k, delta_star, 1.0, random.Random(t))
        if cut is not None:
            assert cut.size < k and cut.validate(g)
            hits += 1
    assert hits >= math.ceil((1 - 1 / n) * trials)


def test_decomposition_equals_baseline_everywhere():
    rng = random.Random(7007)
    for _ in range(75):
        n = rng.randint(2, 25)
        g, _ = random_digraph(n, rng.randint(1, 3 * n), rng)
        for k in (2, 3, 4):
            expected = baseline_mkecs(g, k)
            for seed in range(5):
                got = mkecs_directed(g, k, random.Random(seed))
                assert got == expected
    for _ in range(75):
        und = random_undirected(rng, 25)
        for k in (2, 3, 4):
            expected = baseline_mkecs_undirected(und, k)
            for seed in range(5):
                got = mkecs_undirected(und, k, random.Random(seed))
                assert got == expected


def test_figure_graph_regression():
    und, meta = figure_shape()
    # the shipped decomposition recovers the 4-clique core exactly
    dec = mkecs_undirected(und, 3, random.Random(0))
    classes = dec.as_sorted()
    assert tuple(sorted(meta["core"])) in classes
    assert sum(1 for c in classes if len(c) == 1) == 3
    # decomposing the sparse certificate alone loses a class: here the
    # class {2, ..., 6}, whose certificate drops the edge (4, 6)
    thinned = UndirectedGraph(6, [(3, 6), (1, 5), (4, 5), (2, 6), (1, 6),
                                  (3, 4), (2, 4), (2, 5), (3, 5), (2, 3),
                                  (4, 6)])
    assert (2, 3, 4, 5, 6) in mkecs_undirected(
        thinned, 3, random.Random(0)).as_sorted()
    cert = sparse_certificate(thinned, 3)
    naive = baseline_mkecs_undirected(cert, 3)
    assert all(len(c) < 5 for c in naive.as_sorted())
    # yet the certificate preserves every cut value up to k on small graphs
    rng = random.Random(8008)
    for _ in range(40):
        u2 = random_undirected(rng, 7)
        for k in (1, 2, 3):
            c2 = sparse_certificate(u2, k)
            base_pairs = [(e.tail, e.head) for e in u2.edges]
            cert_pairs = [(e.tail, e.head) for e in c2.edges]
            for r in range(1, u2.n):
                for side in combinations(range(1, u2.n + 1), r):
                    sset = set(side)
                    full = sum(1 for (a, b) in base_pairs
                               if (a in sset) != (b in sset))
                    kept = sum(1 for (a, b) in cert_pairs
                               if (a in sset) != (b in sset))
                    assert min(full, k) == min(kept, k)


def test_testers_never_reject_connected_graphs():
    # one-sidedness: k-connected inputs survive 500 trials per cell
    for k in (2, 3):
        g = bidirected_clique(k + 2)
        for model in ("unbounded", "bounded"):
            degree = g.m / g.n if model == "unbounded" else float(g.n - 1)
            cfg = Config(k=k, epsilon=0.3, model=model, degree=degree,
                         n=g.n, m=g.m)
            for run in (testers.test_k_edge_connectivity,
                        testers.test_k_vertex_connectivity):
                for seed in range(500):
                    verdict = run(g, cfg, random.Random(seed))
                    assert verdict.accepted, \
                        "%s rejected a %d-connected graph" \
                        % (run.__name__, k)


def test_testers_reject_certifiably_far_families():
    trials = 500
    cells = []
    # many directed 3-cycles: epsilon-far from 2-edge-connected
    g, _ = cycle_union(12, 3)
    dbar = g.m / g.n
    assert farness_lower_bound(g, 2) > 0.5 * g.n * dbar
    cells.append((testers.test_k_edge_connectivity, g,
                  Config(2, 0.5, "unbounded", dbar, g.n, g.m)))
    # disjoint 4-cliques: epsilon-far from 3-vertex-connected
    und, _ = clique_union(10, 4)
    gd = und.to_directed()
    dbar = gd.m / gd.n
    assert farness_lower_bound(gd, 3) > 0.2 * gd.n * dbar
    cells.append((testers.test_k_vertex_connectivity, gd,
                  Config(3, 0.2, "unbounded", dbar, gd.n, gd.m)))
    for run, graph, cfg in cells:
        rejects = 0
        for seed in range(trials):
            verdict = run(graph, cfg, random.Random(seed))
            if not verdict.accepted:
                rejects += 1
                w = verdict.witness
                gg = graph if verdict.witness_orientation == "out" \
                    else reverse_graph(graph)
                if hasattr(w, "boundary"):
                    assert verify_vertex_out(gg, w.members, cfg.k - 1)
                    assert len(w.members | w.boundary) < graph.n
                else:
                    assert verify_k_edge_out(gg, w.members, cfg.k - 1)
                    assert len(w.members) < graph.n
        assert rejects / trials >= 2 / 3, \
            "%s rejected only %d/%d" % (run.__name__, rejects, trials)


def test_experiments_are_reproducible():
    config = {
        "experiment": "detect_edge",
        "seed": 424242,
        "trials": 60,
        "instance": {"family": "planted_edge_component",
                     "params": {"component_size": 5, "k": 2,
                                "blob_edges": 80}},
        "task": {"k": 2, "delta": 8},
        "start": 1,
    }
    first = deterministic_view(run_experiment(config))
    second = deterministic_view(run_experiment(config))
    assert json.dumps(first, sort_keys=True) \
        == json.dumps(second, sort_keys=True)
    vconfig = dict(config, experiment="detect_vertex",
                   task={"k": 2, "delta": 8, "p": 0.9})
    assert deterministic_view(run_experiment(vconfig)) \
        == deterministic_view(run_experiment(vconfig))
