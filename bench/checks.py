"""Output checks for every library function the benchmark calls.

Each check returns None for a correct result and a one-line description
of the first problem otherwise.  Derived fields of a result (leaving
edges, boundary, volumes) are recomputed from its members, so a result
whose members were altered after the fact is caught.
"""

from localcuts.edge_cut import internal_edge_count, out_edge_ids
from localcuts.edge_cut import repetitions_for, verify_k_edge_out
from localcuts.graph import reverse_graph
from localcuts.vertex_cut import (boundary_of, component_volume_bound,
                                  verify_vertex_out)


def trial_budget(k, delta):
    """Edges one detection trial may process: 2k^2(delta+k) + delta + 1."""
    return 2 * k * k * (delta + k) + delta + 1


def _budget_problem(res, k, delta, p):
    if res.trials_used < 1 or res.trials_used > repetitions_for(p):
        return "trials_used %d outside 1..%d" % (res.trials_used,
                                                  repetitions_for(p))
    if not res and res.trials_used != repetitions_for(p):
        return "empty result after %d of %d trials" % (res.trials_used,
                                                       repetitions_for(p))
    if res.edges_processed > res.trials_used * trial_budget(k, delta):
        return "processed %d edges in %d trials, budget %d per trial" % (
            res.edges_processed, res.trials_used, trial_budget(k, delta))
    return None


def check_edge_component(g, s, k, delta, p, res):
    """Result of detect_component_param(g, s, k, delta, p, rng)."""
    problem = _budget_problem(res, k, delta, p)
    if problem or not res:
        return problem
    members = res.members
    if s not in members:
        return "start vertex not in the component"
    if not verify_k_edge_out(g, members, k):
        return "more than %d edges leave the component" % k
    if sorted(res.out_edges) != sorted(out_edge_ids(g, members)):
        return "out_edges do not match the members"
    if res.edge_size != internal_edge_count(g, members):
        return "edge_size does not match the members"
    if res.edge_size > max(2 * k * (delta + k), delta):
        return "edge size %d above the detector bound" % res.edge_size
    return None


def _symmetric_volume(g, members):
    """Edges with an endpoint in members, from degrees: O(volume)."""
    deg = sum(g.out_degree(v) + g.in_degree(v) for v in members)
    return deg - internal_edge_count(g, members)


def check_vertex_component(g, s, k, delta, p, res):
    """Result of detect_vertex_out_component(g, s, k, delta, p, rng,
    symmetric=True); one split-graph trial runs at volume budget 3*delta."""
    problem = _budget_problem(res, k, 3 * delta, p)
    if problem or not res:
        return problem
    members = res.members
    if s not in members:
        return "start vertex not in the component"
    if not verify_vertex_out(g, members, k):
        return "more than %d boundary vertices" % k
    if res.boundary != boundary_of(g, members):
        return "boundary does not match the members"
    if res.volume != sum(g.out_degree(v) for v in members):
        return "volume does not match the members"
    if res.symmetric_volume != _symmetric_volume(g, members):
        return "symmetric_volume does not match the members"
    if res.symmetric_volume > component_volume_bound(k, delta):
        return "symmetric volume %d above the detector bound" % (
            res.symmetric_volume)
    return None


def check_connectivity(g, kappa_ref, kappa, cut):
    """(kappa, cut) from vertex_connectivity_*; g is the directed graph
    the cut must separate (the antiparallel encoding when undirected)."""
    if kappa != kappa_ref:
        return "kappa %d, reference %d" % (kappa, kappa_ref)
    if cut is None:
        return None if kappa == g.n - 1 else "no witness for kappa < n-1"
    if not cut.validate(g):
        return "witness is not a valid vertex cut"
    if cut.size != kappa:
        return "witness has %d middle vertices, kappa %d" % (cut.size, kappa)
    return None


def check_mkecs(ref, dec):
    """Decomposition must equal the baseline's."""
    if dec != ref:
        return "classes differ from baseline_mkecs"
    return None


def check_tester(g, k, verdict, connected):
    """A k-connected graph is never rejected; a rejection's witness must
    re-validate on the graph in the witness orientation."""
    if verdict.accepted:
        return None
    if connected:
        return "rejected a %d-connected graph" % k
    w = verdict.witness
    gg = g if verdict.witness_orientation == "out" else reverse_graph(g)
    if not w or not w.members:
        return "rejection without a witness"
    if hasattr(w, "boundary"):
        if not verify_vertex_out(gg, w.members, k - 1):
            return "vertex witness has %d or more boundary vertices" % k
        if len(w.members | boundary_of(gg, w.members)) >= g.n:
            return "vertex witness is not a proper side"
    else:
        if not verify_k_edge_out(gg, w.members, k - 1):
            return "edge witness has %d or more leaving edges" % k
        if len(w.members) >= g.n:
            return "edge witness is not a proper subset"
    return None
