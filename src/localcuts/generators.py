"""Seeded instance generators with machine-checkable certificates.

Each generator returns (graph, certificate); the certificate records the
planted structure so tests can verify claims without re-deriving them.
Generation is deterministic per (params, rng state) and every advertised
property is asserted before returning.
"""

import dataclasses
import inspect
import random

from .graph import Graph, UndirectedGraph, is_strongly_connected


@dataclasses.dataclass(frozen=True)
class GeneratorSpec:
    family: str
    params: dict
    seed: int


FAMILIES = ("random_digraph", "planted_edge_component", "planted_separator",
            "clique_union", "cycle_union", "figure_shape")


def generate(spec):
    """Build the family's instance; ValueError on an unknown family or
    on params that do not bind to the family's signature or have the
    wrong type: counts and sizes are ints (not bools), `allow_parallel`
    is a bool and `extra_per_side` an int or None."""
    if spec.family not in FAMILIES:
        raise ValueError("unknown family %r" % (spec.family,))
    build = globals()[spec.family]
    fixed = {} if spec.family == "figure_shape" else \
        {"rng": random.Random(spec.seed)}
    try:
        bound = inspect.signature(build).bind(**fixed, **spec.params)
    except TypeError as exc:  # missing or unknown names, or not a mapping
        raise ValueError("bad params for %s: %s" % (spec.family, exc)) \
            from None
    for name, value in spec.params.items():
        want = bool if name == "allow_parallel" else int
        if type(value) is not want and not (name == "extra_per_side"
                                            and value is None):
            raise ValueError("bad params for %s: %s must be %s, got %r"
                             % (spec.family, name, want.__name__, value))
    return build(*bound.args, **bound.kwargs)


def random_digraph(n, m, rng, allow_parallel=True):
    """Uniform random directed multigraph without self-loops."""
    if n < 1 or (n == 1 and m > 0):
        raise ValueError("infeasible random digraph parameters")
    tail, head = [], []
    seen = set()
    attempts = 0
    while len(tail) < m:
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        attempts += 1
        if u == v:
            continue
        if not allow_parallel:
            if (u, v) in seen:
                if attempts > 100 * m + 100:
                    raise ValueError("too few distinct pairs for m=%d" % m)
                continue
            seen.add((u, v))
        tail.append(u)
        head.append(v)
    return Graph.from_endpoints(n, tail, head), {}


def _random_scc_edges(vertices, extra_edges, rng):
    """Endpoint lists (tail, head) of a strongly connected edge set on
    `vertices`: a random cycle plus extra edges."""
    order = list(vertices)
    rng.shuffle(order)
    tail, head = order[:], order[1:] + order[:1]
    choice = rng.choice
    for _ in range(extra_edges):
        u = choice(order)
        v = choice(order)
        while v == u and len(order) > 1:
            v = choice(order)
        if u != v:
            tail.append(u)
            head.append(v)
    return tail, head


def planted_edge_component(component_size, k, blob_edges, rng):
    """A k-edge-out cycle component around vertex 1, feeding a dense blob.

    The component is the directed cycle 1..component_size (edge size =
    component_size, exactly k leaving edges); the rest is a strongly
    connected blob with roughly blob_edges edges and one edge back into
    the component, so the whole graph is strongly connected.
    """
    c = component_size
    if c < 2 or k < 1 or blob_edges < 4:
        raise ValueError("infeasible planted component parameters")
    nb = max(3, round(blob_edges ** 0.5) + 1)
    n = c + nb
    blob = list(range(c + 1, n + 1))
    tail, head = _random_scc_edges(blob, max(0, blob_edges - nb), rng)
    # the component's cycle 1 -> 2 -> ... -> c -> 1 takes the first ids
    tail[:0] = range(1, c + 1)
    head[:0] = list(range(2, c + 1)) + [1]
    for _ in range(k):
        tail.append(rng.randint(1, c))
        head.append(rng.choice(blob))
    tail.append(rng.choice(blob))
    head.append(1)
    g = Graph.from_endpoints(n, tail, head)
    members = set(range(1, c + 1))
    # the members are 1..c, so an edge leaves them iff its head is past c
    assert sum(g.head(e) > c for v in members for e in g.out_ids(v)) == k
    assert is_strongly_connected(g)
    cert = {"component": members, "out_edge_count": k, "edge_size": c}
    return g, cert


def planted_separator(side_left, side_right, sep_size, rng,
                      extra_per_side=None):
    """Two dense blobs joined only through a small vertex separator.

    Left reaches right only through the middle vertices; a few direct
    right-to-left edges keep the whole graph strongly connected without
    shrinking the cut.
    """
    if side_left < 2 or side_right < 2 or sep_size < 1:
        raise ValueError("infeasible separator parameters")
    if extra_per_side is None:
        extra_per_side = 2 * max(side_left, side_right)
    left = list(range(1, side_left + 1))
    mid = list(range(side_left + 1, side_left + sep_size + 1))
    right = list(range(side_left + sep_size + 1,
                       side_left + sep_size + side_right + 1))
    n = side_left + sep_size + side_right
    tail, head = _random_scc_edges(left, extra_per_side, rng)
    right_tail, right_head = _random_scc_edges(right, extra_per_side, rng)
    tail += right_tail
    head += right_head
    for v in mid:
        tail.append(rng.choice(left))
        head.append(v)
        tail.append(v)
        head.append(rng.choice(right))
    for _ in range(max(2, sep_size)):
        tail.append(rng.choice(right))
        head.append(rng.choice(left))
    g = Graph.from_endpoints(n, tail, head)
    lset, mset, rset = set(left), set(mid), set(right)
    assert not any(g.head(e) in rset for v in left for e in g.out_ids(v))
    assert is_strongly_connected(g)
    cert = {"left": lset, "middle": mset, "right": rset}
    return g, cert


def clique_union(count, size, rng=None):
    """Disjoint union of `count` cliques on `size` vertices (undirected)."""
    if count < 1 or size < 2:
        raise ValueError("infeasible clique union parameters")
    tail, head = [], []
    for c in range(count):
        base = c * size
        for i in range(1, size + 1):
            for j in range(i + 1, size + 1):
                tail.append(base + i)
                head.append(base + j)
    und = UndirectedGraph.from_endpoints(count * size, tail, head)
    cert = {"blocks": [set(range(c * size + 1, (c + 1) * size + 1))
                       for c in range(count)],
            "block_edges": size * (size - 1) // 2}
    return und, cert


def cycle_union(count, length, rng=None):
    """Disjoint union of directed cycles."""
    if count < 1 or length < 2:
        raise ValueError("infeasible cycle union parameters")
    tail, head = [], []
    for c in range(count):
        base = c * length
        for i in range(1, length + 1):
            tail.append(base + i)
            head.append(base + i % length + 1)
    g = Graph.from_endpoints(count * length, tail, head)
    cert = {"blocks": [set(range(c * length + 1, (c + 1) * length + 1))
                       for c in range(count)]}
    return g, cert


def figure_shape():
    """The 7-vertex, 12-edge regression graph: a 4-clique on 1..4 with
    three degree-2 satellites 5, 6, 7 strapped across its corners."""
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
             (1, 5), (2, 5), (2, 6), (3, 6), (3, 7), (4, 7)]
    und = UndirectedGraph(7, pairs)
    cert = {"core": {1, 2, 3, 4}, "satellites": {5, 6, 7}}
    return und, cert


def farness_lower_bound(g, k):
    """Certified lower bound on edge modifications to make g
    k-edge-connected (also valid for k-vertex-connectivity).

    Counts per-vertex degree deficiencies and per-strongly-connected-
    component boundary deficiencies; every inserted edge repairs at most
    one out- and one in-unit of either kind, and deletions repair none.
    """
    from .graph import graph_sccs
    out_def = sum(max(0, k - g.out_degree(v)) for v in g.vertices())
    in_def = sum(max(0, k - g.in_degree(v)) for v in g.vertices())
    degree_bound = max(out_def, in_def)
    comps = graph_sccs(g)
    comp_bound = 0
    if len(comps) > 1:
        comp_of = {}
        for i, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = i
        out_cut = [0] * len(comps)
        in_cut = [0] * len(comps)
        for t, h in g.pairs():
            if comp_of[t] != comp_of[h]:
                out_cut[comp_of[t]] += 1
                in_cut[comp_of[h]] += 1
        comp_bound = max(sum(max(0, k - c) for c in out_cut),
                         sum(max(0, k - c) for c in in_cut))
    return max(degree_bound, comp_bound)
