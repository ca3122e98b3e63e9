"""Maximal k-edge-connected subgraph decomposition.

The decomposition is unique: no maximal k-edge-connected vertex set ever
crosses a directed cut with fewer than k edges, so any sequence of valid
cut removals converges to the same partition.  The baseline recursion
peels strongly connected components and global small cuts; the local
variants first carve off small components found by the bounded-size
detector, touching only a fraction of the graph per removal, and fall
back to global cuts for whatever remains.  Every loop walks pieces: a
component together with its internal edges, split off in one pass, on
an explicit stack rather than by recursion.  The local variants keep one
such stack, and a piece is searched, carved or split only when popped:
the components a carve removes and the pieces of what is left go back
on it.

The order within a piece is: one global cut search
(`flow.edge_cut_below`, the search `flow.global_edge_cut_below` runs on
a whole graph), then a local phase only if the piece has a cut below k.
The detector returns only sets with fewer than k leaving edges, so on a
k-edge-connected piece every detection would fail; such a piece is a
class and runs none.  It also returns only sets with at most
`detection_edge_bound` edges inside, on the graph it reads, so when both
sides of the cut hold more than that the piece is split by the cut at
once, with no detection.  A cut search roots its flows at a vertex of
minimum degree (ties to the smallest id), where a small side that the
local phase would carve shows up in the first flows.  When the local
phase carves nothing the piece is unchanged and its first cut is reused.
So detection runs no more often than with no search first, and the
global searches are one per piece plus at most one for each piece whose
local phase carves.

A local phase costs what it carves.  It builds the graph detection
reads once, and detection reads it as built until the first carve.  A
carve reads only its members' incidence lists in the piece, and from
then on detection reads one `graph.Overlay` of that graph, from which
each carve removes its members (`Overlay.remove`), editing only the
lists of the members and of their live neighbours.  The live edge list
is rebuilt once, when the phase ends.  So a carve costs the volume of
its members and their neighbours, not the piece's size, and a run
builds a few graphs per piece, not one per carve.

Detection takes its starts from the vertices of a piece, lowest
out-degree first, where sides with few leaving edges are likely; after a
carve or a global cut it is retried only from endpoints of the removed
edges, as in the peeling scheme of Chechik, Hansen, Italiano,
Loitzenbauer and Parotsidis (SODA 2017).  A piece that becomes small
after a cut must hold the tail of a removed edge, or both ends of one,
since only removed edges lower its out-degree.  The local phase is
charged against the global work it replaces, per detection trial.  Its
credit starts at the arcs the piece's cut search scanned (`flow.Network`
counts them), at most one capped flow on the graph that detection reads,
k searches over its arcs; each carve saves one global search and earns
one such flow.  A start is popped only while the credit left covers one
trial at the detector's edge bound, and its detection runs only the
trials that credit covers, at least one and at most those of a 1 - n^-3
success target.  The first start always runs.  The global phase decides
exactly, so no class depends on which vertices are queued, how many
trials they run or where the phase stops.

Detection reads a piece in one orientation while its live edges are
balanced, with in-degree equal to out-degree at every vertex.  There
every vertex set has as many edges entering as leaving, so a backward
detection would look for the sets the forward one has just ruled out;
the cut search flows only from its root for the same reason.  While the
live edges are unbalanced, a piece is also read backward, from each
start whose forward detection failed; a carve can balance them again.

Every piece is a vertex set and a list of edge ids over one pair of
endpoint lists, the graph's own (`Graph.endpoints`) for a directed
graph, so no Edge is built.  One local driver serves both kinds of
graph.  An undirected graph enters as its antiparallel pairs, two
interleaved endpoint lists built once per call
(`UndirectedGraph.antiparallel`: edge i becomes arcs 2i and 2i + 1), so
its pieces, splits and carves are those of a directed graph.
Only what the detector and the cut search read differs: an undirected
piece is read through its bidirected certificate, which is balanced, so
forward only.  The certificate is k scan-first forests of the piece
(`scan_first_forests`, the forests that vertex connectivity sparsifies
with), parallel copies kept: any sequence of k maximal forests keeps
every cut below k whole (Nagamochi and Ibaraki, 1992), and the carve
needs no more.  It is built once per popped piece; a carve drops the
arcs at its component, and every candidate is checked on the live
edges before it is carved.
"""

import dataclasses
import math
from collections import Counter, deque

from .edge_cut import (detect_component_param, high_probability,
                       repetitions_for, round_budget, trial_edge_bound)
from .flow import edge_cut_below as _cut_below
from .graph import (Graph, Overlay, UndirectedGraph, components,
                    reverse_graph, scan_first_forests)


@dataclasses.dataclass
class Decomposition:
    k: int
    classes: list  # list of frozensets, a partition of the vertex set

    def as_sorted(self):
        return sorted((tuple(sorted(c)) for c in self.classes))

    def __eq__(self, other):
        if not isinstance(other, Decomposition):
            return NotImplemented
        return self.k == other.k and self.as_sorted() == other.as_sorted()


def _pieces(vertices, tail, head, ids):
    """Components of the edges `ids` on `vertices`, as in `components`,
    each paired with the ids of its internal edges in the order of
    `ids`; self-loops are dropped.  One pass over the ids serves every
    component."""
    comps = components(vertices, ((tail[i], head[i]) for i in ids))
    where = {}
    for c, comp in enumerate(comps):
        for v in comp:
            where[v] = c
    inner = [[] for _ in comps]
    for i in ids:
        c = where[tail[i]]
        if tail[i] != head[i] and c == where[head[i]]:
            inner[c].append(i)
    return list(zip(comps, inner))


def _baseline(vertices, tail, head, ids, k):
    """Recursive SCC / small-cut peeling; returns the class list."""
    classes = []
    stack = [(set(vertices), ids)]
    while stack:
        vertices, ids = stack.pop()
        for comp, inner in _pieces(vertices, tail, head, ids):
            cut = _cut_below(comp, tail, head, inner, k)
            if cut is None:
                classes.append(frozenset(comp))
            else:
                removed = set(cut.cut_edges)
                stack.append((comp, [i for i in inner if i not in removed]))
    return classes


def baseline_mkecs(g, k):
    """Reference decomposition into maximal k-edge-connected subgraphs."""
    if k < 1:
        raise ValueError("k must be positive")
    return Decomposition(k, _baseline(set(g.vertices()), *g.endpoints(),
                                      range(g.m), k))


def detection_edge_bound(k, delta):
    """Edge-size cap of components the local detector can return."""
    return max(round_budget(k, delta), delta)


def _sides_above(side, tail, head, ids, bound):
    """Both `side` and the rest hold more than `bound` of the edges."""
    inside = outside = 0
    for i in ids:
        if tail[i] in side:
            inside += head[i] in side
        else:
            outside += head[i] not in side
    return inside > bound and outside > bound


def _split(comp, tail, head, inner, removed):
    """Pieces of (comp, inner) once the edges with ids in `removed` are
    gone, each as (vertices, edge ids, queue): its queue holds its
    endpoints of the edges no piece kept, where a new small component
    must touch."""
    pieces = _pieces(comp, tail, head, [i for i in inner if i not in removed])
    kept = {i for _, sub_ids in pieces for i in sub_ids}
    touched = {v for i in inner if i not in kept for v in (tail[i], head[i])}
    return [(sub, sub_ids, sub & touched) for sub, sub_ids in pieces]


def _certificate(tail, head, arcs, k):
    """Bidirected certificate of a piece of antiparallel pairs, the ids
    2i and 2i + 1 of each pair adjacent in `arcs`: the pairs whose first
    arc k scan-first forests (`scan_first_forests`) keep, in the order of
    `arcs`."""
    kept = {a // 2 for a in scan_first_forests(tail, head, arcs[::2], k)}
    return [a for a in arcs if a // 2 in kept]


def _carve(vertices, tail, head, edges, cert, queue, k, kd, delta, rng,
           scans):
    """Local phase on one piece: carve off what the detector finds.
    `edges` and `cert` are id lists over the endpoint lists `tail` and
    `head`.  Returns the carved components, each with the ids of its
    inner edges, and the live vertices and edge ids.  Detection starts
    from the vertices of `queue`, by out-degree on the graph it reads,
    lowest first, and then from the endpoints of edges that later carves
    remove.

    The phase is charged per detection trial.  Its credit starts at
    min(scans, 2k|read|): the arcs the piece's cut search scanned, at
    most one flow capped at k augmenting searches over the 2|read| arcs
    (`read` the graph detection reads when the phase begins).  Each
    carve adds 2k|read|, and detections spend the edges they process.
    A start is popped only while the credit left covers one trial at
    `trial_edge_bound(kd, delta)`, and each of its detections runs the
    t trials that the credit left then covers, at least one and at most
    the count for success 1 - n^-3, as the target p = 1 - 2^-t.  The
    first start always runs.  So a phase spends at most its credit plus
    one trial bound per orientation it reads.

    A directed piece (`cert` None) is read on its live edges, forward,
    and backward only while they are unbalanced: on a balanced graph
    (`flow.balanced`) every vertex set has as many edges entering as
    leaving, so the backward detector looks for the same sets as the
    forward one, at the same success level, as in the cut search.  Each
    live vertex keeps its out-degree minus its in-degree; a carve drops
    its members' and lowers each frontier vertex's by its out-edges
    lost minus its in-edges lost, which the partition pass counts.  So
    a carve that balances the live edges again ends backward detection.

    A detection that returns every live vertex has no proper side: it
    carves nothing, and the phase goes on to its next start.

    The graph detection reads is built at the first start and read as
    built until the first carve.  A carve reads its members' edges from
    the piece's incidence lists (that graph itself for a directed piece,
    a graph of `edges` built at the first carve for an undirected one),
    skipping edges to carved vertices.  The first carve wraps the
    detection graph in an `Overlay`, and each carve removes its members
    from it, editing the lists of the members and of the live vertices
    next to them; the overlay lists the live edges in the built graph's
    order, so detection draws as on a graph rebuilt from them, and its
    reverse follows the removals.  The live edges are listed once, when
    the phase ends.

    An undirected piece is read forward only on `cert`, its bidirected,
    so balanced, certificate, less the arcs at carved components.  What
    is left is a subset of the live edges and still k forests, so a set
    with fewer than k leaving live edges has fewer than k leaving arcs
    there too, and at most k forests inside it.  A set may look small
    only on the certificate, so every candidate must have fewer than k
    leaving edges, in the orientation it was found in, on the live edges
    before it is removed."""
    n_max = max(vertices)
    most = repetitions_for(high_probability(max(2, len(vertices))))
    trial = trial_edge_bound(kd, delta)
    live = set(vertices)
    carved = []
    # out-degree minus in-degree of each live vertex, and the vertices
    # where it is not zero; the antiparallel pairs of an undirected
    # piece have none
    excess = Counter()
    if cert is None:
        excess = Counter(tail[i] for i in edges)
        excess.subtract(Counter(head[i] for i in edges))
    unbalanced = {v for v, x in excess.items() if x}
    read = edges if cert is None else cert
    out_degree = Counter(tail[i] for i in read)
    worklist = deque(sorted(queue, key=lambda v: (out_degree[v], v)))
    queued = set(worklist)
    # one capped flow scans the 2|read| arcs k times; each carve earns
    # one, and the credit starts at the cut search's scans if fewer
    flow_cost = 2 * k * len(read)
    credit = min(scans, flow_cost)
    spent = 0

    def detect(g, s):
        """Detection from s running the trials the credit left covers."""
        nonlocal spent
        t = min(most, max(1, (credit - spent) // trial))
        res = detect_component_param(g, s, kd, delta, 1.0 - 2.0 ** -t, rng)
        spent += res.edges_processed
        return res

    # `index`: the piece's incidence lists, ids positions in `edges`
    fwd = bwd = index = view = None
    first = True
    while worklist and (first or credit - spent >= trial):
        s = worklist.popleft()
        queued.discard(s)
        if s not in live:
            continue
        first = False
        if fwd is None:
            fwd = Graph(n_max, [(tail[i], head[i]) for i in read])
        res = detect(fwd, s)
        forward = True
        if not res and unbalanced:
            if bwd is None:
                bwd = reverse_graph(fwd)
            res = detect(bwd, s)
            forward = False
        members = set(res.members)
        if not members or len(members) == len(live):
            continue
        if index is None:
            index = fwd if cert is None else Graph(
                n_max, [(tail[i], head[i]) for i in edges])
            index_tail, index_head = index.endpoints()
        # the members' live edges: inside and crossing
        inner = []
        # per frontier vertex: out-edges lost minus in-edges lost
        frontier = Counter()
        leaving = 0
        for u in members:
            for i in index.out_ids(u):
                h = index_head[i]
                if h in members:
                    inner.append(i)
                elif h in live:
                    # a crossing edge leaves in the orientation of detection
                    leaving += forward
                    frontier[h] -= 1
            for i in index.in_ids(u):
                t = index_tail[i]
                if t not in members and t in live:
                    leaving += not forward
                    frontier[t] += 1
        if leaving >= k:
            continue
        # the component is carved off, its edges in edge-list order:
        # crossing edges vanish, it is decomposed on its own, and the
        # frontier is re-examined
        carved.append((members, [edges[i] for i in sorted(inner)]))
        credit += flow_cost
        live -= members
        if view is None:
            # the reverse of a Graph misses removals; an overlay's follows them
            fwd = view = Overlay(fwd)
            bwd = None
        view.remove(members)
        unbalanced -= members
        for v in sorted(frontier):
            excess[v] -= frontier[v]
            if excess[v]:
                unbalanced.add(v)
            else:
                unbalanced.discard(v)
            if v not in queued:
                worklist.append(v)
                queued.add(v)
    if carved:
        edges = [i for i in edges if tail[i] in live and head[i] in live]
    return carved, live, edges


def _local(vertices, tail, head, k, delta, rng, undirected):
    """Classes of the graph of every edge over the endpoint lists `tail`
    and `head` on `vertices`: its pieces are walked on one explicit stack
    of (vertices, edge ids, queue), and a piece is searched, carved or
    split only when it is popped.  An undirected graph is given as its
    antiparallel pairs, so its pieces hold such pairs; the cut search
    and the detection of such a piece read its bidirected certificate,
    built here from its edges, which keeps every cut of fewer than k
    edges whole.

    A piece too small for the detector's cap goes to the baseline.  Any
    other piece gets one global cut search first: with no cut below k it
    is a class and runs no detection.  If both sides of the cut hold
    more edges than the cap, on the graph detection reads, no detection
    can return either, and the piece is split by the cut at once.
    Otherwise the local phase carves from its queue.  If it carves, the
    carved components and the pieces of what is left go back on the
    stack with empty queues, so each is searched once and split by that
    cut.  If it carves nothing, the piece is split by the first search's
    cut."""
    kd = min(k, max(1, delta)) - 1
    bound = detection_edge_bound(kd, delta)
    classes = []
    stack = [(comp, inner, comp) for comp, inner in
             _pieces(vertices, tail, head, range(len(tail)))]
    while stack:
        vertices, edges, queue = stack.pop()
        if len(edges) <= bound:
            classes.extend(_baseline(vertices, tail, head, edges, k))
            continue
        cert = _certificate(tail, head, edges, k) if undirected else None
        read = edges if cert is None else cert
        cut = _cut_below(vertices, tail, head, read, k)
        if cut is None:
            classes.append(frozenset(vertices))
            continue
        if _sides_above(cut.side, tail, head, read, bound):
            stack += _split(vertices, tail, head, edges, set(cut.cut_edges))
            continue
        carved, live, live_edges = _carve(vertices, tail, head, edges, cert,
                                          queue, k, kd, delta, rng,
                                          cut.arc_scans)
        if carved:
            stack += [(comp, inner, set()) for comp, inner in
                      carved + _pieces(live, tail, head, live_edges)]
        else:
            stack += _split(vertices, tail, head, edges, set(cut.cut_edges))
    return classes


def mkecs_directed(g, k, rng, delta=None):
    """Decomposition driven by local detection; equals the baseline.

    A piece runs detection only when a global cut search, rooted at a
    vertex of minimum degree, finds a cut below k in it.

    delta defaults to ceil(sqrt(m / k)), balancing detection budgets
    against the number of global cut rounds.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if delta is not None and delta < 0:
        raise ValueError("delta must be non-negative")
    if delta is None:
        delta = max(1, math.ceil(math.sqrt(max(1, g.m) / k)))
    return Decomposition(k, _local(set(g.vertices()), *g.endpoints(), k,
                                   delta, rng, False))


def sparse_certificate(und, k):
    """Subgraph of at most k(n-1) edges preserving cuts up to size k.

    Union of k scan-first forests (`scan_first_forests`), parallel
    copies included: any cut of size at most k keeps all its edges, any
    larger cut keeps at least k of them.
    """
    if k < 1:
        raise ValueError("k must be positive")
    tail, head = und.endpoints()
    kept = scan_first_forests(tail, head, range(und.m), k)
    return UndirectedGraph(und.n, [(tail[i], head[i]) for i in kept])


def mkecs_undirected(und, k, rng, gamma=None):
    """Undirected decomposition working on sparse certificates.

    A piece runs detection only when a global cut search on its
    bidirected certificate finds a cut below k in it.

    gamma defaults to ceil(sqrt(n) / k); detection runs with edge budget
    k * gamma on the certificate of the current piece, and every
    candidate is validated against the piece's live edges.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if gamma is not None and gamma < 0:
        raise ValueError("gamma must be non-negative")
    if gamma is None:
        gamma = max(1, math.ceil(math.sqrt(und.n) / k))
    return Decomposition(k, _local(range(1, und.n + 1), *und.antiparallel(),
                                   k, k * gamma, rng, True))


def baseline_mkecs_undirected(und, k):
    return baseline_mkecs(und.to_directed(), k)
