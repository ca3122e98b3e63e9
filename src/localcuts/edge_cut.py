"""Local detection of bounded-size k-edge-out components.

detect_component runs a sequence of budgeted DFS passes from a start
vertex over an orientation overlay.  After each pass that exhausts its
edge budget, one processed edge is sampled uniformly and the tree path
to it is reversed, blocking one potential escape route.  A pass that
finishes under budget returns its visited set, which is then a minimal
component with at most as many leaving edges as passes already run.
"""

import dataclasses
import math
from itertools import repeat

from .graph import CountedView, GraphError, Overlay


@dataclasses.dataclass
class DfsResult:
    # F: (edge id, charger) pairs in processing order; the charger is the
    # visited vertex whose scan charged the edge (its own out-scan, or the
    # in-scan of its interior partner in symmetric modes).
    processed: list
    visited: set
    tree_parent: dict
    completed: bool


@dataclasses.dataclass
class ComponentResult:
    members: frozenset
    out_edges: tuple          # edge ids leaving members, w.r.t. the base graph
    edge_size: int            # edges with both endpoints in members
    queries_used: int
    trials_used: int
    edges_processed: int

    def __bool__(self):
        return bool(self.members)


def budgeted_dfs(view, s, budget, interior_partner=None):
    """DFS from s processing at most `budget` edges.

    The stack starts with s; popping a vertex visits it, which processes
    all its out-edges by pushing their heads.  Each encountered vertex is
    attached to the DFS tree at first encounter.  The walk stops the
    moment the processed count reaches the budget, even mid-vertex; a
    walk that exhausts reachability exactly at the budget is still
    reported as not completed.

    With `interior_partner`, visiting a vertex w also scans the in-edges
    of interior_partner(w) (once), appending them to the processed list
    under the same budget.  This is the volume accounting of symmetric
    mode, which walks a SplitGraph and passes its `interior_partner`.

    Each scan reads the vertex's incidence list of `view.base` once and
    charges `view.query_count` as the probes of CountedView would: a
    full scan of d slots costs d + 1 (the probe that finds slot d + 1
    absent included), a scan the budget stops at slot j costs j.  The
    walk reads edge ids and `head(eid)` only; it builds no Edge.
    """
    processed = []
    visited = set()
    tree_parent = {}
    in_scanned = set()
    if budget <= 0:
        return DfsResult(processed, visited, tree_parent, False)
    base = view.base
    if not base.has_vertex(s):
        raise GraphError("unknown vertex %r" % (s,))
    head, out_ids, in_ids = base.head, base.out_ids, base.in_ids
    stack = [s]
    while stack:
        u = stack.pop()
        if u in visited:
            continue
        visited.add(u)
        if interior_partner is not None:
            q = interior_partner(u)
            if q is not None and q not in in_scanned:
                in_scanned.add(q)
                ids = in_ids(q)
                room = budget - len(processed)
                processed.extend(zip(ids[:room], repeat(u)))
                view.query_count += min(len(ids) + 1, room)
                if len(ids) >= room:
                    return DfsResult(processed, visited, tree_parent, False)
        ids = out_ids(u)
        room = budget - len(processed)
        view.query_count += min(len(ids) + 1, room)
        for eid in ids[:room]:
            processed.append((eid, u))
            h = head(eid)
            if h != s and h not in tree_parent:
                tree_parent[h] = (u, eid)
            stack.append(h)
        if len(ids) >= room:
            return DfsResult(processed, visited, tree_parent, False)
    return DfsResult(processed, visited, tree_parent, True)


def _tree_path(tree_parent, s, v):
    """Edge ids of the unique tree path s -> v (empty when v == s)."""
    path = []
    cur = v
    while cur != s:
        parent, eid = tree_parent[cur]
        path.append(eid)
        cur = parent
    path.reverse()
    return path


def _sample_path(overlay, s, res, rng):
    """Pick a processed edge uniformly and build the path to reverse.

    For an original-orientation edge the path runs to its tail; for an
    already-reversed edge the path runs to its tail and continues over
    the edge itself, ending at the original tail.  Edges discovered by
    in-scans can have a tail outside the DFS tree; then the path to the
    in-tree head is used instead, and when the head is outside too, the
    path to the visited vertex whose scan charged the edge (reversing
    any root path preserves the soundness and minimality guarantees).
    """
    eid, charger = res.processed[rng.randrange(len(res.processed))]

    def in_tree(v):
        return v == s or v in res.tree_parent

    tail = overlay.tail(eid)
    if in_tree(tail):
        path = _tree_path(res.tree_parent, s, tail)
        return path + [eid] if overlay.is_reversed(eid) else path
    head = overlay.head(eid)
    end = head if in_tree(head) else charger
    return _tree_path(res.tree_parent, s, end)


def run_detection(base, s, k, delta, rng, interior_partner=None):
    """Shared detection core: k rounds of `round_budget(k, delta)` edges,
    then a final pass that accepts at most delta; returns (members or
    None, queries, processed)."""
    overlay = Overlay(base)
    view = CountedView(overlay)
    total = 0
    budget = round_budget(k, delta)
    for _ in range(k):
        res = budgeted_dfs(view, s, budget,
                           interior_partner=interior_partner)
        total += len(res.processed)
        if res.completed:
            return res.visited, view.query_count, total
        path = _sample_path(overlay, s, res, rng)
        overlay.apply_path_reversal(path)
    res = budgeted_dfs(view, s, delta + 1,
                       interior_partner=interior_partner)
    total += len(res.processed)
    if len(res.processed) <= delta:
        return res.visited, view.query_count, total
    return None, view.query_count, total


def out_edge_ids(g, members):
    """Edges of g leaving the vertex set (self-loops never leave)."""
    head = g.head
    out = []
    for u in members:
        for eid in g.out_ids(u):
            if head(eid) not in members:
                out.append(eid)
    return out


def internal_edge_count(g, members):
    head = g.head
    cnt = 0
    for u in members:
        for eid in g.out_ids(u):
            if head(eid) in members:
                cnt += 1
    return cnt


def verify_k_edge_out(g, members, k):
    """True iff at most k edges of g leave the vertex set."""
    return len(out_edge_ids(g, members)) <= k


def round_budget(k, delta):
    """Edge budget of each of the detector's k reversal rounds."""
    return 2 * k * (delta + k)


def trial_edge_bound(k, delta):
    """Edges one detection trial processes at most: k rounds and the
    final pass of budget delta + 1."""
    return k * round_budget(k, delta) + delta + 1


def detect_component(g, s, k, delta, rng):
    """One detection attempt for a k-edge-out component containing s.

    A nonempty result is always a minimal component with at most k
    leaving edges and edge size at most max(2k(delta+k), delta).  If s
    lies in a k-edge-out component of edge size at most delta, the
    result is nonempty with probability at least 1/2.
    """
    if not g.has_vertex(s):
        raise ValueError("unknown start vertex %d" % s)
    if k < 0 or delta < 0:
        raise ValueError("k and delta must be non-negative")
    members, queries, total = run_detection(g, s, k, delta, rng)
    if members is None:
        return ComponentResult(frozenset(), (), 0, queries, 1, total)
    return ComponentResult(frozenset(members),
                           tuple(out_edge_ids(g, members)),
                           internal_edge_count(g, members),
                           queries, 1, total)


def repetitions_for(p):
    """Fewest trials t >= 1 with 1 - 2^-t >= p (per-trial success 1/2);
    exact at p = 1 - 2^-t, where 1 - p is a power of two."""
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    return max(1, math.ceil(-math.log2(1.0 - p)))


def high_probability(n):
    """Success target 1 - n^-3 of a detection on n vertices, its failure
    probability floored at 2^-53: from n = 2^18 on, 1 - n^-3 rounds to
    1.0 in a float, and the floor keeps it at most 53 trials."""
    return 1.0 - max(1.0 / n ** 3, 2.0 ** -53)


def detect_component_param(g, s, k, delta, p, rng):
    """Amplified detection with target success probability p: up to
    repetitions_for(p) trials of detect_component, until one is nonempty;
    each processes at most trial_edge_bound(k, delta) edges by design."""
    reps = repetitions_for(p)
    queries = 0
    processed = 0
    for t in range(1, reps + 1):
        res = detect_component(g, s, k, delta, rng)
        queries += res.queries_used
        processed += res.edges_processed
        if res:
            return dataclasses.replace(res, queries_used=queries,
                                       trials_used=t,
                                       edges_processed=processed)
    return ComponentResult(frozenset(), (), 0, queries, reps, processed)
