"""The exact connectivity fallback has no size cap.

fallback_exact runs Even's scheme: capped flows to and from each of the
first kappa + 1 vertices.  It must agree with the brute-force oracle on
any multigraph, strongly connected or not, and return a witness that
validates, also on graphs far past the oracle's n <= 64 guard.
"""

import random

from hypothesis import given, settings, strategies as st

from localcuts.connectivity import fallback_exact, is_connectivity_at_least
from localcuts.graph import Graph
from localcuts.oracles import oracle_vertex_connectivity


def circulant(n, d):
    """C(n, d): vertex i has edges to i+1, ..., i+d (mod n)."""
    return Graph(n, [(i, (i - 1 + j) % n + 1)
                     for i in range(1, n + 1) for j in range(1, d + 1)])


def test_fallback_exact_beyond_64_vertices():
    g = circulant(70, 20)
    kappa, cut = fallback_exact(g)
    assert kappa == 20
    assert cut.size == 20 and cut.validate(g)


def test_threshold_above_sampling_range_runs_exact():
    # 2k > sqrt(m) sends the decision to the exact fallback
    g = circulant(70, 20)
    verdict = is_connectivity_at_least(g, 32, random.Random(0))
    assert verdict.stats["mode"] == "exact"
    assert verdict.found
    assert verdict.cut.size == 20 and verdict.cut.validate(g)


@st.composite
def multigraphs(draw):
    n = draw(st.integers(2, 12))
    vertex = st.integers(1, n)
    return Graph(n, draw(st.lists(st.tuples(vertex, vertex),
                                  max_size=4 * n)))


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_fallback_exact_matches_oracle(g):
    kappa, cut = fallback_exact(g)
    assert kappa == oracle_vertex_connectivity(g)
    if cut is None:
        assert kappa == g.n - 1
    else:
        assert cut.size == kappa and cut.validate(g)
