"""Real-valued settings must be positive and finite.

An infinite or NaN confidence constant would reach `math.ceil` in the
pair step's draw count and raise OverflowError or a NaN conversion error
deep in a search; an infinite tester degree bound would make the degree
checks accept vacuously.  Each is rejected with ValueError up front.
"""

import math
import random

import pytest

from localcuts import testers
from localcuts.connectivity import (is_connectivity_at_least,
                                    vertex_connectivity_directed,
                                    vertex_connectivity_undirected)
from localcuts.graph import Graph, UndirectedGraph

BAD = [math.inf, -math.inf, math.nan, 0.0, -1.0]


def clique(n):
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


@pytest.mark.parametrize("c", BAD)
def test_connectivity_drivers_reject_confidence(c):
    und = UndirectedGraph(6, clique(6))
    g = und.to_directed()
    with pytest.raises(ValueError, match="c must be positive and finite"):
        vertex_connectivity_directed(g, random.Random(0), c=c)
    with pytest.raises(ValueError, match="c must be positive and finite"):
        vertex_connectivity_undirected(und, random.Random(0), c=c)
    with pytest.raises(ValueError, match="c must be positive and finite"):
        is_connectivity_at_least(g, 2, random.Random(0), c=c)


@pytest.mark.parametrize("c", BAD)
def test_confidence_is_checked_before_trivial_answers(c):
    # one vertex: the drivers would answer without reading c
    with pytest.raises(ValueError):
        vertex_connectivity_directed(Graph(1, []), random.Random(0), c=c)
    with pytest.raises(ValueError):
        vertex_connectivity_undirected(UndirectedGraph(1, []),
                                       random.Random(0), c=c)


@pytest.mark.parametrize("degree", [math.inf, math.nan, 0.0, -2.0])
def test_tester_config_rejects_degree(degree):
    with pytest.raises(ValueError, match="degree must be positive and finite"):
        testers.TesterConfig(k=2, epsilon=0.5, model="bounded", degree=degree,
                             n=5, m=10)
