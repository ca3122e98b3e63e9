"""After a global cut, mkecs retries detection only where the cut touched.

On a chain of c bidirected 6-cliques joined by 2 links, at k = 3 and the
default budget, no detection succeeds, so every class is split off by a
global cut.  Restarting detection from every vertex of every sub-piece
repeats each failed detection once per cut (44c or more detections);
re-queueing only the endpoints of removed edges keeps the count linear
in c.
"""

import random
from unittest import mock

import pytest

from localcuts import mkecs
from localcuts.graph import UndirectedGraph


def clique_chain(count, rng, size=6, links=2):
    """Chain of cliques joined by `links` disjoint edges, relabelled."""
    pairs = []
    for c in range(count):
        base = c * size
        pairs += [(base + i, base + j)
                  for i in range(1, size + 1) for j in range(i + 1, size + 1)]
        if c + 1 < count:
            tails = rng.sample(range(base + 1, base + size + 1), links)
            heads = rng.sample(range(base + size + 1, base + 2 * size + 1),
                               links)
            pairs += list(zip(tails, heads))
    perm = list(range(1, count * size + 1))
    rng.shuffle(perm)
    perm.insert(0, 0)
    pairs = [(perm[a], perm[b]) for a, b in pairs]
    rng.shuffle(pairs)
    return UndirectedGraph(count * size, pairs)


@pytest.mark.parametrize("count,seed", [(10, 0), (20, 1), (40, 2)])
def test_detections_grow_linearly_on_clique_chains(count, seed):
    und = clique_chain(count, random.Random(seed))
    g = und.to_directed()
    expected = mkecs.baseline_mkecs(g, 3)
    assert len(expected.classes) == count
    with mock.patch.object(mkecs, "detect_component_param",
                           wraps=mkecs.detect_component_param) as detect:
        directed = mkecs.mkecs_directed(g, 3, random.Random(seed))
        directed_calls = detect.call_count
        detect.reset_mock()
        undirected = mkecs.mkecs_undirected(und, 3, random.Random(seed))
        undirected_calls = detect.call_count
    assert directed == expected
    assert undirected == expected
    assert directed_calls <= 20 * count
    assert undirected_calls <= 10 * count
