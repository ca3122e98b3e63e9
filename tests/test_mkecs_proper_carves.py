"""mkecs carves only proper parts of a piece.

A detection that returns every live vertex of its piece has no edge
leaving it, but it is no proper side: carving it would put the whole
piece back on the stack, to be searched and split by the same cut
again.  Such a detection carves nothing, so every local phase leaves
some live vertices.  On the undirected 2-link chain of 20 6-cliques of
seed 1 at k = 3, five of the phases used to carve their whole piece.
"""

import random
from unittest import mock

import pytest

from localcuts import mkecs

from test_mkecs_requeue import clique_chain


@pytest.mark.parametrize("count,seed", [(10, 0), (20, 1), (40, 2), (80, 3)])
@pytest.mark.parametrize("undirected", [True, False])
def test_no_phase_carves_its_whole_piece(count, seed, undirected):
    und = clique_chain(count, random.Random(seed))
    real_carve = mkecs._carve
    phases = []

    def carve(vertices, *rest):
        carved, live, edges = real_carve(vertices, *rest)
        phases.append((set(vertices), carved, live))
        return carved, live, edges

    with mock.patch.object(mkecs, "_carve", side_effect=carve):
        if undirected:
            got = mkecs.mkecs_undirected(und, 3, random.Random(seed))
        else:
            got = mkecs.mkecs_directed(und.to_directed(), 3,
                                       random.Random(seed))
    assert phases
    for vertices, carved, live in phases:
        # each carve takes a proper part of the live vertices
        assert live
        assert all(members < vertices for members, _ in carved)
    assert got == mkecs.baseline_mkecs_undirected(und, 3)
