"""Proven-reach sets are charged the list slots they read.

The sets on one vertex-split network share its neighbour lists: a list
is derived from the arc lists by the first set that pops its vertex,
and later sets read it as it is.  So `PairCuts.spent`, the network's
`scans`, charges a set, when it is built and whenever a flow grows it,
the arc slots of the lists it derives and the neighbour entries it
pops, not the network's 2(n + m) arcs per set.  Every member is popped
once, so from the final state the sets' charge is the sum of their
members' neighbour lists plus the arcs every derived list was read
from, and each flow is charged the arcs its searches read.
"""

import random

import pytest

from localcuts import connectivity, flow
from localcuts.connectivity import PairCuts, vertex_connectivity_directed

from test_shared_neighbours import circulant


def run_directed(monkeypatch, g):
    """(kappa, the call's PairCuts, the charges of its flows)."""
    made, flows = [], []

    class Recorded(PairCuts):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

    real = flow.st_vertex_cut_at_most

    def counted(g, s, t, k, net=None):
        scans = net.scans
        res = real(g, s, t, k, net)
        # a flow reads no set's lists, so its slots are all its own
        flows.append(net.scans - scans)
        return res

    monkeypatch.setattr(connectivity, "PairCuts", Recorded)
    monkeypatch.setattr(flow, "st_vertex_cut_at_most", counted)
    kappa, cut = vertex_connectivity_directed(g, random.Random(0))
    assert cut.validate(g) and cut.size == kappa
    [pairs] = made
    return kappa, pairs, flows


@pytest.mark.parametrize("g,want,lists", [(circulant(12, 3), 3, 24),
                                          (circulant(16, 2), 2, 32)],
                         ids=["C(12,3)", "C(16,2)"])
def test_directed_driver_charges_its_sets_what_they_read(monkeypatch, g,
                                                         want, lists):
    kappa, pairs, flows = run_directed(monkeypatch, g)
    assert kappa == want
    net = pairs.net
    near = net.near
    derived = sum(len(net.arcs[2 * v + 1 - side])
                  for side in (0, 1) for v in near[side])
    popped = sum(len(near[back][v])
                 for (_, _, back), reach in pairs.reach.items()
                 for v in reach.members)
    assert sum(len(near[side]) for side in (0, 1)) == lists
    # every arc list derived from holds one arc per edge end, and a
    # node's transit arc: the network's 2(n + m) arcs at most
    assert derived <= len(net.head)
    assert pairs.spent == sum(flows) + derived + popped
    # far below one charge of the network's arcs per set
    assert derived + popped < len(pairs.reach) * len(net.head)
