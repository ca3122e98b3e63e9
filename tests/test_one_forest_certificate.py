"""One forest routine serves both certificates.

`scan_first_certificate` (vertex connectivity) is `sparse_certificate`
(mkecs) of the simple graph underneath: the same scan-first forests,
grown after loops and parallel copies are dropped.
"""

from hypothesis import given, settings, strategies as st

from localcuts.connectivity import scan_first_certificate
from localcuts.graph import UndirectedGraph
from localcuts.mkecs import sparse_certificate

from test_certificate_multigraphs import multigraphs


def simple_graph(und):
    """First copy of each endpoint pair, loops dropped, in id order."""
    firsts = {}
    for t, h in und.pairs():
        if t != h:
            firsts.setdefault(frozenset((t, h)), (t, h))
    return UndirectedGraph(und.n, list(firsts.values()))


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.integers(1, 8))
def test_scan_first_certificate_is_sparse_certificate_of_simple_graph(und, k):
    assert scan_first_certificate(und, k) == sparse_certificate(
        simple_graph(und), k)


def test_sparse_certificate_keeps_parallel_copies_and_skips_loops():
    und = UndirectedGraph(3, [(1, 1), (1, 2), (2, 1), (2, 3), (3, 3)])
    assert list(sparse_certificate(und, 2).pairs()) == [(1, 2), (2, 1),
                                                        (2, 3)]
    assert list(scan_first_certificate(und, 2).pairs()) == [(1, 2), (2, 3)]
