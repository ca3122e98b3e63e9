"""The undirected mkecs driver builds one certificate per popped piece.

`_local` builds the bidirected forest certificate of a piece and runs
the piece's global cut search on it, so every certificate is read by a
cut search.  The carve loop reads the same certificate, less the arcs at
the components it carves: those arcs are still at most k forests on any
set, and every candidate is checked on the live edges before it is
carved, so a certificate is never rebuilt in the middle of a carve.
"""

import contextlib
import random
from unittest import mock

import pytest

from localcuts import mkecs

from test_mkecs_global_first import pendant_core, triangle_chain


@contextlib.contextmanager
def certificates_and_searches():
    """Record every certificate built and the edge list of every cut
    search."""
    real_cert, real_cut = mkecs._certificate, mkecs._cut_below
    built, searched = [], []

    def certificate(*args):
        cert = real_cert(*args)
        built.append(cert)
        return cert

    def cut_below(vertices, tail, head, edges, k):
        searched.append(edges)
        return real_cut(vertices, tail, head, edges, k)

    with mock.patch.object(mkecs, "_certificate", side_effect=certificate), \
            mock.patch.object(mkecs, "_cut_below", side_effect=cut_below):
        yield built, searched


@pytest.mark.parametrize("make, k", [
    (lambda: triangle_chain(400), 2),
    (lambda: pendant_core(30, 200, random.Random(5)), 3),
], ids=["triangle_chain", "pendant_core"])
def test_every_certificate_is_read_by_a_cut_search(make, k):
    und = make()
    expected = mkecs.baseline_mkecs_undirected(und, k)
    with certificates_and_searches() as (built, searched):
        got = mkecs.mkecs_undirected(und, k, random.Random(1))
    assert got == expected
    assert built
    searched_ids = {id(edges) for edges in searched}
    unread = [cert for cert in built if id(cert) not in searched_ids]
    assert unread == [], (
        "%d of %d certificates never reach a cut search"
        % (len(unread), len(built)))
