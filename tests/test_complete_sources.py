"""Even's scheme leaves a source once both its sets hold every vertex.

A source's forward and backward proven-reach sets at the current best
then prove every pair left to it, so the scheme looks none of them up:
no flow, set or charge would follow from them, and the answer, the
sets and `PairCuts.spent` are those of the loop that looks each up.
The scheme fetches a source's set at the first pair that needs it, so
a set may already be complete when fetched: then the pair that fetches
it is the one looked up after completeness.
"""

import random
import sys
from collections import defaultdict

import pytest

from localcuts import flow
from localcuts.connectivity import PairCuts, fallback_exact
from localcuts.generators import planted_separator

from test_shared_neighbours import circulant


@pytest.mark.parametrize("g", [
    circulant(12, 3), circulant(16, 2), circulant(20, 4),
    planted_separator(3, 20, 1, random.Random(2))[0],
], ids=["C(12,3)", "C(16,2)", "C(20,4)", "planted"])
def test_a_source_with_complete_sets_looks_up_one_pair_at_most(monkeypatch,
                                                               g):
    pairs = PairCuts()
    real = flow.ProvenReach.__contains__
    late = defaultdict(set)     # (source, limit) -> pairs looked up late

    def contains(reach, w):
        # the scheme's own lookups; `PairCuts.cut` reads sets too
        if sys._getframe(1).f_code.co_name == "even_scheme":
            source, limit, back = next(
                key for key, r in pairs.reach.items() if r is reach)
            other = pairs.reach.get((source, limit, not back))
            if other is not None and \
                    len(reach.members) == len(other.members) == g.n:
                late[source, limit].add(w)
        return real(reach, w)

    want = fallback_exact(g)
    spent = PairCuts()
    fallback_exact(g, spent)
    monkeypatch.setattr(flow.ProvenReach, "__contains__", contains)
    assert fallback_exact(g, pairs) == want
    assert pairs.spent == spent.spent
    assert late, "no source's sets became complete"
    assert all(len(ws) == 1 for ws in late.values())


@pytest.mark.parametrize("g,kappa", [
    (circulant(12, 3), 3), (circulant(16, 2), 2), (circulant(20, 4), 4),
], ids=["C(12,3)", "C(16,2)", "C(20,4)"])
def test_sets_complete_when_built_are_recorded(g, kappa):
    # the first kappa sources' sets at kappa hold every vertex, some of
    # them already when built; each is recorded, so Even's argument holds
    pairs = PairCuts()
    assert fallback_exact(g, pairs)[0] == kappa
    assert pairs.complete[kappa] == set(range(1, kappa + 1))
    assert pairs.proves_at_least(g, kappa)
