"""Trial counts of amplified detection, and the 1 - n^-3 target.

`repetitions_for(1 - 2^-t)` must be t: 1 - p is then a power of two,
and a logarithm taken through a change of base lands just above t for
some t.  The 1 - n^-3 target of mkecs and the sweep rounds to 1.0 from
n = 2^18 on, so `high_probability` floors its failure at 2^-53.
"""

import math
import random

import pytest

from localcuts.connectivity import is_connectivity_at_least
from localcuts.edge_cut import high_probability, repetitions_for
from localcuts.graph import Graph


def change_of_base_count(p):
    """The count as computed through math.log(x, 2)."""
    return max(1, math.ceil(math.log(1.0 / (1.0 - p), 2.0)))


def test_every_power_of_two_target_maps_to_its_exponent():
    assert [repetitions_for(1.0 - 2.0 ** -t) for t in range(1, 54)] \
        == list(range(1, 54))


def test_counts_elsewhere_are_unchanged():
    # 8192^3 = 2^39: there the change of base gives 40
    for n in range(2, 20001):
        p = 1.0 - 1.0 / n ** 3
        want = 39 if n == 8192 else change_of_base_count(p)
        assert repetitions_for(p) == want, n
    for p in (0.0, 0.5, 5 / 6, 0.9, 0.99):
        assert repetitions_for(p) == change_of_base_count(p)


def large_sizes():
    """n = 2..2^18 + 1000, then every power of two up to 2^40, its
    neighbours and random sizes in between."""
    yield from range(2, 2 ** 18 + 1000)
    rng = random.Random(0)
    for e in range(18, 41):
        yield from (2 ** e - 1, 2 ** e, 2 ** e + 1)
        yield from (rng.randrange(2 ** e, 2 ** (e + 1)) for _ in range(100))


def test_high_probability_target_never_raises_and_holds_below_2_18():
    for n in large_sizes():
        t = repetitions_for(high_probability(n))
        assert 1 <= t <= 53, n
        if n < 2 ** 18:
            assert t == repetitions_for(1.0 - 1.0 / n ** 3), n
        else:
            assert t == 53, n
    with pytest.raises(ValueError):
        repetitions_for(1.0 - 1.0 / (2 ** 18) ** 3)


def test_connectivity_decides_a_cycle_of_2_18_vertices():
    n = 2 ** 18
    g = Graph(n, [(v, v % n + 1) for v in range(1, n + 1)])
    verdict = is_connectivity_at_least(g, 2, random.Random(1))
    assert verdict.found
    # Even's scheme decides the probe within the sampled probe's cost
    assert verdict.exact[0] == 1
    assert verdict.cut.size == 1
    assert verdict.cut.validate(g)
