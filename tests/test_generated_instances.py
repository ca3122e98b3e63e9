"""Generated instances are pinned: a seed gives the same graph, edge for
edge and in the same id order, whatever way the generators build it.

Each digest is the sha256 of the instance's `dump_edge_list` text (the
header "n m", then one "tail head" line per edge id).  A change to a
generator that moves one rng draw or one edge changes the digest, and
with it every benchmark instance and every seeded test built on it.
"""

import hashlib
import random

import pytest

from localcuts.generators import (FAMILIES, GeneratorSpec, generate,
                                  planted_edge_component)
from localcuts.graph import dump_edge_list

PARAMS = {
    "random_digraph": {"n": 30, "m": 120},
    "planted_edge_component": {"component_size": 6, "k": 2,
                               "blob_edges": 200},
    "planted_separator": {"side_left": 8, "side_right": 9, "sep_size": 3},
    "clique_union": {"count": 3, "size": 5},
    "cycle_union": {"count": 4, "length": 6},
    "figure_shape": {},
}

PINNED = {
    ("random_digraph", 1):
        "a413aa3324d6d1f6abcb84d82f51c1a2d705a32a7bedc958900c9b7d49b7dd33",
    ("random_digraph", 2):
        "964176b1ede0d5d343f6d926eae5e34a603d8d0cff2b94c17235d1954f9aaea9",
    ("planted_edge_component", 1):
        "bdd0219e843b58cfce5c09505c7552c0723951cad39af64c74b9983df7d55d1e",
    ("planted_edge_component", 2):
        "77a44a80b88f50af2ec7cd0357dadb767526bd0c060d8d1885e0c8dddd490498",
    ("planted_separator", 1):
        "340746e2610fb6da8cad203aa20cf4276b0bfd1e658c0bb7dfe2bcba2ee14573",
    ("planted_separator", 2):
        "61acda38fd2fe356429de8170d985d7a1826290e77510a7dbd78193e83c7fa1a",
    ("clique_union", 1):
        "e6a3ce61b3a8dcd9d3e78f95e5a624a4c892d27f036d66e157ac918491f8a291",
    ("clique_union", 2):
        "e6a3ce61b3a8dcd9d3e78f95e5a624a4c892d27f036d66e157ac918491f8a291",
    ("cycle_union", 1):
        "1c3bcd1e5867a3e64c0eee8c32c95cef6111e61dffac46a6f9e9496493cd55f9",
    ("cycle_union", 2):
        "1c3bcd1e5867a3e64c0eee8c32c95cef6111e61dffac46a6f9e9496493cd55f9",
    ("figure_shape", 1):
        "b632cf1cadf35ad44d72c92dd2d71dc7df1a4af731a9b00236eadcfea7b28314",
    ("figure_shape", 2):
        "b632cf1cadf35ad44d72c92dd2d71dc7df1a4af731a9b00236eadcfea7b28314",
}

# the detect-large shape at a tenth of its size
LARGE_PLANTED = (
    "1bfc2d98be47d170fbb6d94c668f2696665157d5e1cf7ea73818efa5238db799")


def digest(g):
    return hashlib.sha256(dump_edge_list(g).encode()).hexdigest()


def test_every_family_is_pinned():
    assert set(PARAMS) == set(FAMILIES)


@pytest.mark.parametrize("family, seed", sorted(PINNED))
def test_instance_matches_its_pin(family, seed):
    g, _ = generate(GeneratorSpec(family, PARAMS[family], seed))
    assert digest(g) == PINNED[family, seed]


def test_large_planted_component_matches_its_pin():
    g, _ = planted_edge_component(10, 2, 20_000, random.Random(7))
    assert digest(g) == LARGE_PLANTED
