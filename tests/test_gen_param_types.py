"""Generator params of the wrong type are bad input, not a crash.

A count given as a string used to reach the generator and end in a
TypeError traceback with exit 1, which the CLI uses for "Reject".
"""

import subprocess
import sys

import pytest

from localcuts.generators import GeneratorSpec, generate


def test_gen_string_count_exits_2():
    r = subprocess.run([sys.executable, "-m", "localcuts.cli", "gen",
                        "clique_union", "--params",
                        '{"count": "2", "size": 3}'],
                       capture_output=True, text=True)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "count must be int" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("family,params", [
    ("clique_union", {"count": 2, "size": True}),
    ("cycle_union", {"count": 2, "length": 3.0}),
    ("random_digraph", {"n": 4, "m": 3, "allow_parallel": 1}),
    ("planted_separator", {"side_left": 3, "side_right": 3,
                           "sep_size": None}),
    ("planted_edge_component", {"component_size": [4], "k": 1,
                                "blob_edges": 40}),
])
def test_generate_rejects_wrongly_typed_params(family, params):
    with pytest.raises(ValueError, match="must be"):
        generate(GeneratorSpec(family, params, 0))


@pytest.mark.parametrize("family,params", [
    ("random_digraph", {"n": 4, "m": 3, "allow_parallel": False}),
    ("planted_separator", {"side_left": 3, "side_right": 3, "sep_size": 1,
                           "extra_per_side": None}),
])
def test_generate_accepts_bools_and_none_where_allowed(family, params):
    g, _ = generate(GeneratorSpec(family, params, 0))
    assert g.n > 0
