"""Malformed input to the CLI exits 2 with a message, never 1.

Exit 1 means "found" or "Reject", so a traceback that exits 1 reads as
an answer.
"""

import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "localcuts.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


@pytest.mark.parametrize("params", ['{"side_left": 0}', '[1]'])
def test_gen_params_that_do_not_bind_exit_2(params):
    r = run_cli("gen", "planted_separator", "--params", params)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("option", [["--delta", "-1"],
                                    ["--undirected", "--gamma", "-1"]])
def test_mkecs_negative_budget_exits_2(tmp_path, option):
    # no edges: the decomposition needs no detection, so only the up-front
    # check can reject the budget
    path = tmp_path / "empty.txt"
    path.write_text("3 0\n")
    r = run_cli("mkecs", str(path), "--k", "2", *option)
    assert r.returncode == 2
    assert "must be non-negative" in r.stderr


@pytest.mark.parametrize("option", [
    ["--gamma", "1"],
    ["--undirected", "--delta", "1"],
    ["--baseline", "--delta", "1"],
    ["--baseline", "--undirected", "--gamma", "1"],
])
def test_mkecs_budget_the_driver_would_ignore_exits_2(tmp_path, option):
    path = tmp_path / "pair.txt"
    path.write_text("2 2\n1 2\n2 1\n")
    r = run_cli("mkecs", str(path), "--k", "1", *option)
    assert r.returncode == 2
    assert r.stderr.startswith("usage: ")
    assert "applies only to the local" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("value", ["inf", "nan", "-inf", "0"])
@pytest.mark.parametrize("undirected", [False, True])
def test_non_finite_confidence_exits_2(tmp_path, value, undirected):
    path = tmp_path / "k4.txt"
    path.write_text("4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    # "=" keeps argparse from reading "-inf" as an option
    r = run_cli("vertex-connectivity", str(path), "--confidence=" + value,
                *(["--undirected"] if undirected else []))
    assert r.returncode == 2
    assert r.stderr == "error: c must be positive and finite\n"
    assert r.stdout == ""


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_tester_degree_exits_2(tmp_path, value):
    path = tmp_path / "cycle.txt"
    path.write_text("3 3\n1 2\n2 3\n3 1\n")
    r = run_cli("test-connectivity", str(path), "--property", "edge",
                "--k", "1", "--epsilon", "0.5", "--model", "bounded",
                "--degree", value)
    assert r.returncode == 2
    assert r.stderr == "error: degree must be positive and finite\n"
    assert r.stdout == ""


@pytest.mark.parametrize("start", ["0", "4", "7"])
@pytest.mark.parametrize("command", [
    ["oracle", "--kind", "min-edge-out"],
    ["detect-edge-component", "--k", "1", "--delta", "2"],
])
def test_start_outside_the_vertices_exits_2(tmp_path, command, start):
    path = tmp_path / "triangle.txt"
    path.write_text("3 3\n1 2\n2 3\n3 1\n")
    r = run_cli(command[0], str(path), "--start", start, *command[1:])
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr
    assert r.stdout == ""
