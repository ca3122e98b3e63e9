import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "localcuts.cli"]


def run_cli(*args, stdin=None):
    return subprocess.run(CLI + list(args), input=stdin,
                          capture_output=True, text=True)


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text("# a directed triangle\n3 3\n1 2\n2 3\n3 1\n")
    return str(path)


@pytest.fixture
def clique_file(tmp_path):
    pairs = [(a, b) for a in range(1, 5) for b in range(1, 5) if a != b]
    lines = ["4 %d" % len(pairs)] + ["%d %d" % p for p in pairs]
    path = tmp_path / "clique.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_detect_edge_component_exit_codes(cycle_file):
    # the whole triangle is a 0-edge-out component: found, exit 1
    r = run_cli("detect-edge-component", cycle_file,
                "--start", "1", "--k", "1", "--delta", "5", "--seed", "0")
    assert r.returncode == 1
    out = json.loads(r.stdout)
    assert out["found"]
    assert out["members"] == [1, 2, 3]


def test_detect_edge_component_not_found(clique_file):
    r = run_cli("detect-edge-component", clique_file,
                "--start", "1", "--k", "1", "--delta", "1",
                "--p", "0.9", "--seed", "0")
    assert r.returncode == 0
    assert not json.loads(r.stdout)["found"]


def test_reads_graph_from_stdin():
    r = run_cli("detect-edge-component", "-",
                "--start", "1", "--k", "0", "--delta", "5",
                stdin="2 2\n1 2\n2 1\n")
    assert r.returncode == 1
    assert json.loads(r.stdout)["members"] == [1, 2]


def test_vertex_connectivity_command(clique_file, cycle_file):
    r = run_cli("vertex-connectivity", clique_file)
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"kappa": 3, "cut": None}
    r = run_cli("vertex-connectivity", cycle_file)
    assert r.returncode == 1
    out = json.loads(r.stdout)
    assert out["kappa"] == 1
    assert out["cut"]["size"] == 1


def test_mkecs_command(tmp_path):
    # two bidirected triangles joined by single edges: k=2 splits them
    path = tmp_path / "two.txt"
    tri = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]
    pairs = [p for (a, b) in tri for p in ((a, b), (b, a))]
    pairs += [(3, 4), (6, 1)]
    lines = ["6 %d" % len(pairs)] + ["%d %d" % p for p in pairs]
    path.write_text("\n".join(lines) + "\n")
    r = run_cli("mkecs", str(path), "--k", "2", "--seed", "1")
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["1 2 3", "4 5 6"]
    rb = run_cli("mkecs", str(path), "--k", "2", "--baseline")
    assert rb.stdout == r.stdout


def test_tester_command(tmp_path, clique_file):
    blocks = tmp_path / "blocks.txt"
    # three disjoint directed triangles, far from 2-edge-connected
    lines = ["9 9"]
    for base in (0, 3, 6):
        lines += ["%d %d" % (base + i, base + i % 3 + 1)
                  for i in (1, 2, 3)]
    blocks.write_text("\n".join(lines) + "\n")
    r = run_cli("test-connectivity", str(blocks), "--property", "edge",
                "--k", "2", "--epsilon", "0.5", "--trials", "5",
                "--seed", "3")
    assert r.returncode == 1
    assert json.loads(r.stdout)["verdict"] == "Reject"
    r = run_cli("test-connectivity", clique_file, "--property", "edge",
                "--k", "2", "--epsilon", "0.5", "--seed", "3")
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] == "Accept"


@pytest.mark.parametrize("family,params", [
    ("clique_union", {"count": 2, "size": 3}),
    ("figure_shape", {}),
])
def test_gen_undirected_family_round_trips(family, params):
    from localcuts import generators
    from localcuts.graph import load_undirected_edge_list
    r = run_cli("gen", family, "--params", json.dumps(params))
    assert r.returncode == 0, r.stderr
    g, _ = generators.generate(generators.GeneratorSpec(family, params, 0))
    assert load_undirected_edge_list(r.stdout) == g


def test_gen_and_oracle_roundtrip(tmp_path):
    out = tmp_path / "gen.txt"
    cert = tmp_path / "cert.json"
    r = run_cli("gen", "planted_separator",
                "--params", json.dumps({"side_left": 4, "side_right": 4,
                                        "sep_size": 1}),
                "--seed", "5", "--output", str(out),
                "--certificate", str(cert))
    assert r.returncode == 0
    meta = json.loads(cert.read_text())
    assert len(meta["middle"]) == 1
    r = run_cli("oracle", str(out), "--kind", "vertex-connectivity")
    assert r.returncode == 0
    assert json.loads(r.stdout)["kappa"] <= 1


def test_experiment_command(tmp_path):
    config = {
        "experiment": "detect_edge", "seed": 1, "trials": 5,
        "instance": {"family": "planted_edge_component",
                     "params": {"component_size": 4, "k": 1,
                                "blob_edges": 50}},
        "task": {"k": 1, "delta": 6},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    csvp = tmp_path / "report.csv"
    r = run_cli("experiment", str(cfg), "--output", str(out),
                "--csv", str(csvp))
    assert r.returncode == 0
    report = json.loads(out.read_text())
    assert report["aggregates"]["trials"] == 5
    assert csvp.read_text().startswith("found,")


@pytest.mark.parametrize("config,message", [
    ({}, "'experiment'"),
    ({"experiment": "detect_edge", "seed": 1, "trials": 1,
      "instance": {"family": "cycle_union"}, "task": {"k": 1}}, "'delta'"),
    ([1, 2], "not an object"),
    ({"experiment": "detect_edge", "seed": 1, "trials": -2,
      "instance": {"family": "cycle_union"}, "task": {"k": 1, "delta": 2}},
     "trials must be non-negative"),
    ({"experiment": "detect_vertex", "seed": 1, "trials": 1,
      "instance": {"family": "cycle_union"},
      "task": {"k": 1, "delta": 2, "p": None}}, "p must be a real number"),
    ({"experiment": "detect_vertex", "seed": 1, "trials": 1,
      "instance": {"family": "cycle_union"},
      "task": {"k": 1, "delta": 2, "p": [0.9]}}, "p must be a real number"),
    ({"experiment": "detect_vertex", "seed": 1, "trials": 1,
      "instance": {"family": "cycle_union"},
      "task": {"k": 1, "delta": 2, "p": "0.9"}}, "p must be a real number"),
    ({"experiment": "detect_vertex", "seed": 1, "trials": 1,
      "instance": {"family": "cycle_union"},
      "task": {"k": 1, "delta": 2, "symmetric": "no"}},
     "symmetric must be a boolean"),
])
def test_malformed_experiment_config_exits_2(tmp_path, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    r = run_cli("experiment", str(cfg), "--output",
                str(tmp_path / "report.json"))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and message in r.stderr
    assert "Traceback" not in r.stderr


def test_bad_input_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n1 9\n")
    r = run_cli("vertex-connectivity", str(bad))
    assert r.returncode == 2
    assert "error:" in r.stderr
    r = run_cli("detect-edge-component", str(tmp_path / "missing.txt"),
                "--start", "1", "--k", "1", "--delta", "1")
    assert r.returncode == 2


def test_edge_list_error_reports_line_number(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 2\nbogus line\n")
    r = run_cli("vertex-connectivity", str(bad))
    assert r.returncode == 2
    assert "line 3" in r.stderr


@pytest.mark.parametrize("prop", ["edge", "vertex"])
@pytest.mark.parametrize("text,code,verdict", [("2 0\n", 1, "Reject"),
                                               ("1 0\n", 0, "Accept")])
def test_tester_command_on_edgeless_graphs(tmp_path, prop, text, code,
                                           verdict):
    # with no edges the default degree m/n would be 0; it falls back to 1
    path = tmp_path / "edgeless.txt"
    path.write_text(text)
    r = run_cli("test-connectivity", str(path), "--property", prop,
                "--k", "1", "--epsilon", "0.5")
    assert r.returncode == code, r.stderr
    out = json.loads(r.stdout)
    assert out["verdict"] == verdict
