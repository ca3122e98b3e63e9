"""Tests of the benchmark itself: reduced-size smoke runs, the output
checks against deliberately corrupted results, and the span recorder.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from localcuts import (connectivity, edge_cut, mkecs, testers,  # noqa: E402
                       vertex_cut)
from localcuts.connectivity import VertexCut  # noqa: E402
from localcuts.generators import planted_edge_component  # noqa: E402
from localcuts.graph import Graph, UndirectedGraph  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "3", "--seconds", "0.3", "--trace", str(trace), "--scale", "0.3"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    values = {name: v["value"] for name, v in result["metrics"].items()}
    if trace:
        layers = sum(values[layer + ".self_ms"] for layer in spans.LAYERS)
        assert layers == pytest.approx(values["trace.call_ms"], rel=1e-9)
    else:
        report = json.loads(lines[-2])["report"]
        assert report["failed"] + report["wrong"] == result["failed"]
        assert all(v > 0 for name, v in values.items()
                   if name != "found_frac")


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("tester-mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_connectivity_check_flags_a_dropped_middle_vertex():
    g = Graph(8, instances.circulant_pairs(8, 2))
    kappa, cut = connectivity.vertex_connectivity_directed(
        g, random.Random(0))
    assert checks.check_connectivity(g, 2, kappa, cut) is None
    dropped = VertexCut(cut.left, frozenset(sorted(cut.middle)[1:]),
                        cut.right)
    assert checks.check_connectivity(g, 2, kappa, dropped) is not None


def test_mkecs_check_flags_a_split_class():
    pairs, blocks = instances.clique_chain(3, 2, random.Random(0))
    g = UndirectedGraph(18, pairs).to_directed()
    ref = mkecs.baseline_mkecs(g, 3)
    dec = mkecs.mkecs_directed(g, 3, random.Random(0))
    assert checks.check_mkecs(ref, dec) is None
    first = sorted(dec.classes[0])
    split = [frozenset(first[:2]), frozenset(first[2:])] + dec.classes[1:]
    assert checks.check_mkecs(ref, mkecs.Decomposition(3, split)) is not None


@pytest.fixture(scope="module")
def planted():
    g, cert = planted_edge_component(10, 2, 2000, random.Random(5))
    return g, next(v for v in g.vertices() if v not in cert["component"])


def test_edge_detector_check_flags_an_extra_vertex(planted):
    g, outsider = planted
    res = edge_cut.detect_component_param(g, 1, 2, 12, 0.99,
                                          random.Random(1))
    assert res and checks.check_edge_component(g, 1, 2, 12, 0.99, res) is None
    bad = dataclasses.replace(res, members=res.members | {outsider})
    assert checks.check_edge_component(g, 1, 2, 12, 0.99, bad) is not None


def test_vertex_detector_check_flags_an_extra_vertex(planted):
    g, outsider = planted
    res = vertex_cut.detect_vertex_out_component(
        g, 1, 2, 12, 0.99, random.Random(1), symmetric=True)
    assert res
    assert checks.check_vertex_component(g, 1, 2, 12, 0.99, res) is None
    bad = dataclasses.replace(res, members=res.members | {outsider})
    assert checks.check_vertex_component(g, 1, 2, 12, 0.99, bad) is not None


def test_tester_check_flags_rejecting_a_connected_graph():
    g = Graph(5, instances.bidirected_clique_pairs(5))
    witness = edge_cut.ComponentResult(frozenset([1]), (), 0, 0, 1, 0)
    verdict = testers.TesterVerdict(False, witness, "out")
    assert checks.check_tester(g, 3, verdict, connected=True) is not None
    assert checks.check_tester(g, 3, verdict, connected=False) is not None


def test_recorder_self_times_add_up_and_uninstall_restores():
    originals = (edge_cut.detect_component_param,
                 mkecs.detect_component_param, Graph.__init__,
                 Graph.__dict__["from_edges"])
    pairs, _ = instances.clique_chain(4, 2, random.Random(2))
    und = UndirectedGraph(24, pairs)
    gd = und.to_directed()
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert mkecs.detect_component_param is not originals[1]
        for rng_seed in range(2):
            recorder.cell = "chain"
            mkecs.mkecs_directed(gd, 3, random.Random(rng_seed))
            mkecs.mkecs_undirected(und, 3, random.Random(rng_seed))
    finally:
        recorder.uninstall()
    assert originals == (edge_cut.detect_component_param,
                         mkecs.detect_component_param, Graph.__init__,
                         Graph.__dict__["from_edges"])
    m = spans.layer_metrics(recorder.spans)
    assert m["trace.calls"] == 4
    assert sum(m[layer + ".self_ms"] for layer in spans.LAYERS) == \
        pytest.approx(m["trace.call_ms"], rel=1e-12)
    assert m["mkecs.detections"] > 0
    assert m["edge_cut.calls"] == m["mkecs.detections"]
    assert m["graph.build_calls"] > 0


def test_workload_instances_depend_on_the_seed():
    a = workloads.tester_mix(1, 0.3).setup()
    b = workloads.tester_mix(2, 0.3).setup()
    again = workloads.tester_mix(1, 0.3).setup()
    assert [g.edges for g in a["circulant"]] == \
        [g.edges for g in again["circulant"]]
    assert [g.edges for g in a["circulant"]] != \
        [g.edges for g in b["circulant"]]


def test_global_cut_flows_leave_out_the_per_piece_baseline():
    pairs, _ = instances.clique_chain(3, 2, random.Random(4))
    gd = UndirectedGraph(18, pairs).to_directed()
    recorder = spans.Recorder()
    recorder.install()
    try:
        mkecs.mkecs_directed(gd, 3, random.Random(0))
    finally:
        recorder.uninstall()

    def in_baseline(i):
        while i >= 0:
            if recorder.spans[i][0] == "mkecs._baseline":
                return True
            i = recorder.spans[i][1]
        return False

    flows = [i for i, rec in enumerate(recorder.spans)
             if rec[0] == "flow.st_edge_cut_below"]
    per_piece = sum(in_baseline(i) for i in flows)
    assert 0 < per_piece < len(flows)
    m = spans.layer_metrics(recorder.spans)
    assert m["mkecs.global_cut_flows"] == len(flows) - per_piece


def test_host_speed_scales_to_the_reference_time():
    speed = run.HostSpeed()
    speed.samples = [4_000_000] * 5 + [1_000_000] * 5
    assert speed.factor(0) == pytest.approx(run.REF_MS / 4.0)
    assert speed.factor(9) == pytest.approx(run.REF_MS / 1.0)
    assert run.reference_task() == run.reference_task()
