import csv
import json

import pytest

from localcuts import edge_cut, vertex_cut
from localcuts.experiment import (
    wilson_interval, run_experiment, deterministic_view, write_report,
)


EDGE_CONFIG = {
    "experiment": "detect_edge",
    "seed": 7,
    "trials": 40,
    "instance": {"family": "planted_edge_component",
                 "params": {"component_size": 4, "k": 1,
                            "blob_edges": 60}},
    "task": {"k": 1, "delta": 6},
    "start": 1,
}


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert 0.0 <= lo and hi <= 1.0
    # all successes still leaves headroom below one
    lo, hi = wilson_interval(100, 100)
    assert lo < 1.0 and hi == pytest.approx(1.0)


def test_rerun_is_byte_identical():
    r1 = run_experiment(EDGE_CONFIG)
    r2 = run_experiment(EDGE_CONFIG)
    assert deterministic_view(r1) == deterministic_view(r2)
    assert json.dumps(deterministic_view(r1), sort_keys=True) \
        == json.dumps(deterministic_view(r2), sort_keys=True)


def test_aggregates_are_consistent():
    report = run_experiment(EDGE_CONFIG)
    agg = report["aggregates"]
    found = sum(1 for rec in report["trials"] if rec["found"])
    assert agg["successes"] == found
    assert agg["trials"] == len(report["trials"]) == 40
    assert agg["max_processed"] <= agg["processed_bound"]
    lo, hi = agg["wilson_99"]
    assert lo <= agg["success_rate"] <= hi


def test_vertex_kind_runs():
    config = {
        "experiment": "detect_vertex",
        "seed": 3,
        "trials": 10,
        "instance": {"family": "planted_edge_component",
                     "params": {"component_size": 4, "k": 1,
                                "blob_edges": 60}},
        "task": {"k": 1, "delta": 8, "p": 0.75},
    }
    report = run_experiment(config)
    assert len(report["trials"]) == 10
    assert report["aggregates"]["max_processed"] \
        <= report["aggregates"]["processed_bound"]


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError):
        run_experiment({"experiment": "nope", "seed": 0, "trials": 1,
                        "instance": {}, "task": {}})


def test_write_report_json_and_csv(tmp_path):
    report = run_experiment(dict(EDGE_CONFIG, trials=5))
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    write_report(report, jpath, csv_path=cpath)
    loaded = json.loads(jpath.read_text())
    assert deterministic_view(loaded) == deterministic_view(report)
    with open(cpath, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert rows[0]["trial"] == "0"
    assert set(rows[0]) == set(report["trials"][0])


def test_vertex_bound_is_the_vertex_detector_budget_per_repetition():
    config = {
        "experiment": "detect_vertex",
        "seed": 5,
        "trials": 3,
        "instance": {"family": "planted_edge_component",
                     "params": {"component_size": 4, "k": 1,
                                "blob_edges": 60}},
        "task": {"k": 2, "delta": 7, "p": 0.9},
    }
    bound = run_experiment(config)["aggregates"]["processed_bound"]
    assert bound == vertex_cut.trial_edge_bound(2, 7) \
        * edge_cut.repetitions_for(0.9)


@pytest.mark.parametrize("kind", ["detect_edge", "detect_vertex"])
@pytest.mark.parametrize("family,params,size", [
    ("figure_shape", {}, 7), ("clique_union", {"count": 2, "size": 4}, 4)])
def test_undirected_families_run_on_their_antiparallel_pairs(kind, family,
                                                             params, size):
    config = {"experiment": kind, "seed": 2, "trials": 3,
              "instance": {"family": family, "params": params},
              "task": {"k": 2, "delta": 8, "p": 0.9}}
    report = run_experiment(config)
    assert report["aggregates"]["max_processed"] \
        <= report["aggregates"]["processed_bound"]
    # the component of the start has nothing leaving it, in both
    # orientations, and fits the budget
    assert [rec["members"] for rec in report["trials"]] == [size] * 3


@pytest.mark.parametrize("where,key,value", [
    (None, "seed", 2.7), (None, "seed", True), (None, "seed", "7"),
    (None, "trials", 2.7), (None, "trials", True), (None, "trials", None),
    ("task", "k", 1.5), ("task", "k", False),
    ("task", "delta", 6.0), ("task", "delta", True),
    (None, "start", 1.2), (None, "start", True)])
def test_non_integer_counts_are_rejected(where, key, value):
    config = dict(EDGE_CONFIG, trials=2)
    if where is None:
        config[key] = value
    else:
        config[where] = dict(config[where], **{key: value})
    with pytest.raises(ValueError, match="%s must be an integer" % key):
        run_experiment(config)


@pytest.mark.parametrize("key,value,message", [
    ("p", None, "p must be a real number"),
    ("p", [0.9], "p must be a real number"),
    ("p", "0.9", "p must be a real number"),
    ("p", True, "p must be a real number"),
    ("symmetric", "no", "symmetric must be a boolean"),
    ("symmetric", 1, "symmetric must be a boolean"),
    ("symmetric", None, "symmetric must be a boolean")])
def test_malformed_vertex_task_values_are_rejected(key, value, message):
    config = {"experiment": "detect_vertex", "seed": 3, "trials": 2,
              "instance": EDGE_CONFIG["instance"],
              "task": {"k": 1, "delta": 8, "p": 0.75, key: value}}
    with pytest.raises(ValueError, match=message):
        run_experiment(config)


def test_integer_p_is_a_real_number():
    config = {"experiment": "detect_vertex", "seed": 3, "trials": 2,
              "instance": EDGE_CONFIG["instance"],
              "task": {"k": 1, "delta": 8, "p": 0, "symmetric": True}}
    report = run_experiment(config)
    assert report["aggregates"]["processed_bound"] \
        == vertex_cut.trial_edge_bound(1, 8)
