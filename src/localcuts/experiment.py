"""Deterministic experiment runner with JSON reports and optional CSV.

A config names an instance family, a detection task, and a trial count;
each trial draws its RNG from (master seed, trial index), so reruns with
the same config produce byte-identical trial records.
"""

import csv
import json
import math
import random
import time

from . import edge_cut, vertex_cut
from .generators import GeneratorSpec, generate
from .graph import UndirectedGraph


def wilson_interval(successes, trials, z=2.576):
    """Wilson score interval (default z for 99% coverage)."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _trial_rng(master_seed, index):
    return random.Random("%d:%d" % (master_seed, index))


def run_experiment(config):
    """Execute one experiment config; returns the report dict.

    Config keys:
      experiment: "detect_edge" or "detect_vertex"
      seed: master seed (int)
      trials: trial count, non-negative
      instance: {"family": ..., "params": {...}} (regenerated per trial
                from the trial RNG, so instances vary but reproducibly;
                an undirected family is run on its antiparallel pairs)
      task: detector parameters (k, delta, and for detect_vertex: p,
            symmetric)
      start: start vertex (default 1)
    A config that is not an object, lacks a key, gives seed, trials,
    k, delta or start as anything but an integer, p as anything but a
    real number or symmetric as anything but a boolean raises
    ValueError.
    """
    if not isinstance(config, dict):
        raise ValueError("config is not an object")
    try:
        kind = config["experiment"]
        seed, trials = config["seed"], config["trials"]
        task, inst = config["task"], config["instance"]
        k, delta, family = task["k"], task["delta"], inst["family"]
    except KeyError as exc:
        raise ValueError("config has no key %s" % exc) from None
    except TypeError as exc:
        raise ValueError("malformed config: %s" % exc) from None
    if kind not in ("detect_edge", "detect_vertex"):
        raise ValueError("unknown experiment kind %r" % (kind,))
    start = config.get("start", 1)
    for name, value in (("seed", seed), ("trials", trials), ("k", k),
                        ("delta", delta), ("start", start)):
        # JSON true is a Python bool, which int() would take as 1
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError("%s must be an integer, got %r" % (name, value))
    if trials < 0:
        raise ValueError("trials must be non-negative, got %d" % trials)
    p, symmetric = task.get("p", 0.5), task.get("symmetric", False)
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise ValueError("p must be a real number, got %r" % (p,))
    if not isinstance(symmetric, bool):
        raise ValueError("symmetric must be a boolean, got %r"
                         % (symmetric,))

    t0 = time.perf_counter()
    records = []
    successes = 0
    max_processed = 0
    for i in range(trials):
        rng = _trial_rng(seed, i)
        spec = GeneratorSpec(family, inst.get("params", {}),
                             rng.randrange(2 ** 32))
        g, _cert = generate(spec)
        if isinstance(g, UndirectedGraph):
            # the antiparallel encoding, as `gen --directed` writes it
            g = g.to_directed()
        if kind == "detect_edge":
            res = edge_cut.detect_component(g, start, k, delta, rng)
            found = bool(res)
            rec = {"trial": i, "found": found,
                   "members": len(res.members),
                   "out_edges": len(res.out_edges),
                   "queries": res.queries_used,
                   "processed": res.edges_processed}
        else:
            res = vertex_cut.detect_vertex_out_component(
                g, start, k, delta, p, rng, symmetric=symmetric)
            found = bool(res)
            rec = {"trial": i, "found": found,
                   "members": len(res.members),
                   "boundary": len(res.boundary),
                   "queries": res.queries_used,
                   "processed": res.edges_processed}
        successes += found
        max_processed = max(max_processed, rec["processed"])
        records.append(rec)
    elapsed = time.perf_counter() - t0

    if kind == "detect_edge":
        bound = edge_cut.trial_edge_bound(k, delta)
    else:
        bound = vertex_cut.trial_edge_bound(k, delta) \
            * edge_cut.repetitions_for(p)
    lo, hi = wilson_interval(successes, trials)
    report = {
        "config": config,
        "trials": records,
        "aggregates": {
            "trials": trials,
            "successes": successes,
            "success_rate": successes / trials if trials else 0.0,
            "wilson_99": [lo, hi],
            "max_processed": max_processed,
            "processed_bound": bound,
        },
        "wall_clock_sec": elapsed,
    }
    return report


def deterministic_view(report):
    """Report with volatile fields stripped, for rerun comparison."""
    return {"config": report["config"], "trials": report["trials"],
            "aggregates": report["aggregates"]}


def write_report(report, json_path, csv_path=None):
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if csv_path:
        fields = sorted({k for rec in report["trials"] for k in rec})
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for rec in report["trials"]:
                writer.writerow(rec)
