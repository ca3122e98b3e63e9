"""localcuts benchmark: one workload, one closed-loop caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--scale F]

Run from the repository root; the library is imported from ./src.  One
caller in one thread makes one library call at a time.  With --trace 0
the run times whole rounds of calls until S seconds of call time have
passed and prints the end-to-end metrics, with every time scaled to a
reference host speed (HostSpeed).  With --trace 1 it runs a
fixed number of rounds, each untraced and then again under the span
recorder, and prints the per-layer metrics.  Every returned result
is checked; a call that raises is counted as failed under its exception
type and never retried.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; the line before it is a
report with the counts, rates and per-cell figures behind them.
"""

import argparse
import gc
import json
import pathlib
import random
import resource
import statistics
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent

def import_library():
    """Put ./src first on the path and import localcuts from it, or exit 2."""
    src = ROOT / "src"
    if not (src / "localcuts" / "__init__.py").is_file():
        sys.exit("bench: no localcuts sources under %s" % src)
    sys.path.insert(0, str(src))
    import localcuts
    if pathlib.Path(localcuts.__file__).resolve().parent.parent != src:
        sys.exit("bench: localcuts imported from %s, not from %s"
                 % (localcuts.__file__, src))


# Timings on a shared host drift by up to 1.75x over tens of seconds, with
# every call slowing down together.  A fixed pure-Python task, a DFS from
# 13 starts over a fixed random graph, tracks that drift to within a few
# percent; it is timed between calls, at least every REF_EVERY_NS, and
# every reported time is scaled to a host on which it takes REF_MS.
REF_MS = 2.0
REF_EVERY_NS = 100_000_000
REF_WINDOW = 2              # samples on each side of a call


def _reference_graph(n=400, degree=6):
    rng = random.Random("bench-reference-task")
    return [[rng.randrange(n) for _ in range(degree)] for _ in range(n)]


def reference_task(adj=_reference_graph()):
    """Sum of the reachable-set sizes from every 32nd vertex."""
    total = 0
    for s in range(0, len(adj), 32):
        seen = {s}
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        total += len(seen)
    return total


class HostSpeed:
    """Reference-task times taken during a run, and the factor that
    scales a time measured next to sample i to the reference speed."""

    def __init__(self):
        self.samples = []       # ns per reference task
        self.last = None        # clock at the end of the last sample

    def sample(self):
        """Time the reference task once; the index of the sample."""
        t0 = time.perf_counter_ns()
        reference_task()
        self.last = time.perf_counter_ns()
        self.samples.append(self.last - t0)
        return len(self.samples) - 1

    def due(self):
        """The latest sample's index, sampling first if it is stale."""
        if self.last is None or \
                time.perf_counter_ns() - self.last >= REF_EVERY_NS:
            return self.sample()
        return len(self.samples) - 1

    def factor(self, i):
        """REF_MS over the median of the samples around sample i: those
        before a call and, once the next is taken, after it."""
        window = self.samples[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
        return REF_MS * 1e6 / statistics.median(window)

    def ref_ms(self):
        return statistics.median(self.samples) / 1e6


def timed_setup(setup, min_reps=5, min_seconds=1.0):
    """Build the instances repeatedly, each time after freeing the last
    build and collecting garbage; (last state, median seconds at the
    reference speed, median raw seconds)."""
    speed = HostSpeed()
    raw = []
    state = None
    speed.sample()
    while len(raw) < min_reps or sum(raw) < min_seconds:
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = setup()
        raw.append(time.perf_counter() - t0)
        speed.sample()
    scaled = [t * speed.factor(i) for i, t in enumerate(raw)]
    return state, statistics.median(scaled), statistics.median(raw)


def measure(cells, seed, seconds=None, rounds=None, recorder=None, first=0,
            speed=None):
    """Run whole rounds of cells from round `first` on; stop after `rounds`
    rounds or once the timed call time reaches `seconds`, whichever comes
    first.

    Call r of cell c gets its own rng, seeded from (seed, r, c), so a
    second pass over the same rounds repeats the same calls exactly.
    With a HostSpeed, the reference task is timed between calls and once
    after the last.  Returns one record per call: (cell index, ns,
    status, found, queries, exception type or problem, index of the
    reference sample before the call), and the number of rounds run.
    """
    records = []
    timed_ns = 0
    limit_ns = None if seconds is None else int(seconds * 1e9)
    r = first
    clock = time.perf_counter_ns
    while (rounds is None or r < first + rounds) and \
            (limit_ns is None or timed_ns < limit_ns):
        for i, cell in enumerate(cells):
            rng = random.Random("%s:%d:%s" % (seed, r, cell.name))
            x = cell.draw(rng)
            ref = speed.due() if speed is not None else None
            if recorder is not None:
                recorder.cell = cell.name
                recorder.paused = False
            t0 = clock()
            try:
                result = cell.call(x, rng)
            except Exception as exc:
                dt = clock() - t0
                records.append((i, dt, "failed", False, None,
                                type(exc).__name__, ref))
                timed_ns += dt
                continue
            dt = clock() - t0
            timed_ns += dt
            if recorder is not None:
                recorder.paused = True
            problem = cell.check(x, result)
            found = (problem is None and cell.found is not None
                     and bool(cell.found(result)))
            queries = cell.queries(result) if cell.queries else None
            records.append((i, dt, "wrong" if problem else "ok", found,
                            queries, problem, ref))
        r += 1
    if speed is not None:
        speed.sample()
    return records, r - first


def summarize(cells, records, speed=None):
    """End-to-end figures and the report behind them; call times are
    scaled by `speed` when one is given."""
    def ms(rec):
        return rec[1] / 1e6 * (speed.factor(rec[6]) if speed else 1.0)

    attempted = len(records)
    returned = [rec for rec in records if rec[2] != "failed"]
    wrong = [rec for rec in records if rec[2] == "wrong"]
    failed = [rec for rec in records if rec[2] == "failed"]
    certifying = [rec for rec in returned if cells[rec[0]].found is not None]
    with_queries = [rec for rec in returned if rec[4] is not None]
    times_ms = [ms(rec) for rec in returned]
    failed_types = {}
    for rec in failed:
        failed_types[rec[5]] = failed_types.get(rec[5], 0) + 1
    per_cell = {}
    medians = []
    for i, cell in enumerate(cells):
        mine = [rec for rec in records if rec[0] == i]
        back = [rec for rec in mine if rec[2] != "failed"]
        row = {"m": cell.m, "calls": len(mine),
               "failed": len(mine) - len(back),
               "wrong": sum(1 for rec in back if rec[2] == "wrong")}
        if back:
            row["call_ms_p50"] = statistics.median(ms(rec) for rec in back)
            medians.append(row["call_ms_p50"])
        if cell.found is not None:
            row["found"] = sum(rec[3] for rec in back)
        if back and cell.queries is not None:
            row["queries_per_call"] = (sum(rec[4] for rec in back)
                                       / len(back))
        per_cell[cell.name] = row
    metrics = {
        "call_ms_p50_gmean": statistics.geometric_mean(medians),
        "ok_calls_per_s": (sum(1 for rec in records if rec[2] == "ok")
                           / (sum(ms(rec) for rec in records) / 1e3)),
        "found_frac": sum(rec[3] for rec in certifying) / len(certifying),
    }
    report = {
        "calls": attempted,
        "call_ms_p50": statistics.median(times_ms),
        "call_ms_p50_samples": len(times_ms),
        "failed_frac": len(failed) / attempted,
        "failed": len(failed),
        "failed_types": failed_types,
        "wrong_frac": len(wrong) / len(returned) if returned else 0.0,
        "wrong": len(wrong),
        "wrong_problems": sorted({rec[5] for rec in wrong}),
        "found_frac_samples": len(certifying),
        "timed_s": sum(rec[1] for rec in records) / 1e9,
    }
    if speed is not None:
        report["ref_ms"] = speed.ref_ms()
    # the 90th percentile needs at least ten samples beyond it
    if len(times_ms) >= 100:
        report["call_ms_p90"] = statistics.quantiles(times_ms, n=10)[-1]
    if with_queries:
        report["queries_per_call"] = (sum(rec[4] for rec in with_queries)
                                      / len(with_queries))
    report["cells"] = per_cell
    return metrics, report, attempted, len(failed) + len(wrong), not wrong


def cell_mean_ms(cells, records, name):
    times = [rec[1] for rec in records
             if cells[rec[0]].name == name and rec[2] != "failed"]
    return sum(times) / len(times) / 1e6 if times else 0.0


def run_untraced(workload, seed, seconds):
    state, setup_s, setup_raw_s = timed_setup(workload.setup)
    cells = workload.cells(state)
    speed = HostSpeed()
    records, rounds = measure(cells, seed, seconds=seconds, speed=speed)
    metrics, report, attempted, failed, correct = summarize(cells, records,
                                                            speed)
    metrics["setup_s"] = setup_s
    report["setup_raw_s"] = setup_raw_s
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    assert "spans" not in sys.modules, "untraced run imported the recorder"
    report["rounds"] = rounds
    return metrics, report, attempted, failed, correct


def run_traced(workload, seed, seconds):
    """Each round runs untraced, then again traced, so that both passes
    see the same machine state; stops after workload.trace_rounds rounds
    or once the untraced calls have taken half of `seconds`."""
    import spans
    cells = workload.cells(workload.setup())
    recorder = spans.Recorder()
    plain, traced = [], []
    plain_ns = rounds = 0
    while rounds < workload.trace_rounds and plain_ns < seconds / 2 * 1e9:
        records, _ = measure(cells, seed, rounds=1, first=rounds)
        plain += records
        plain_ns += sum(rec[1] for rec in records)
        recorder.install()
        try:
            records, _ = measure(cells, seed, rounds=1, first=rounds,
                                 recorder=recorder)
        finally:
            recorder.uninstall()
        traced += records
        rounds += 1
    metrics = spans.layer_metrics(recorder.spans)
    metrics["trace.overhead_frac"] = (sum(rec[1] for rec in traced)
                                      / plain_ns - 1.0)
    # local mkecs against its own baseline on the same peeling chains,
    # timed in the untraced pass; 0 on workloads without those cells
    base = cell_mean_ms(cells, plain, "baseline_mkecs/peel")
    local = [cell_mean_ms(cells, plain, name) for name in
             ("mkecs_directed/peel", "mkecs_undirected/peel")]
    metrics["mkecs.local_over_baseline"] = (sum(local) / len(local) / base
                                            if base else 0.0)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / ("spans-%s-%s.jsonl" % (workload.name, seed))
    recorder.write(path)
    records = plain + traced
    _, report, attempted, failed, correct = summarize(cells, records)
    report["rounds"] = rounds
    report["spans"] = len(recorder.spans)
    report["spans_file"] = str(path.relative_to(ROOT))
    return metrics, report, attempted, failed, correct


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    import_library()
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", type=float, default=1.0,
                    help="instance size factor; 1 is the benchmark")
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        ap.error("--seconds and --scale must be positive")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    run = run_traced if args.trace else run_untraced
    values, report, attempted, failed, correct = run(
        workload, args.seed, args.seconds)
    metrics = {}
    for m in declared_metrics(args.trace):
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    report = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  scale=args.scale, **report)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
