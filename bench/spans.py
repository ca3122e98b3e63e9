"""Span recorder for the traced run, and the per-layer metrics it yields.

Wrappers are installed around public library functions wherever they
are looked up: every module attribute bound to the original function is
replaced, so names imported with `from .x import f` are covered along
with `module.f` lookups, and methods are replaced on their class.  A
span is [name, parent index, start ns, end ns, counts, cell]; spans stay
in memory until the run writes them out.  Only the benchmark's traced
run imports this module.
"""

import json
import sys
import time

# (module, attribute) of every wrapped function; the module is the layer.
WRAPPED = (
    ("graph", "Graph.__init__"), ("graph", "Graph.from_edges"),
    ("graph", "UndirectedGraph.to_directed"), ("graph", "reverse_graph"),
    ("graph", "strongly_connected_components"),
    ("graph", "undirected_components"), ("graph", "Overlay.flip"),
    ("edge_cut", "detect_component_param"), ("edge_cut", "detect_component"),
    ("edge_cut", "budgeted_dfs"),
    ("vertex_cut", "detect_vertex_out_component"),
    ("vertex_cut", "detect_component_volume"),
    ("vertex_cut", "SplitGraph.__init__"), ("vertex_cut", "symmetric_volume"),
    ("vertex_cut", "boundary_of"),
    ("flow", "st_vertex_cut_at_most"), ("flow", "st_edge_cut_below"),
    ("flow", "vertex_split_network"), ("flow", "edge_flow_network"),
    ("connectivity", "vertex_connectivity_directed"),
    ("connectivity", "vertex_connectivity_undirected"),
    ("connectivity", "is_connectivity_at_least"),
    ("connectivity", "sample_pair_step"), ("connectivity", "local_sweep_step"),
    ("connectivity", "fallback_exact"),
    ("connectivity", "scan_first_certificate"),
    ("mkecs", "mkecs_directed"), ("mkecs", "mkecs_undirected"),
    ("mkecs", "baseline_mkecs"),
    # private, wrapped only to mark the flows of the per-piece baseline
    # so that mkecs.global_cut_flows can leave them out
    ("mkecs", "_baseline"),
    ("testers", "test_k_edge_connectivity"),
    ("testers", "test_k_vertex_connectivity"),
    ("testers", "local_decision_edge"), ("testers", "local_decision_vertex"),
)

LAYERS = ("graph", "edge_cut", "vertex_cut", "flow", "connectivity", "mkecs",
          "testers")


def _detection(r):
    return r.queries_used, r.trials_used, r.edges_processed, bool(r)


def _tester(v):
    return v.queries_used, v.samples_used


# Counts taken from returned results, keyed by span name.
EXTRACT = {
    "edge_cut.detect_component_param": _detection,
    "vertex_cut.detect_vertex_out_component": _detection,
    "testers.test_k_edge_connectivity": _tester,
    "testers.test_k_vertex_connectivity": _tester,
    "testers.local_decision_edge": lambda t: t[2],
    "testers.local_decision_vertex": lambda t: t[2],
    "connectivity.is_connectivity_at_least": lambda v: v.stats.get("mode"),
    "flow.st_vertex_cut_at_most": lambda r: r is not None,
    "flow.st_edge_cut_below": lambda r: r is not None,
}

BUILD = {"graph.Graph.__init__", "graph.Graph.from_edges",
         "graph.UndirectedGraph.to_directed", "graph.reverse_graph"}
SCC = {"graph.strongly_connected_components", "graph.undirected_components"}
QUERIES = {"edge_cut.detect_component_param",
           "vertex_cut.detect_vertex_out_component",
           "testers.test_k_edge_connectivity",
           "testers.test_k_vertex_connectivity",
           "testers.local_decision_edge", "testers.local_decision_vertex"}
MKECS_LOCAL = {"mkecs.mkecs_directed", "mkecs.mkecs_undirected"}
FLOW_CUTS = {"flow.st_vertex_cut_at_most", "flow.st_edge_cut_below"}
TESTERS = {"testers.test_k_edge_connectivity",
           "testers.test_k_vertex_connectivity"}
CONNECTIVITY = {"connectivity.vertex_connectivity_directed",
                "connectivity.vertex_connectivity_undirected"}


class Recorder:
    """Records spans while installed; `paused` passes calls straight on."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.cell = None
        self.paused = False
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        extract = EXTRACT.get(name)

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, parent, clock(), 0, None,
                   self.cell if parent < 0 else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if extract is not None:
                rec[4] = extract(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n.split(".")[0] == "localcuts" and m is not None]
        for modname, attr in WRAPPED:
            mod = sys.modules["localcuts." + modname]
            name = "%s.%s" % (modname, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            orig = getattr(mod, attr)
            new = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, new)
                        self._restore.append((m, key, orig))

    def uninstall(self):
        for owner, key, val in reversed(self._restore):
            setattr(owner, key, val)
        self._restore.clear()

    def write(self, path):
        """JSON lines: a header naming the fields and span names, then one
        [parent, name index, start ns, end ns, cell] row per span, with
        times relative to the first span; a row's line number less two
        is its id."""
        names = sorted({rec[0] for rec in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["parent", "name", "start_ns",
                                            "end_ns", "cell"],
                                 "names": names}) + "\n")
            for name, parent, start, end, _counts, cell in self.spans:
                fh.write(json.dumps([parent, index[name], start - t0,
                                     end - t0, cell]) + "\n")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans):
    """Per-layer counts, self times and inclusive phase times.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap, so the layers' self times add up
    to the root spans' total exactly.
    """
    n = len(spans)
    child_ns = [0] * n
    for name, parent, start, end, _c, _cell in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = dict.fromkeys(LAYERS, 0)
    root_ns = roots = 0
    ms = {}                 # inclusive time by span name
    count = {}              # spans by name
    # per span: names of the marked kinds among its ancestors-or-self
    inside = [None] * n
    c = dict.fromkeys(
        ("build_calls", "scc_calls", "queries", "ec_trials", "ec_processed",
         "ec_found", "vc_trials", "vc_processed", "vc_found", "cuts_found",
         "mode_exact", "mode_sampled", "mk_detections", "mk_found",
         "mk_flows", "t_flows", "t_samples", "t_queries"), 0)
    build_ns = scc_ns = 0
    for i, (name, parent, start, end, counts, _cell) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        self_ns[layer] += dur - child_ns[i]
        count[name] = count.get(name, 0) + 1
        ms[name] = ms.get(name, 0) + dur
        up = inside[parent] if parent >= 0 else frozenset()
        if parent < 0:
            roots += 1
            root_ns += dur
        kinds = set(up)
        if name in BUILD:
            if "build" not in up:
                c["build_calls"] += 1
                build_ns += dur
            kinds.add("build")
        if name in SCC:
            if "scc" not in up:
                c["scc_calls"] += 1
                scc_ns += dur
            kinds.add("scc")
        if name in QUERIES:
            kinds.add("queries")
        if name.startswith("mkecs."):
            kinds.add("mkecs")
        if name in MKECS_LOCAL:
            kinds.add("mkecs_local")
        if name == "mkecs._baseline":
            kinds.add("baseline")
        if name in TESTERS:
            kinds.add("testers")
        inside[i] = up if len(kinds) == len(up) else frozenset(kinds)
        if counts is None and name in EXTRACT:
            continue        # the function raised, so there are no counts
        if name in QUERIES and "queries" not in up:
            c["queries"] += counts[0] if isinstance(counts, tuple) else counts
        if name == "edge_cut.detect_component_param":
            c["ec_trials"] += counts[1]
            c["ec_processed"] += counts[2]
            c["ec_found"] += counts[3]
            if "mkecs" in up:
                c["mk_detections"] += 1
                c["mk_found"] += counts[3]
        elif name == "vertex_cut.detect_vertex_out_component":
            c["vc_trials"] += counts[1]
            c["vc_processed"] += counts[2]
            c["vc_found"] += counts[3]
        elif name in FLOW_CUTS:
            c["cuts_found"] += counts
            if "mkecs_local" in up and "baseline" not in up:
                c["mk_flows"] += 1
            if "testers" in up:
                c["t_flows"] += 1
        elif name == "connectivity.is_connectivity_at_least":
            if counts == "exact":
                c["mode_exact"] += 1
            elif counts == "sampled":
                c["mode_sampled"] += 1
        elif name in TESTERS:
            c["t_queries"] += counts[0]
            c["t_samples"] += counts[1]
    assert sum(self_ns.values()) == root_ns, "self times do not add up"

    def cnt(*names):
        return sum(count.get(x, 0) for x in names)

    def total_ms(name):
        return ms.get(name, 0) / 1e6

    ec_calls = cnt("edge_cut.detect_component_param")
    vc_calls = cnt("vertex_cut.detect_vertex_out_component")
    flow_cuts = cnt(*FLOW_CUTS)
    tester_calls = cnt(*TESTERS)
    return {
        "graph.build_calls": c["build_calls"],
        "graph.build_ms": build_ns / 1e6,
        "graph.scc_calls": c["scc_calls"],
        "graph.scc_ms": scc_ns / 1e6,
        "graph.flips": cnt("graph.Overlay.flip"),
        "graph.queries": c["queries"],
        "graph.self_ms": self_ns["graph"] / 1e6,
        "edge_cut.calls": ec_calls,
        "edge_cut.trials": c["ec_trials"],
        "edge_cut.trials_per_call": _ratio(c["ec_trials"], ec_calls),
        "edge_cut.dfs_passes": cnt("edge_cut.budgeted_dfs"),
        "edge_cut.edges_processed": c["ec_processed"],
        "edge_cut.found_ratio": _ratio(c["ec_found"], ec_calls),
        "edge_cut.self_ms": self_ns["edge_cut"] / 1e6,
        "vertex_cut.calls": vc_calls,
        "vertex_cut.trials": c["vc_trials"],
        "vertex_cut.edges_processed": c["vc_processed"],
        "vertex_cut.found_ratio": _ratio(c["vc_found"], vc_calls),
        "vertex_cut.split_graph_ms": total_ms("vertex_cut.SplitGraph.__init__"),
        "vertex_cut.symmetric_volume_ms":
            total_ms("vertex_cut.symmetric_volume"),
        "vertex_cut.self_ms": self_ns["vertex_cut"] / 1e6,
        "flow.vertex_cut_calls": cnt("flow.st_vertex_cut_at_most"),
        "flow.edge_cut_calls": cnt("flow.st_edge_cut_below"),
        "flow.networks_built": cnt("flow.vertex_split_network",
                                   "flow.edge_flow_network"),
        "flow.cut_found_ratio": _ratio(c["cuts_found"], flow_cuts),
        "flow.self_ms": self_ns["flow"] / 1e6,
        "connectivity.probes": cnt("connectivity.is_connectivity_at_least"),
        "connectivity.probes_per_call": _ratio(
            cnt("connectivity.is_connectivity_at_least"), cnt(*CONNECTIVITY)),
        "connectivity.mode_exact": c["mode_exact"],
        "connectivity.mode_sampled": c["mode_sampled"],
        "connectivity.pair_step_ms": total_ms("connectivity.sample_pair_step"),
        "connectivity.sweep_step_ms":
            total_ms("connectivity.local_sweep_step"),
        "connectivity.fallback_ms": total_ms("connectivity.fallback_exact"),
        "connectivity.certificate_ms":
            total_ms("connectivity.scan_first_certificate"),
        "connectivity.self_ms": self_ns["connectivity"] / 1e6,
        "mkecs.detections": c["mk_detections"],
        "mkecs.detection_found_ratio": _ratio(c["mk_found"],
                                              c["mk_detections"]),
        "mkecs.global_cut_flows": c["mk_flows"],
        "mkecs.baseline_ms": total_ms("mkecs.baseline_mkecs"),
        "mkecs.self_ms": self_ns["mkecs"] / 1e6,
        "testers.decisions": cnt("testers.local_decision_edge",
                                 "testers.local_decision_vertex"),
        "testers.samples_per_call": _ratio(c["t_samples"], tester_calls),
        "testers.flow_calls": c["t_flows"],
        "testers.queries_per_sample": _ratio(c["t_queries"], c["t_samples"]),
        "testers.self_ms": self_ns["testers"] / 1e6,
        "trace.call_ms": root_ns / 1e6,
        "trace.calls": roots,
    }
