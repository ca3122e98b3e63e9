"""Command line front end.

Exit codes: 0 for Accept / plain success, 1 for Reject or a cut/component
found, 2 for usage or input errors.  Graphs are read in the delimited
edge-list format (header "n m", one "tail head" line per edge, '#'
comments) from a path or '-' for stdin.
"""

import argparse
import json
import random
import sys

from . import connectivity, edge_cut, experiment, generators, mkecs, \
    oracles, testers, vertex_cut
from .graph import (EdgeListError, GraphError, dump_edge_list, load_edge_list,
                    load_undirected_edge_list)


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _read_graph(path):
    return load_edge_list(_read_text(path))


def _read_undirected(path):
    return load_undirected_edge_list(_read_text(path))


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cut_json(cut):
    if cut is None:
        return None
    return {"left": sorted(cut.left), "middle": sorted(cut.middle),
            "right": sorted(cut.right), "size": cut.size}


def cmd_detect_edge(args):
    g = _read_graph(args.graph)
    rng = random.Random(args.seed)
    res = edge_cut.detect_component_param(g, args.start, args.k, args.delta,
                                          args.p, rng)
    _emit({"found": bool(res), "members": sorted(res.members),
           "out_edges": sorted(res.out_edges), "edge_size": res.edge_size,
           "queries": res.queries_used, "trials": res.trials_used})
    return 1 if res else 0


def cmd_detect_vertex(args):
    g = _read_graph(args.graph)
    rng = random.Random(args.seed)
    res = vertex_cut.detect_vertex_out_component(
        g, args.start, args.k, args.delta, args.p, rng,
        symmetric=args.symmetric)
    _emit({"found": bool(res), "members": sorted(res.members),
           "boundary": sorted(res.boundary), "volume": res.volume,
           "symmetric_volume": res.symmetric_volume,
           "queries": res.queries_used, "trials": res.trials_used})
    return 1 if res else 0


def cmd_vertex_connectivity(args):
    rng = random.Random(args.seed)
    if args.undirected:
        und = _read_undirected(args.graph)
        kappa, cut = connectivity.vertex_connectivity_undirected(
            und, rng, c=args.confidence)
    else:
        g = _read_graph(args.graph)
        kappa, cut = connectivity.vertex_connectivity_directed(
            g, rng, c=args.confidence)
    _emit({"kappa": kappa, "cut": _cut_json(cut)})
    return 1 if cut is not None else 0


def cmd_mkecs(args):
    # each budget belongs to one local driver; any other use would be
    # silently ignored
    for flag, value, undirected in (("--delta", args.delta, False),
                                    ("--gamma", args.gamma, True)):
        if value is not None and (args.baseline
                                  or args.undirected != undirected):
            args.parser.error("%s applies only to the local %s driver"
                              % (flag, "undirected" if undirected
                                 else "directed"))
    rng = random.Random(args.seed)
    if args.undirected:
        und = _read_undirected(args.graph)
        if args.baseline:
            dec = mkecs.baseline_mkecs_undirected(und, args.k)
        else:
            dec = mkecs.mkecs_undirected(und, args.k, rng, gamma=args.gamma)
    else:
        g = _read_graph(args.graph)
        if args.baseline:
            dec = mkecs.baseline_mkecs(g, args.k)
        else:
            dec = mkecs.mkecs_directed(g, args.k, rng, delta=args.delta)
    for cls in dec.as_sorted():
        sys.stdout.write(" ".join(str(v) for v in cls) + "\n")
    return 0


def cmd_test_connectivity(args):
    if args.undirected:
        g = _read_undirected(args.graph).to_directed()
    else:
        g = _read_graph(args.graph)
    degree = args.degree if args.degree is not None else \
        (g.m / g.n if g.m else 1.0)
    cfg = testers.TesterConfig(k=args.k, epsilon=args.epsilon,
                               model=args.model, degree=degree,
                               n=g.n, m=g.m)
    rng = random.Random(args.seed)
    run = (testers.test_k_vertex_connectivity if args.property == "vertex"
           else testers.test_k_edge_connectivity)
    rejected = 0
    last = None
    for _ in range(args.trials):
        last = run(g, cfg, rng)
        if not last.accepted:
            rejected += 1
    _emit({"verdict": "Accept" if last.accepted else "Reject",
           "trials": args.trials, "rejections": rejected,
           "queries_last": last.queries_used,
           "samples_last": last.samples_used})
    return 0 if last.accepted else 1


def cmd_gen(args):
    params = json.loads(args.params) if args.params else {}
    spec = generators.GeneratorSpec(args.family, params, args.seed)
    g, cert = generators.generate(spec)
    if hasattr(g, "to_directed") and args.directed:
        g = g.to_directed()
    out = dump_edge_list(g)
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    if args.certificate:
        with open(args.certificate, "w") as fh:
            json.dump({k: sorted(v) if isinstance(v, (set, frozenset))
                       else v for k, v in cert.items()},
                      fh, default=list, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_oracle(args):
    g = _read_graph(args.graph)
    if args.kind == "vertex-connectivity":
        _emit({"kappa": oracles.oracle_vertex_connectivity(g)})
    elif args.kind == "min-edge-out":
        comps = oracles.oracle_min_edge_out_component(g, args.start, args.k)
        _emit({"components": [{"members": sorted(m), "out_edges": c}
                              for m, c in comps]})
    else:
        raise ValueError("unknown oracle kind %r" % (args.kind,))
    return 0


def cmd_experiment(args):
    with open(args.config) as fh:
        config = json.load(fh)
    report = experiment.run_experiment(config)
    experiment.write_report(report, args.output, csv_path=args.csv)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="localcuts")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect-edge-component",
                       help="search for a small k-edge-out component")
    p.add_argument("graph")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_detect_edge)

    p = sub.add_parser("detect-vertex-component",
                       help="search for a small k-vertex-out component")
    p.add_argument("graph")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_detect_vertex)

    p = sub.add_parser("vertex-connectivity",
                       help="exact vertex connectivity with witness")
    p.add_argument("graph")
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--confidence", type=float, default=2.0)
    p.set_defaults(func=cmd_vertex_connectivity)

    p = sub.add_parser("mkecs",
                       help="maximal k-edge-connected subgraph classes")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--gamma", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mkecs, parser=p)

    p = sub.add_parser("test-connectivity",
                       help="one-sided connectivity property tester")
    p.add_argument("graph")
    p.add_argument("--property", choices=("edge", "vertex"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--model", choices=("unbounded", "bounded"),
                   default="unbounded")
    p.add_argument("--degree", type=float, default=None)
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--trials", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_test_connectivity)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("family", choices=generators.FAMILIES)
    p.add_argument("--params", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--directed", action="store_true",
                   help="emit undirected families as antiparallel pairs")
    p.add_argument("--output", default="-")
    p.add_argument("--certificate", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="run a reference oracle")
    p.add_argument("graph")
    p.add_argument("--kind", choices=("vertex-connectivity", "min-edge-out"),
                   required=True)
    p.add_argument("--start", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("experiment", help="run an experiment config")
    p.add_argument("config")
    p.add_argument("--output", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_experiment)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (EdgeListError, GraphError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
