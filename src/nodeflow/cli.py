"""Command-line front end.

Every solver subcommand loads an instance (from a file or the builtin
catalog), runs one solver, and prints a result record.  Exit codes: 0 the
instance was solved (an infeasible program is a result, not an error),
1 any other solver error (such as an unbounded demand where a finite one is
required), 2 parse errors, 3 a size guard or enumeration cap was exceeded,
4 a required designated node/set is missing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import centrality as ctr
from . import fileio, instances, reductions, srte, te, wflow
from .errors import (CapExceeded, LimitExceeded, MissingDesignation,
                     NodeflowError, ParseError, TruncatedFamily)
from .network import DEFAULT_PATH_CAP
from .rational import as_decimal, format_rational

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_LIMIT = 3
EXIT_DESIGNATION = 4


# -- result records ------------------------------------------------------------

class ResultRecord:
    def __init__(self, command, source, digest):
        self.command = command
        self.source = source
        self.digest = digest
        self.fields = []     # (key, value) stable-ordered
        self.rows = []       # optional detail table: (heading, list of tuples)
        self.started = time.monotonic()

    def add(self, key, value):
        if hasattr(value, "denominator") and not isinstance(value, int):
            self.fields.append((key, format_rational(value)))
            self.fields.append((f"{key}_decimal", as_decimal(value)))
        else:
            self.fields.append((key, value))

    def add_rows(self, heading, columns, rows):
        self.rows.append((heading, columns, rows))

    def finish(self):
        self.fields.append(("runtime_sec", f"{time.monotonic() - self.started:.3f}"))

    def render(self, fmt):
        if fmt == "structured":
            doc = {"command": self.command, "instance": self.source,
                   "hash": self.digest,
                   "fields": {k: v for k, v in self.fields}}
            for heading, columns, rows in self.rows:
                doc[heading] = [dict(zip(columns, row)) for row in rows]
            return json.dumps(doc, indent=2, default=str)
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["key", "value"])
            writer.writerow(["command", self.command])
            writer.writerow(["instance", self.source])
            writer.writerow(["hash", self.digest])
            for key, value in self.fields:
                writer.writerow([key, value])
            for heading, columns, rows in self.rows:
                writer.writerow([])
                writer.writerow([heading] + list(columns))
                for row in rows:
                    writer.writerow([""] + [str(c) for c in row])
            return buf.getvalue().rstrip("\n")
        lines = [f"command:   {self.command}",
                 f"instance:  {self.source} [{self.digest}]"]
        for key, value in self.fields:
            lines.append(f"{key}: {value}")
        for heading, columns, rows in self.rows:
            lines.append("")
            lines.append(f"{heading} ({', '.join(columns)}):")
            for row in rows:
                lines.append("  " + "  ".join(str(c) for c in row))
        return "\n".join(lines)


def _walk_str(walk):
    return "->".join(walk.nodes)


# -- instance loading ----------------------------------------------------------

def _load(args):
    if args.builtin:
        try:
            b = instances.get_builtin(args.builtin)
        except KeyError as exc:
            raise ParseError(f"no builtin instance named {args.builtin!r}") from None
        designated = dict(b.designated)
        middlepoints = designated.pop("middlepoints", None)
        inst = fileio.Instance(b.network, middlepoints, designated)
        return inst, f"builtin:{b.name}"
    inst = fileio.load_instance(args.instance)
    return inst, args.instance


def _need(args, inst, key, flag_value=None):
    if flag_value is not None:
        return flag_value
    value = inst.designated.get(key)
    if value is None and key == "W":
        value = inst.designated.get("group")
    if value is None:
        raise MissingDesignation(
            f"this command needs a designated {key!r} (in the instance file "
            f"or via the command line)")
    return value


def _nodelist(text):
    """argparse type: a nonempty comma-separated node list."""
    nodes = tuple(x for x in text.split(",") if x)
    if not nodes:
        raise argparse.ArgumentTypeError(f"no node named in {text!r}")
    return nodes


def _setlist(text):
    """argparse type: node lists separated by "|", each nonempty."""
    return [_nodelist(part) for part in text.split("|")]


def _count(minimum):
    """argparse type: an integer of at least minimum."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, not {value}")
        return value
    return parse


def _endpoints(args, inst):
    """--s/--t, else the instance's designated s/t, else the first
    commodity's endpoints."""
    coms = inst.network.commodities
    s = args.s or inst.designated.get("s") or (coms[0].source if coms else None)
    t = args.t or inst.designated.get("t") or (coms[0].sink if coms else None)
    if s is None or t is None:
        raise MissingDesignation(
            "this command needs a source and a sink (--s/--t, designated in "
            "the instance file, or a commodity)")
    return s, t


def _middlepoints(args, inst):
    mids = args.middlepoints or inst.middlepoints
    if not mids:
        raise MissingDesignation("this command needs a middlepoint list")
    return tuple(mids)


# -- subcommand bodies -----------------------------------------------------------

def _emit_flow_solution(rec, sol, net):
    rec.add("status", sol.status)
    if sol.objective is not None:
        rec.add("objective", sol.objective)
    if getattr(sol, "theta", None) is not None:
        rec.add("theta", sol.theta)
    rows = []
    for i, assigned in sorted(sol.flows.items()):
        com = net.commodities[i]
        for walk, amount in assigned:
            if amount != 0:
                rows.append((i, f"{com.source}->{com.sink}",
                             format_rational(amount), _walk_str(walk)))
    if rows:
        rec.add_rows("paths", ("commodity", "pair", "flow", "route"), rows)


def cmd_te_mf(args, inst, rec):
    ctr._guard(inst.network, args.max_nodes_exact, enumerates=True)
    sol = te.solve_te_mf(inst.network, cap=args.max_paths)
    _emit_flow_solution(rec, sol, inst.network)


def cmd_te_lu(args, inst, rec):
    ctr._guard(inst.network, args.max_nodes_exact, enumerates=True)
    sol = te.solve_te_lu(inst.network, cap=args.max_paths)
    _emit_flow_solution(rec, sol, inst.network)


def cmd_w_flow(args, inst, rec):
    net = inst.network
    w = _need(args, inst, "w", args.w)
    ctr._guard(net, args.max_nodes_exact, enumerates=args.no_repeat)
    if net.directed:
        if args.no_repeat:
            raise ParseError("--no-repeat applies to undirected instances")
        sol = wflow.max_w_flow_exact(net, w, cap=args.max_paths)
        _emit_flow_solution(rec, sol, net)
    elif args.no_repeat:
        sol = wflow.max_w_flow_undirected_norepeat(net, w, cap=args.max_paths)
        _emit_flow_solution(rec, sol, net)
    else:
        rec.add("objective", wflow.max_w_flow_undirected(net, w))


def cmd_w_flow_simple(args, inst, rec):
    w = _need(args, inst, "w", args.w)
    ctr._guard(inst.network, args.max_nodes_exact, enumerates=True)
    sol = wflow.max_w_flow_simple(inst.network, w, cap=args.max_paths)
    _emit_flow_solution(rec, sol, inst.network)


def cmd_w_flow_augment(args, inst, rec):
    w = _need(args, inst, "w", args.w)
    result = wflow.augmenting_w_flow(inst.network, w)
    rec.add("objective", result.value)
    rec.add("rounds", len(result.paths))
    rec.add_rows("decomposition", ("flow", "route"),
                 [(format_rational(a), _walk_str(p))
                  for p, a in result.decomposition])


def cmd_set_flow(args, inst, rec):
    W = _need(args, inst, "W", args.set)
    ctr._guard(inst.network, args.max_nodes_exact)
    sol = wflow.max_set_flow(inst.network, W, cap=args.max_paths)
    rec.add("designated_set", ",".join(sorted(W)))
    _emit_flow_solution(rec, sol, inst.network)


def cmd_cut(args, inst, rec):
    net = inst.network
    s, t = _endpoints(args, inst)
    w = _need(args, inst, "w", args.w)
    result = wflow.min_swt_edge_cut(net, s, w, t)
    rec.add("cut_value", result.value)
    rec.add("exact", result.exact)
    rec.add_rows("cut_edges", ("edge", "tail", "head", "capacity"),
                 [(eid, net.edge(eid).tail, net.edge(eid).head,
                   format_rational(net.edge(eid).capacity))
                  for eid in result.edges])


def _sr_config(args, inst):
    return srte.SrConfig(_middlepoints(args, inst), args.max_segments)


def _emit_sr(rec, sol, net):
    rec.add("status", sol.status)
    if sol.objective is not None:
        rec.add("objective", sol.objective)
    if sol.theta is not None:
        rec.add("theta", sol.theta)
    rec.add("tunnels", sum(len(ts) for ts in sol.tunnels_per_commodity))
    rows = []
    for (i, mids), amount in sorted(sol.tunnel_flows.items()):
        if amount != 0:
            com = net.commodities[i]
            label = ",".join(mids) if mids else "(direct)"
            rows.append((i, f"{com.source}->{com.sink}", label,
                         format_rational(amount)))
    if rows:
        rec.add_rows("tunnel_flows", ("commodity", "pair", "middlepoints",
                                      "flow"), rows)


def cmd_sr_lu(args, inst, rec):
    sol, _tables = srte.solve_sr_lu(inst.network, _sr_config(args, inst))
    _emit_sr(rec, sol, inst.network)


def cmd_sr_mf(args, inst, rec):
    sol, _tables = srte.solve_sr_mf(inst.network, _sr_config(args, inst))
    _emit_sr(rec, sol, inst.network)


def cmd_acyclic_check(args, inst, rec):
    s, t = _endpoints(args, inst)
    result = srte.acyclic_feasible(inst.network, s, t,
                                   _middlepoints(args, inst), mode=args.mode)
    rec.add("feasible", result.feasible)
    rec.add("combos_tried", result.combos_tried)
    if result.witness is not None:
        rec.add("witness", _walk_str(result.witness))


def cmd_centrality(args, inst, rec):
    w = _need(args, inst, "w", args.w)
    if args.instance_demands:
        report = ctr.commodity_centrality(inst.network, w, cap=args.max_paths,
                                          node_limit=args.max_nodes_exact)
    else:
        report = ctr.flow_centrality(inst.network, w, cap=args.max_paths,
                                     node_limit=args.max_nodes_exact)
    rec.add("node", report.node)
    rec.add("numerator", report.numerator)
    rec.add("denominator", report.denominator)
    if report.ratio is None:
        rec.add("centrality", "undefined (no pair carries flow)")
    else:
        rec.add("centrality", report.ratio)


def cmd_group_flow(args, inst, rec):
    group = _need(args, inst, "group", args.group)
    ctr._guard(inst.network, args.max_nodes_exact)
    result = ctr.group_flow(inst.network, group, cap=args.max_paths)
    rec.add("group", ",".join(result.group))
    rec.add("objective", result.value)


def cmd_ngroup(args, inst, rec):
    ctr._guard(inst.network, args.max_nodes_exact)
    result = ctr.n_group_max_flow(inst.network, args.n, method=args.method,
                                  cap=args.max_paths)
    rec.add("method", args.method)
    rec.add("group", ",".join(result.group))
    rec.add("objective", result.value)
    if result.trajectory:
        rec.add_rows("trajectory", ("round", "added", "value"),
                     [(i + 1, node, format_rational(value))
                      for i, (node, value) in enumerate(result.trajectory)])


def cmd_probe(args, inst, rec):
    ctr._guard(inst.network, args.max_nodes_exact, enumerates=True)
    report = ctr.submodularity_probe(inst.network, trials=args.trials,
                                     seed=args.seed, cap=args.max_paths)
    rec.add("samples", report.samples)
    rec.add("monotone", report.monotone)
    rec.add("submodular", report.submodular)
    rec.add_rows("submodularity_violations",
                 ("S", "T", "v", "margin_S", "margin_T"),
                 [(",".join(S), ",".join(T), v, format_rational(mS),
                   format_rational(mT))
                  for S, T, v, mS, mT in report.submodularity_violations])


def cmd_eq25(args, inst, rec):
    w = _need(args, inst, "w", args.w)
    s, t = _endpoints(args, inst)
    report = ctr.check_pair_sum_identity(inst.network, w, s, t, cap=args.max_paths,
                                         node_limit=args.max_nodes_exact)
    rec.add("lhs", report.lhs)
    for name, value in sorted(report.terms.items()):
        rec.add(f"term_{name}", value)
    rec.add("residual", report.residual)
    rec.add("consistent", report.consistent)


_GADGETS = ("two-disjoint-paths", "node-split", "unit-path", "max-coverage",
            "disjoint-shortest-paths")


def cmd_gadget(args, inst, rec):
    if args.kind == "two-disjoint-paths":
        nodes = args.nodes or ()
        if len(nodes) != 4:
            raise ParseError("two-disjoint-paths needs --nodes u1,u2,v1,v2")
        gadget = reductions.two_disjoint_paths_gadget(inst.network, *nodes)
    elif args.kind == "node-split":
        gadget = reductions.node_split_gadget(inst.network)
    elif args.kind == "unit-path":
        w = _need(args, inst, "w", args.w)
        s, t = _endpoints(args, inst)
        gadget = reductions.unit_path_gadget(inst.network, s, t, w)
    elif args.kind == "max-coverage":
        if not args.sets:
            raise ParseError("max-coverage needs --sets a|b,c|d style "
                             "and -n")
        sets = args.sets
        items = sorted({x for part in sets for x in part})
        gadget = reductions.max_coverage_gadget(items, sets, args.n)
    elif args.kind == "disjoint-shortest-paths":
        pair_nodes = args.nodes or ()
        if not pair_nodes or len(pair_nodes) % 2:
            raise ParseError("disjoint-shortest-paths needs --nodes "
                             "u1,v1,u2,v2,...")
        pairs = list(zip(pair_nodes[::2], pair_nodes[1::2]))
        gadget = reductions.disjoint_shortest_paths_gadget(inst.network, pairs)
    else:
        raise ParseError(f"unknown gadget kind {args.kind!r}")
    out = fileio.Instance(gadget.network,
                          gadget.designated.get("middlepoints"),
                          {k: v for k, v in gadget.designated.items()
                           if k in ("w", "W", "group")})
    fileio.save_instance(out, args.output)
    rec.add("kind", args.kind)
    rec.add("output", args.output)
    rec.add("nodes", len(gadget.network.nodes))
    rec.add("edges", len(gadget.network.edges))


def cmd_catalog(args):
    lines = []
    for b in instances.catalog():
        lines.append(f"{b.name}: {b.description}")
        lines.append(f"    headline: {b.headline}")
    print("\n".join(lines))
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------

def _add_instance_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", help="name of a builtin instance")
    group.add_argument("--instance", help="path to an instance file")
    sub.add_argument("--format", choices=("table", "csv", "structured"),
                     default="table")
    sub.add_argument("--max-paths", type=_count(0), default=DEFAULT_PATH_CAP,
                     help="cap on enumerated paths per family")
    sub.add_argument("--max-nodes-exact", type=_count(0), default=10,
                     help="node-count guard for exponential solvers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodeflow",
        description="Exact node-constrained traffic engineering solvers")
    subs = parser.add_subparsers(dest="command", required=True)

    solvers = {
        "te-mf": (cmd_te_mf, "maximum multicommodity flow"),
        "te-lu": (cmd_te_lu, "minimum worst-edge utilization"),
        "w-flow": (cmd_w_flow, "node-constrained maximum flow"),
        "w-flow-simple": (cmd_w_flow_simple,
                          "node-constrained flow over simple paths"),
        "w-flow-augment": (cmd_w_flow_augment,
                           "greedy augmenting heuristic (directed)"),
        "set-flow": (cmd_set_flow, "flow through a designated node set"),
        "cut": (cmd_cut, "minimum s-w-t edge cut"),
        "sr-lu": (cmd_sr_lu, "segment-routing minimum utilization"),
        "sr-mf": (cmd_sr_mf, "segment-routing maximum flow"),
        "acyclic-check": (cmd_acyclic_check,
                          "acyclic middlepoint tunnel feasibility"),
        "centrality": (cmd_centrality, "flow centrality of a node"),
        "group-flow": (cmd_group_flow, "flow through a node group"),
        "ngroup": (cmd_ngroup, "best group of at most N nodes"),
        "probe-submodularity": (cmd_probe,
                                "sample monotonicity/submodularity"),
        "eq25": (cmd_eq25, "inclusion-exclusion identity check"),
        "gadget": (cmd_gadget, "emit a hardness-reduction gadget"),
    }
    for name, (func, help_text) in solvers.items():
        sub = subs.add_parser(name, help=help_text)
        _add_instance_args(sub)
        sub.set_defaults(func=func)
        if name in ("w-flow", "w-flow-simple", "w-flow-augment", "cut",
                    "centrality", "eq25", "gadget"):
            sub.add_argument("--w", help="designated node")
        if name == "centrality":
            sub.add_argument("--instance-demands", action="store_true",
                             help="restrict to the instance's commodity "
                                  "pairs, weighted by demand")
        if name == "w-flow":
            sub.add_argument("--no-repeat", action="store_true",
                             help="undirected: forbid edge reuse within a path")
        if name == "set-flow":
            sub.add_argument("--set", type=_nodelist,
                             help="comma-separated designated set")
        if name in ("cut", "acyclic-check", "eq25", "gadget"):
            sub.add_argument("--s", help="source node")
            sub.add_argument("--t", help="sink node")
        if name in ("sr-lu", "sr-mf", "acyclic-check"):
            sub.add_argument("--middlepoints", type=_nodelist,
                             help="comma-separated ordered middlepoint list")
        if name in ("sr-lu", "sr-mf"):
            sub.add_argument("--max-segments", type=_count(0), default=1)
        if name == "acyclic-check":
            sub.add_argument("--mode", choices=("path", "simple_path"),
                             default="path")
        if name == "group-flow":
            sub.add_argument("--group", type=_nodelist,
                             help="comma-separated node group")
        if name == "ngroup":
            sub.add_argument("-n", type=_count(1), required=True)
            sub.add_argument("--method", choices=("brute", "greedy"),
                             default="brute")
        if name == "probe-submodularity":
            sub.add_argument("--trials", type=_count(0), default=100)
            sub.add_argument("--seed", type=int, default=0)
        if name == "gadget":
            sub.add_argument("--kind", choices=_GADGETS, required=True)
            sub.add_argument("--output", required=True)
            sub.add_argument("--nodes", type=_nodelist,
                             help="gadget-specific node list")
            sub.add_argument("--sets", type=_setlist,
                             help="max-coverage: sets as a,b|c,d")
            sub.add_argument("-n", type=_count(1), default=1,
                             help="max-coverage: number of sets to pick")

    subs.add_parser("catalog", help="list builtin instances")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog":
        return cmd_catalog(args)
    try:
        inst, source = _load(args)
        rec = ResultRecord(args.command, source,
                           fileio.instance_hash(inst))
        args.func(args, inst, rec)
        rec.finish()
        print(rec.render(args.format))
        return EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (LimitExceeded, CapExceeded, TruncatedFamily) as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except MissingDesignation as exc:
        print(f"missing designation: {exc}", file=sys.stderr)
        return EXIT_DESIGNATION
    except FileNotFoundError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NodeflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
