"""Command-line front end.

Every solver subcommand loads an instance (from a file or the builtin
catalog), runs one solver, and prints a result record.  Exit codes: 0 the
instance was solved (an infeasible program is a result, not an error),
1 any other solver error (such as an unbounded demand where a finite one is
required), 2 parse errors, 3 the walk-search step cap was exceeded, 4 a
required designated node/set is missing.

Each subcommand is one row of COMMANDS.  The one guard of every exponential
method is the library's: each walk search (enumeration, the augmenting
heuristic, the directed cut and acyclic segment routing) stops at
network.WALK_STEP_CAP arcs, whatever the instance's size.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass

from . import centrality as ctr
from . import fileio, instances, reductions, srte, te, wflow
from .errors import (CapExceeded, MissingDesignation, NodeflowError,
                     ParseError)
from .network import through_any
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
            inst = instances.get_builtin(args.builtin)
        except KeyError:
            raise ParseError(f"no builtin instance named {args.builtin!r}") from None
        return inst, f"builtin:{args.builtin}"
    inst = fileio.load_instance(args.instance)
    return inst, args.instance


def _designated(inst, flag_value, *keys):
    """flag_value, else the instance's value for the first of keys that it
    designates."""
    if flag_value is not None:
        return flag_value
    for key in keys:
        if key in inst.designated:
            return inst.designated[key]
    raise MissingDesignation(
        f"this command needs a designated {' or '.join(map(repr, keys))} "
        f"(in the instance file or via the command line)")


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
    """--s/--t, else the first commodity's endpoints."""
    coms = inst.network.commodities
    s = args.s or (coms[0].source if coms else None)
    t = args.t or (coms[0].sink if coms else None)
    if s is None or t is None:
        raise MissingDesignation(
            "this command needs a source and a sink (--s/--t, or a commodity "
            "in the instance)")
    return s, t


def _middlepoints(args, inst):
    mids = args.middlepoints or inst.middlepoints
    if not mids:
        raise MissingDesignation("this command needs a middlepoint list")
    return tuple(mids)


# -- subcommand bodies -----------------------------------------------------------

def _emit_status(rec, sol):
    rec.add("status", sol.status)
    for key in ("objective", "theta"):
        if getattr(sol, key) is not None:
            rec.add(key, getattr(sol, key))


def _emit_flow_solution(rec, sol, net):
    _emit_status(rec, sol)
    rows = []
    for i, assigned in sorted((sol.flows or {}).items()):
        com = net.commodities[i]
        for walk, amount in assigned:
            rows.append((i, f"{com.source}->{com.sink}",
                         format_rational(amount), _walk_str(walk)))
    if rows:
        rec.add_rows("paths", ("commodity", "pair", "flow", "route"), rows)


def cmd_te(args, inst, rec):
    solve = te.solve_te_lu if args.command == "te-lu" else te.solve_te_mf
    sol = solve(inst.network)
    _emit_flow_solution(rec, sol, inst.network)


def cmd_w_flow_augment(args, inst, rec):
    w = _designated(inst, args.w, "w")
    result = wflow.augmenting_w_flow(inst.network, w)
    rec.add("objective", result.value)
    rec.add("rounds", len(result.paths))
    rec.add_rows("decomposition", ("flow", "route"),
                 [(format_rational(a), _walk_str(p))
                  for p, a in result.decomposition])


def cmd_set_flow(args, inst, rec):
    net = inst.network
    W = _designated(inst, args.set, "W", "group", "w")
    W = through_any((W,) if isinstance(W, str) else W).nodes
    if args.no_repeat and net.directed:
        raise ParseError("--no-repeat applies to undirected instances")
    if args.no_repeat or args.simple:
        sol = wflow.max_set_flow_paths(net, W, single_use=args.no_repeat,
                                       simple=args.simple)
    else:
        sol = wflow.max_set_flow(net, W)
    rec.add("designated_set", ",".join(W))
    _emit_flow_solution(rec, sol, net)


def cmd_cut(args, inst, rec):
    net = inst.network
    s, t = _endpoints(args, inst)
    w = _designated(inst, args.w, "w")
    result = wflow.min_swt_edge_cut(net, s, w, t)
    rec.add("cut_value", result.value)
    rec.add("exact", result.exact)
    rec.add_rows("cut_edges", ("edge", "tail", "head", "capacity"),
                 [(eid, net.edge(eid).tail, net.edge(eid).head,
                   format_rational(net.edge(eid).capacity))
                  for eid in result.edges])


def _emit_sr(rec, sol, net):
    _emit_status(rec, sol)
    rec.add("tunnels", sum(len(ts) for ts in sol.tunnels_per_commodity))
    rows = []
    for i, assigned in sorted(sol.flows.items()):
        com = net.commodities[i]
        for tunnel, amount in sorted(assigned, key=lambda entry: entry[0].middlepoints):
            label = ",".join(tunnel.middlepoints) or "(direct)"
            rows.append((i, f"{com.source}->{com.sink}", label,
                         format_rational(amount)))
    if rows:
        rec.add_rows("tunnel_flows", ("commodity", "pair", "middlepoints",
                                      "flow"), rows)


def cmd_sr(args, inst, rec):
    solve = srte.solve_sr_lu if args.command == "sr-lu" else srte.solve_sr_mf
    config = srte.SrConfig(_middlepoints(args, inst), args.max_segments)
    sol, _tables = solve(inst.network, config)
    _emit_sr(rec, sol, inst.network)


def cmd_acyclic_check(args, inst, rec):
    s, t = _endpoints(args, inst)
    result = srte.acyclic_feasible(inst.network, s, t,
                                   _middlepoints(args, inst), mode=args.mode)
    rec.add("feasible", result.feasible)
    rec.add("steps_tried", result.steps_tried)
    if result.witness is not None:
        rec.add("witness", _walk_str(result.witness))


def cmd_centrality(args, inst, rec):
    w = _designated(inst, args.w, "w")
    if args.instance_demands:
        report = ctr.commodity_centrality(inst.network, w)
    else:
        report = ctr.flow_centrality(inst.network, w)
    rec.add("node", report.node)
    rec.add("numerator", report.numerator)
    rec.add("denominator", report.denominator)
    if report.ratio is None:
        rec.add("centrality", "undefined (no pair carries flow)")
    else:
        rec.add("centrality", report.ratio)


def cmd_ngroup(args, inst, rec):
    result = ctr.n_group_max_flow(inst.network, args.n, method=args.method)
    rec.add("method", args.method)
    rec.add("group", ",".join(result.group))
    rec.add("objective", result.value)
    if result.trajectory:
        rec.add_rows("trajectory", ("round", "added", "value"),
                     [(i + 1, node, format_rational(value))
                      for i, (node, value) in enumerate(result.trajectory)])


def cmd_probe(args, inst, rec):
    report = ctr.submodularity_probe(inst.network, trials=args.trials,
                                     seed=args.seed)
    # A sample can refute a property but never prove it.
    unrefuted = f"not refuted ({report.samples} samples)"
    rec.add("samples", report.samples)
    rec.add("monotone", unrefuted if report.monotone else False)
    rec.add("submodular", unrefuted if report.submodular else False)
    rec.add_rows("submodularity_violations",
                 ("S", "T", "v", "margin_S", "margin_T"),
                 [(",".join(S), ",".join(T), v, format_rational(mS),
                   format_rational(mT))
                  for S, T, v, mS, mT in report.submodularity_violations])


def cmd_eq25(args, inst, rec):
    w = _designated(inst, args.w, "w")
    s, t = _endpoints(args, inst)
    report = ctr.check_pair_sum_identity(inst.network, w, s, t)
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
        w = _designated(inst, args.w, "w")
        s, t = _endpoints(args, inst)
        gadget = reductions.unit_path_gadget(inst.network, s, t, w)
    elif args.kind == "max-coverage":
        if not args.sets:
            raise ParseError("max-coverage needs --sets a,b|c,d")
        sets = args.sets
        items = sorted({x for part in sets for x in part})
        gadget = reductions.max_coverage_gadget(items, sets)
    else:  # disjoint-shortest-paths
        pair_nodes = args.nodes or ()
        if not pair_nodes or len(pair_nodes) % 2:
            raise ParseError("disjoint-shortest-paths needs --nodes "
                             "u1,v1,u2,v2,...")
        pairs = list(zip(pair_nodes[::2], pair_nodes[1::2]))
        gadget = reductions.disjoint_shortest_paths_gadget(inst.network, pairs)
    fileio.save_instance(gadget, args.output)
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


# -- the command table -----------------------------------------------------------

def _flag(*names, **options):
    """The arguments of one add_argument call."""
    return names, options


_W = _flag("--w", help="designated node")
_S = _flag("--s", help="source node")
_T = _flag("--t", help="sink node")
_MIDDLEPOINTS = _flag("--middlepoints", type=_nodelist,
                      help="comma-separated ordered middlepoint list")
_MAX_SEGMENTS = _flag("--max-segments", type=_count(0), default=1)


@dataclass(frozen=True)
class Command:
    """A subcommand: its body, which looks its solver up through its module
    at run time, help and own flags."""
    run: object
    help: str
    flags: tuple = ()


COMMANDS = {
    "te-mf": Command(cmd_te, "maximum multicommodity flow"),
    "te-lu": Command(cmd_te, "minimum worst-edge utilization"),
    "w-flow-augment": Command(cmd_w_flow_augment,
                              "greedy augmenting heuristic (directed)", (_W,)),
    "set-flow": Command(cmd_set_flow, "flow through a designated node set", (
        _flag("--set", type=_nodelist, help="comma-separated designated set"),
        _flag("--no-repeat", action="store_true",
              help="undirected: forbid edge reuse within a path"),
        _flag("--simple", action="store_true",
              help="forbid node repeats within a path"),
    )),
    "cut": Command(cmd_cut, "minimum s-w-t edge cut", (_W, _S, _T)),
    "sr-lu": Command(cmd_sr, "segment-routing minimum utilization",
                     (_MIDDLEPOINTS, _MAX_SEGMENTS)),
    "sr-mf": Command(cmd_sr, "segment-routing maximum flow",
                     (_MIDDLEPOINTS, _MAX_SEGMENTS)),
    "acyclic-check": Command(cmd_acyclic_check,
                             "acyclic middlepoint tunnel feasibility", (
        _S, _T, _MIDDLEPOINTS,
        _flag("--mode", choices=("path", "simple_path"), default="path"),
    )),
    "centrality": Command(cmd_centrality, "flow centrality of a node", (
        _W, _flag("--instance-demands", action="store_true",
                  help="restrict to the instance's commodity pairs, "
                       "weighted by demand"),
    )),
    "ngroup": Command(cmd_ngroup, "best group of at most N nodes", (
        _flag("-n", type=_count(1), required=True),
        _flag("--method", choices=("brute", "greedy"), default="brute"),
    )),
    "probe-submodularity": Command(cmd_probe, "sample monotonicity/submodularity", (
        _flag("--trials", type=_count(0), default=100),
        _flag("--seed", type=int, default=0),
    )),
    "eq25": Command(cmd_eq25, "inclusion-exclusion identity check", (_W, _S, _T)),
    "gadget": Command(cmd_gadget, "emit a hardness-reduction gadget", (
        _W, _S, _T,
        _flag("--kind", choices=_GADGETS, required=True),
        _flag("--output", required=True),
        _flag("--nodes", type=_nodelist, help="gadget-specific node list"),
        _flag("--sets", type=_setlist, help="max-coverage: sets as a,b|c,d"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodeflow",
        description="Exact node-constrained traffic engineering solvers")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument("--builtin", help="name of a builtin instance")
        source.add_argument("--instance", help="path to an instance file")
        sub.add_argument("--format", choices=("table", "csv", "structured"),
                         default="table")
        for names, options in command.flags:
            sub.add_argument(*names, **options)
    subs.add_parser("catalog", help="list builtin instances")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "catalog":
        return cmd_catalog(args)
    command = COMMANDS[args.command]
    try:
        inst, source = _load(args)
        rec = ResultRecord(args.command, source,
                           fileio.instance_hash(inst))
        command.run(args, inst, rec)
        rec.finish()
        print(rec.render(args.format))
        return EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
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
