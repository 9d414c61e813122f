"""The benchmark's four workloads: seeded input generators, the op each one
times, and the check each op's answer must pass.

A workload is a dict of functions:

* ``build(rng, nf, workdir, scale)`` returns the instance pool, in the order
  the closed loop runs it (wrapping around when a run outlasts it);
* ``op(nf, item)`` makes the one timed public call, looking the function up
  through its module so that the traced run's wrappers are seen;
* ``signature(result)`` is a hashable rendering of the answer, used to tell
  a repeat of an already checked answer from a new one;
* ``objective(result)`` is the exact headline value as text;
* ``check(item, result)`` returns a list of problems, empty when the answer
  passed every independent check in ``checks``.

``nf`` is a namespace holding the imported nodeflow modules.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

import checks
from checks import frac

# Sizes are fixed mixes and the seed draws the instances, so runs with
# different seeds do the same kind of work.  Each pool is small enough that a
# run passes over it at least three times (the metrics take a median per
# instance) and large enough that its mix is steady from seed to seed.
#
# Walk-count strata of the through-w family for wflow-directed, and the
# order in which they recur in the pool.  Families stop at 150 walks so that
# a run holds hundreds of ops rather than a few multi-second ones.
WFLOW_STRATA = {"S": (1, 20), "M": (21, 60), "L": (61, 150)}
WFLOW_PATTERN = "SMLL"
WFLOW_POOL = 200

# (nodes, edges, commodities, |W|) of the transform-undirected instances.
# Sparse (m = n + 2), so that the check can price the path LP over all walks.
# Cost grows with the number of layers k * |W|; most shapes have two, so
# that the median op sits inside one cluster of costs, not between two.
TRANSFORM_SHAPES = [(8, 10, 1, 1), (12, 14, 1, 1), (10, 12, 1, 2),
                    (11, 13, 1, 2), (8, 10, 2, 1), (10, 12, 2, 1),
                    (11, 13, 2, 1), (8, 10, 3, 1)]
TRANSFORM_POOL = 48

# (nodes, edges) of the centrality-sweep networks; every node is swept.
# Five nodes rather than six or seven, so that a pass holds 40 instances.
CENTRALITY_SHAPES = [(5, 6)]
CENTRALITY_NETWORKS = 8

# cli-srte instances: nodes, edges, commodities, middlepoints.  Four
# commodities, not up to six: six-commodity sr-lu programs formed a small
# cluster of slow ops whose spread set the tail.
SRTE_SHAPES = [(8, 12, 4, 4), (9, 13, 4, 5)]
SRTE_POOL = 200

# Tiny sizes for the smoke test.
TINY = {"wflow": ({"S": (1, 10), "M": (11, 40)}, "SM", 6),
        "transform": ([(6, 7, 1, 1), (6, 8, 2, 1)], 6),
        "centrality": ([(4, 5)], 2),
        "srte": ([(6, 8, 4, 4)], 4)}


# -- shared generators ------------------------------------------------------------

def _connected_undirected(rng, n, m):
    """Node names and (tail, head) pairs of a connected simple graph: a random
    spanning tree plus random extra edges, in random order."""
    nodes = [f"v{i}" for i in range(n)]
    order = nodes[:]
    rng.shuffle(order)
    pairs = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    extra = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    rng.shuffle(extra)
    for p in extra:
        if len(pairs) >= m:
            break
        pairs.add(p)
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    return nodes, pairs


def _endpoint_pairs(rng, nodes, k):
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    rng.shuffle(pairs)
    return pairs[:k]


def _total_walks(net, w, cap):
    """Through-w walks over all commodities, or None above ``cap``."""
    total = 0
    for com in net.commodities:
        walks = checks.through_walks(net, com.source, com.sink, (w,), cap - total + 1)
        if walks is None or total + len(walks) > cap:
            return None
        total += len(walks)
    return total


def _flows_signature(flows):
    return tuple(sorted((i, tuple((walk.steps, str(f)) for walk, f in entries))
                        for i, entries in flows.items()))


# -- wflow-directed -------------------------------------------------------------

def _wflow_candidate(rng, nf):
    n = rng.choice((8, 9))
    m = rng.randint(2 * n, 2 * n + 4)
    nodes = [f"v{i}" for i in range(n)]
    arcs = [(a, b) for a in nodes for b in nodes if a != b]
    rng.shuffle(arcs)
    edges = [(a, b, rng.randint(1, 4)) for a, b in arcs[:m]]
    coms = [(s, t, None) for s, t in _endpoint_pairs(rng, nodes, rng.choice((1, 2)))]
    net = nf.network.FlowNetwork.build("directed", nodes, edges, coms)
    ends = {c.source for c in net.commodities} | {c.sink for c in net.commodities}
    return net, rng.choice([v for v in nodes if v not in ends])


def wflow_build(rng, nf, workdir, scale):
    strata, pattern, size = ((WFLOW_STRATA, WFLOW_PATTERN, WFLOW_POOL)
                             if scale == "full" else TINY["wflow"])
    need = {key: sum(1 for i in range(size) if pattern[i % len(pattern)] == key)
            for key in strata}
    top = max(hi for _, hi in strata.values())
    found = {key: [] for key in strata}
    while any(len(found[k]) < need[k] for k in strata):
        net, w = _wflow_candidate(rng, nf)
        walks = _total_walks(net, w, top)
        for key, (lo, hi) in strata.items():
            if walks is not None and lo <= walks <= hi and len(found[key]) < need[key]:
                found[key].append({"net": net, "w": w, "walks": walks})
    taken = {key: iter(items) for key, items in found.items()}
    return [next(taken[pattern[i % len(pattern)]]) for i in range(size)]


def wflow_op(nf, item):
    return nf.wflow.max_w_flow_exact(item["net"], item["w"])


def wflow_check(item, sol):
    net, w = item["net"], item["w"]
    if sol.status != "optimal":
        return [f"status {sol.status}"]
    problems = []
    loads = [Fraction(0)] * len(net.edges)
    total = Fraction(0)
    for i, entries in sol.flows.items():
        com = net.commodities[i]
        for walk, f in entries:
            f = frac(f)
            if f <= 0:
                problems.append(f"commodity {i}: non-positive flow {f}")
            if not checks.check_walk(net, walk, com.source, com.sink):
                problems.append(f"commodity {i}: invalid walk {walk.nodes}")
            if w not in walk.nodes:
                problems.append(f"commodity {i}: walk {walk.nodes} misses {w}")
            for eid, _ in walk.steps:
                loads[eid] += f
            total += f
    for e in net.edges:
        if loads[e.id] > frac(e.capacity):
            problems.append(f"edge {e.id} overloaded: {loads[e.id]} > {e.capacity}")
    if total != frac(sol.objective):
        problems.append(f"flows sum to {total}, objective {sol.objective}")
    families = []
    for com in net.commodities:
        walks = checks.through_walks(net, com.source, com.sink, (w,), item["walks"] + 1)
        if walks is None:
            return problems + ["the through-w family could not be enumerated"]
        families.append(checks.prune(set(walks)))
    columns, rhs = checks.path_program(net, families)
    if not problems and not checks.max_form_optimum_is(columns, rhs, total):
        problems.append(f"objective {sol.objective} is not the pruned path-LP optimum")
    return problems


WFLOW = {"build": wflow_build, "op": wflow_op,
         "signature": lambda sol: (sol.status, str(sol.objective), _flows_signature(sol.flows)),
         "objective": lambda sol: str(sol.objective), "check": wflow_check}


# -- transform-undirected ---------------------------------------------------------

def transform_build(rng, nf, workdir, scale):
    shapes, size = (TRANSFORM_SHAPES, TRANSFORM_POOL) if scale == "full" else TINY["transform"]
    pool = []
    for i in range(size):
        n, m, k, nw = shapes[i % len(shapes)]
        nodes, pairs = _connected_undirected(rng, n, m)
        edges = [(a, b, rng.randint(1, 4)) for a, b in pairs]
        coms = [(s, t, None) for s, t in _endpoint_pairs(rng, nodes, k)]
        net = nf.network.FlowNetwork.build("undirected", nodes, edges, coms)
        ends = {c.source for c in net.commodities} | {c.sink for c in net.commodities}
        inner = [v for v in nodes if v not in ends]
        pool.append({"net": net, "W": tuple(rng.sample(inner, nw))})
    return pool


def transform_op(nf, item):
    return nf.wflow.max_set_flow(item["net"], item["W"])


def transform_check(item, sol):
    """Returns problems; records in ``item`` whether the path LP over all
    through-W walks (priced, not enumerated) decided the value exactly."""
    net, W = item["net"], item["W"]
    if sol.status != "optimal":
        return [f"status {sol.status}"]
    value = frac(sol.objective)
    bound = sum((checks.ford_fulkerson(net, c.source, c.sink) for c in net.commodities),
                Fraction(0))
    problems = []
    if not 0 <= value <= bound:
        problems.append(f"value {value} outside [0, {bound}] (sum of commodity max flows)")
    optimum = checks.priced_path_optimum(net, W)
    item["decided"] = optimum is not None
    if optimum is not None and optimum != value:
        problems.append(f"value {value} differs from the path LP over all walks, {optimum}")
    return problems


TRANSFORM = {"build": transform_build, "op": transform_op,
             "signature": lambda sol: (sol.status, str(sol.objective)),
             "objective": lambda sol: str(sol.objective), "check": transform_check}


# -- centrality-sweep -------------------------------------------------------------

def centrality_build(rng, nf, workdir, scale):
    shapes, count = ((CENTRALITY_SHAPES, CENTRALITY_NETWORKS) if scale == "full"
                     else TINY["centrality"])
    pool = []
    for i in range(count):
        n, m = shapes[i % len(shapes)]
        nodes, pairs = _connected_undirected(rng, n, m)
        edges = [(a, b, rng.randint(1, 4)) for a, b in pairs]
        net = nf.network.FlowNetwork.build("undirected", nodes, edges, ())
        free = {}   # shared by the items of one network, filled by the check
        pool.extend({"net": net, "w": w, "free": free} for w in nodes)
    return pool


def centrality_op(nf, item):
    return nf.centrality.flow_centrality(item["net"], item["w"])


def centrality_check(item, report):
    net, w = item["net"], item["w"]
    problems = []
    pairs = {(s, t) for s in net.nodes for t in net.nodes if w not in (s, t) and s != t}
    if {(s, t) for s, t, _, _ in report.pairs} != pairs or len(report.pairs) != len(pairs):
        return [f"pairs reported do not cover the {len(pairs)} ordered pairs avoiding {w}"]
    num = den = Fraction(0)
    for s, t, forced, free in report.pairs:
        forced, free = frac(forced), frac(free)
        if (s, t) not in item["free"]:
            item["free"][(s, t)] = checks.ford_fulkerson(net, s, t)
        if free != item["free"][(s, t)]:
            problems.append(f"denominator for ({s},{t}) is {free}, "
                            f"Ford-Fulkerson gives {item['free'][(s, t)]}")
        if not 0 <= forced <= free:
            problems.append(f"forced value {forced} for ({s},{t}) exceeds free {free}")
        num += forced
        den += free
    if (frac(report.numerator), frac(report.denominator)) != (num, den):
        problems.append("numerator/denominator are not the sums over pairs")
    expected = None if den == 0 else num / den
    got = None if report.ratio is None else frac(report.ratio)
    if got != expected:
        problems.append(f"ratio {report.ratio} != {expected}")
    return problems


CENTRALITY = {"build": centrality_build, "op": centrality_op,
              "signature": lambda r: (str(r.numerator), str(r.denominator),
                                      tuple((s, t, str(a), str(b)) for s, t, a, b in r.pairs)),
              "objective": lambda r: f"{r.numerator}/{r.denominator}" if r.denominator
              else "0/0",
              "check": centrality_check}


# -- cli-srte ---------------------------------------------------------------------

def srte_build(rng, nf, workdir, scale):
    shapes, size = (SRTE_SHAPES, SRTE_POOL) if scale == "full" else TINY["srte"]
    os.makedirs(workdir, exist_ok=True)
    pool = []
    for i in range(size):
        n, m, k, nm = shapes[i % len(shapes)]
        nodes, pairs = _connected_undirected(rng, n, m)
        doc = {"orientation": "undirected", "nodes": nodes,
               "edges": [{"tail": a, "head": b, "capacity": rng.randint(2, 6),
                          "length": rng.randint(1, 3)} for a, b in pairs],
               "commodities": [{"src": s, "dst": t, "demand": rng.randint(1, 3)}
                               for s, t in _endpoint_pairs(rng, nodes, k)],
               "middlepoints": rng.sample(nodes, nm)}
        path = os.path.join(workdir, f"srte-{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        command = ("sr-lu", "sr-mf")[i // len(shapes) % 2]
        pool.append({"doc": doc, "path": path, "command": command})
    return pool


def srte_op(nf, item):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nf.cli.main([item["command"], "--instance", item["path"],
                            "--max-segments", "2", "--format", "structured"])
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    doc = json.loads(out.getvalue())
    doc["fields"].pop("runtime_sec", None)   # a timing, not part of the answer
    return doc


class _Plain:
    """An object with the given attributes; the checkers need no more."""

    def __init__(self, **attrs):
        self.__dict__.update(attrs)


def _plain_network(doc):
    """The network of an instance file, read without nodeflow."""
    edges = tuple(_Plain(id=i, tail=e["tail"], head=e["head"],
                         capacity=Fraction(e["capacity"]), length=e.get("length", 1))
                  for i, e in enumerate(doc["edges"]))
    coms = tuple(_Plain(source=c["src"], sink=c["dst"]) for c in doc["commodities"])
    return _Plain(orientation=doc["orientation"], nodes=tuple(doc["nodes"]),
                  edges=edges, commodities=coms)


def srte_check(item, out):
    doc, fields = item["doc"], out["fields"]
    net = _plain_network(doc)
    coms = doc["commodities"]
    demands = [Fraction(c["demand"]) for c in coms]
    tunnels = checks.tunnel_columns(net, tuple(doc["middlepoints"]), 2)
    if fields.get("status") != "optimal":
        return [f"status {fields.get('status')}"]
    problems = []
    if fields["tunnels"] != sum(len(t) for t in tunnels):
        problems.append(f"{fields['tunnels']} tunnels, expected {sum(len(t) for t in tunnels)}")
    by_label = [{(",".join(mids) if mids else "(direct)"): loads for mids, loads in ts}
                for ts in tunnels]
    routed = [Fraction(0)] * len(coms)
    loads = [Fraction(0)] * len(net.edges)
    for row in out.get("tunnel_flows", ()):
        i, f = row["commodity"], Fraction(row["flow"])
        if row["middlepoints"] not in by_label[i] or f <= 0:
            problems.append(f"bad tunnel flow {row}")
            continue
        routed[i] += f
        for eid, share in by_label[i][row["middlepoints"]].items():
            loads[eid] += f * share
    caps = [e.capacity for e in net.edges]
    if item["command"] == "sr-lu":
        theta = Fraction(fields["theta"])
        if routed != demands:
            problems.append(f"routed {routed} != demands {demands}")
        worst = max(load / cap for load, cap in zip(loads, caps))
        if worst != theta:
            problems.append(f"theta {theta} != recomputed worst utilisation {worst}")
        elif not problems and checks.min_load_certified(tunnels, caps, demands, theta) is False:
            problems.append(f"theta {theta} is not certified minimal")
    else:
        value = Fraction(fields["objective"])
        if sum(routed) != value:
            problems.append(f"tunnel flows sum to {sum(routed)}, objective {value}")
        if any(r > d for r, d in zip(routed, demands)):
            problems.append(f"routed {routed} exceeds demands {demands}")
        if any(load > cap for load, cap in zip(loads, caps)):
            problems.append("an edge is overloaded")
        columns = []
        for i, ts in enumerate(tunnels):
            for _, col_loads in ts:
                col = dict(col_loads)
                col[len(caps) + i] = 1
                columns.append(col)
        if not problems and not checks.max_form_optimum_is(columns, caps + demands, value):
            problems.append(f"objective {value} is not the tunnel-LP optimum")
    return problems


SRTE = {"build": srte_build, "op": srte_op,
        "signature": lambda out: json.dumps(out, sort_keys=True),
        "objective": lambda out: out["fields"].get("theta") or out["fields"].get("objective"),
        "check": srte_check}


WORKLOADS = {"wflow-directed": WFLOW, "transform-undirected": TRANSFORM,
             "centrality-sweep": CENTRALITY, "cli-srte": SRTE}
