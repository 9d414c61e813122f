"""Brute-force equivalence checkers for the gadget constructions.

Each checker decides the source problem directly (exhaustively, on small
instances) and through the corresponding gadget, and reports both answers.
They are deliberately independent of the constructions' correctness
arguments: the left-hand side never touches the gadget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from nodeflow.errors import CapExceeded
from nodeflow.network import (EdgeWalk, FlowNetwork, PathConstraint,
                              UNCONSTRAINED, concat_walks, enumerate_st_paths,
                              through_any, validate_walk)
from nodeflow.reductions import (disjoint_shortest_paths_gadget,
                                 max_coverage_gadget, node_split_gadget,
                                 two_disjoint_paths_gadget, unit_path_gadget)
from nodeflow.centrality import n_group_max_flow
from nodeflow.srte import FeasibilityResult, acyclic_feasible, shortest_path_data
from nodeflow.wflow import max_w_flow_exact

PRODUCT_CAP = 10_000  # shortest paths per segment, and their combinations


@dataclass
class CheckResult:
    direct: object
    via_gadget: object
    consistent: bool


def _simple_node_paths(net, s, t):
    return [p.nodes for p in
            enumerate_st_paths(net, s, t, PathConstraint(simple=True)).paths]


def check_two_disjoint_paths(net: FlowNetwork, u1, u2, v1, v2) -> CheckResult:
    """Vertex-disjoint u1->u2 and v1->v2 paths: direct enumeration versus the
    existence of a simple s-w-t path in the gadget."""
    direct = False
    second = _simple_node_paths(net, v1, v2)
    for p in _simple_node_paths(net, u1, u2):
        pset = set(p)
        for q in second:
            if not (pset & set(q)):
                direct = True
                break
        if direct:
            break
    gadget = two_disjoint_paths_gadget(net, u1, u2, v1, v2)
    w = gadget.designated["w"]
    via = len(enumerate_st_paths(gadget.network, u1, v2,
                                 through_any((w,), simple=True))) > 0
    return CheckResult(direct, via, direct == via)


def check_node_split(net: FlowNetwork, s, w, t) -> CheckResult:
    """Internally node-disjoint s->w and w->t paths versus edge-disjoint
    paths between the corresponding split nodes."""
    direct = False
    second = _simple_node_paths(net, w, t)
    for p in _simple_node_paths(net, s, w):
        pset = set(p)
        for q in second:
            if pset & set(q) == {w}:
                direct = True
                break
        if direct:
            break
    gadget = node_split_gadget(net)
    g = gadget.network
    s_in = gadget.mapping[s][0]
    w_in, w_out = gadget.mapping[w]
    t_out = gadget.mapping[t][1]
    via = False
    # Starting at s.in and ending at t.out makes each leg consume its own
    # endpoint's split edge, so the other leg cannot reuse that node either.
    legs2 = enumerate_st_paths(g, w_out, t_out, UNCONSTRAINED).paths
    for p in enumerate_st_paths(g, s_in, w_in, UNCONSTRAINED).paths:
        pedges = set(eid for eid, _ in p.steps)
        for q in legs2:
            if not (pedges & set(eid for eid, _ in q.steps)):
                via = True
                break
        if via:
            break
    return CheckResult(direct, via, direct == via)


def check_unit_path(net: FlowNetwork, s, t, w) -> CheckResult:
    """An s-w-t path exists iff the unit-capacity node-constrained max flow
    is at least 1."""
    direct = len(enumerate_st_paths(net, s, t, through_any([w]))) > 0
    gadget = unit_path_gadget(net, s, t, w)
    sol = max_w_flow_exact(gadget.network, w)
    via = sol.objective is not None and sol.objective >= 1
    return CheckResult(direct, via, direct == via)


def max_coverage_brute(items, sets, n):
    """Largest number of items covered by at most n of the given sets."""
    sets = [frozenset(s) for s in sets]
    best = 0
    for size in range(0, min(n, len(sets)) + 1):
        for combo in itertools.combinations(range(len(sets)), size):
            covered = set().union(*(sets[k] for k in combo)) if combo else set()
            best = max(best, len(covered))
    return best


def check_max_coverage(items, sets, n) -> CheckResult:
    """Optimal coverage versus the optimal N-group flow on the gadget."""
    direct = max_coverage_brute(items, sets, n)
    gadget = max_coverage_gadget(items, sets)
    res = n_group_max_flow(gadget.network, n, method="brute")
    return CheckResult(direct, res.value, direct == res.value)


def shortest_path_walks(net, u, v):
    """All shortest u->v paths as EdgeWalks (via the predecessor DAG), in
    step order.  More than PRODUCT_CAP (10,000) of them raise CapExceeded."""
    dist, count, preds = shortest_path_data(net, u)
    if v not in dist:
        return []
    if count[v] > PRODUCT_CAP:
        raise CapExceeded(f"{count[v]} shortest paths for segment ({u},{v})")
    walks = []

    def back(node, nodes, steps):
        if node == u:
            walks.append(EdgeWalk(tuple(reversed(nodes)), tuple(reversed(steps))))
            return
        for prev, eid in preds[node]:
            direction = 1 if net.edges[eid].tail == prev else -1
            back(prev, nodes + [prev], steps + [(eid, direction)])

    back(v, [v], [])
    walks.sort(key=lambda wk: wk.steps)
    return walks


def acyclic_feasible_product(net: FlowNetwork, source, sink, middlepoints,
                             mode="path") -> FeasibilityResult:
    """acyclic_feasible by exhaustion: the cartesian product of per-segment
    shortest paths in step order, each combination concatenated and checked
    whole (validate_walk in path mode, no repeated node in simple_path
    mode).  More than PRODUCT_CAP (10,000) combinations raise CapExceeded;
    steps_tried counts the combinations tried."""
    chain = (source,) + tuple(middlepoints) + (sink,)
    options = []
    total = 1
    for u, v in zip(chain, chain[1:]):
        walks = shortest_path_walks(net, u, v)
        if not walks:
            return FeasibilityResult(False)
        options.append(walks)
        total *= len(walks)
        if total > PRODUCT_CAP:
            raise CapExceeded(f"{total} segment-path combinations exceed cap {PRODUCT_CAP}")
    for tried, combo in enumerate(itertools.product(*options), 1):
        walk = combo[0]
        for nxt in combo[1:]:
            walk = concat_walks(walk, nxt)
        if walk.is_simple() if mode == "simple_path" else validate_walk(net, walk).valid:
            return FeasibilityResult(True, walk, tried)
    return FeasibilityResult(False, None, total)


def disjoint_shortest_paths_brute(net: FlowNetwork, pairs):
    """Do the pairs admit pairwise node-disjoint shortest paths?  Exhaustive
    over per-pair shortest paths; a pair with more than PRODUCT_CAP (10,000)
    of them raises CapExceeded."""
    options = []
    for u, v in pairs:
        walks = shortest_path_walks(net, u, v)
        if not walks:
            return False
        options.append(walks)
    for combo in itertools.product(*options):
        nodes = [set(wk.nodes) for wk in combo]
        ok = True
        for a, b in itertools.combinations(range(len(combo)), 2):
            if nodes[a] & nodes[b]:
                ok = False
                break
        if ok:
            return True
    return False


def check_disjoint_shortest_paths(net: FlowNetwork, pairs) -> CheckResult:
    """Node-disjoint shortest paths versus acyclic (simple-path) feasibility
    of the middlepoint chain on the gadget.  The direct side enumerates at
    most PRODUCT_CAP (10,000) shortest paths per pair; the gadget side's
    search stops at network.WALK_STEP_CAP steps."""
    direct = disjoint_shortest_paths_brute(net, pairs)
    gadget = disjoint_shortest_paths_gadget(net, pairs)
    com = gadget.network.commodities[0]
    res = acyclic_feasible(gadget.network, com.source, com.sink,
                           gadget.middlepoints or (), mode="simple_path")
    return CheckResult(direct, res.feasible, direct == res.feasible)
