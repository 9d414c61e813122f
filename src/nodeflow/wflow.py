"""Node-constrained maximum flow.

All flow must cross a designated node w (or any node of a designated set W).
Exact values come from path LPs over through-w families (directed; worst case
exponential) or, for undirected networks, from a polynomial-size arc program
on a transformed graph whose optimum is exactly twice the node-constrained
flow.  An augmenting-path heuristic and an s-w-t edge cut bound complete the
toolbox.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from . import lp as lpmod
from .errors import MalformedNetwork
from .maxflow import max_flow
from .network import (FWD, REV, EdgeWalk, FlowNetwork, _iter_walks,
                      _reachable, concat_walks, reverse_walk, through_any,
                      validate_walk)
from .rational import ZERO, rat
from .te import FlowSolution, default_families, solve_arcs, solve_te_mf

EXACT_CUT_EDGES = 20         # directed min_swt_edge_cut is exact up to this many edges
AUGMENT_SEARCH_CAP = 5000    # augmenting_w_flow: walks through w kept per round
AUGMENT_MAX_ROUNDS = 10_000  # augmenting_w_flow: rounds at most


# -- exact values via path LPs (directed or brute-force undirected) ----------

def max_w_flow_exact(net: FlowNetwork, w) -> FlowSolution:
    """Exact node-constrained max flow via a through-w path family per
    commodity: max_set_flow_paths with W = {w}.  When w coincides with a
    commodity endpoint the through-w family is simply that commodity's
    unconstrained family, so no special handling is needed."""
    return max_set_flow_paths(net, (w,))


def max_set_flow_paths(net: FlowNetwork, W, single_use=False,
                       simple=False) -> FlowSolution:
    """Group flow by explicit enumeration of through-any-of-W families.

    With single_use=True an undirected edge may appear at most once per path
    (the no-repeat variant, for which no polynomial algorithm is known; on a
    directed network it changes nothing); by default opposite-direction
    reuse is allowed.  With simple=True a path repeats no node.
    An empty W raises MissingDesignation and a node of W not in the network
    UnknownNode.
    """
    return solve_te_mf(net, default_families(
        net, through_any(W, single_use, simple)))


# -- undirected: polynomial transform -----------------------------------------


def build_transform(net: FlowNetwork, W):
    """Undirected node-constrained flow through W as an arc program: the
    (commodity, origin, exits) entries that solve_arcs takes, one per
    commodity i and designated node w, with exits (s_i, t_i).

    solve_arcs turns every undirected edge into a pair of opposite arcs
    sharing the original capacity, copies them into one layer per origin
    (designated node), less the arcs into that origin, which no simple path
    out of it uses, and gives each entry an exit variable drawn on at the
    commodity's two endpoints and weighted 2 in the objective; the
    program's optimum equals twice the node-constrained flow value.
    """
    if net.directed:
        raise MalformedNetwork("transform applies to undirected networks")
    W = through_any(W).nodes
    net.require(*W)
    return [(i, w, (com.source, com.sink))
            for i, com in enumerate(net.commodities) for w in W]


def solve_transform(net: FlowNetwork, entries):
    """Arc program on the transformed graph.  Returns the LpSolution; the
    node-constrained flow value is half its objective.

    One flow layer per origin (designated node w), one exit variable per
    commodity in each.  Layer w has the edge arcs except those into w, since
    its flow splits into simple paths out of w that never re-enter it, and,
    for each commodity i, an exit variable y_iw, drawn on at s_i and at t_i
    and weighted 2 in the objective.  Flow originates at w, is conserved at
    every other node, and leaves y_iw at each of s_i and t_i: a walk
    s_i -> w -> t_i of value f becomes f from w back to s_i and f from w on
    to t_i, so y_iw = f counts 2f.  The commodities share layer w, since a
    flow out of one origin splits into paths from it to the exits
    (solve_arcs), which can be dealt back to the commodities.  Layers with
    different origins stay apart: a single layer with conservation dropped
    at every designated node at once would let the program pair a
    source-side share split at one node with a sink-side share split at
    another, counting walks that do not exist.  Each y_iw needs at least one
    exit at a conserved node, and s_i != t_i gives it one, so the exit needs
    no capacity of its own even when w is an endpoint.

    Finite demand ceilings cap the sum of commodity i's exit variables over
    the layers.
    """
    sol = solve_arcs(net, entries)
    if sol.status != lpmod.OPTIMAL:
        raise MalformedNetwork(f"transform program unexpectedly {sol.status}")
    return sol


def max_set_flow(net: FlowNetwork, W) -> FlowSolution:
    """Node-set-constrained max flow (group flow).

    Directed networks go through explicit path families.  Undirected networks
    use the polynomial transform; its solution carries the exact value but no
    path decomposition (flows is None).  Either way an empty W raises
    MissingDesignation and a node of W not in the network UnknownNode.
    """
    if net.directed:
        return max_set_flow_paths(net, W)
    sol = solve_transform(net, build_transform(net, W))
    return FlowSolution(lpmod.OPTIMAL, sol.objective / 2, None, pivots=sol.pivots)


# -- s-w-t edge cuts ----------------------------------------------------------

@dataclass
class CutResult:
    edges: tuple    # edge ids
    value: object
    exact: bool


def min_swt_edge_cut(net: FlowNetwork, s, w, t) -> CutResult:
    """Minimum-capacity edge set whose removal leaves no s-w-t path.

    Undirected: exact by max flow at any size.  An edge may be crossed once
    each way, so an s-w-t walk exists exactly when s, w and t share a
    component, and the minimum is min(lambda(s,w), lambda(w,t)), or
    lambda(s,t) when w is s or t.  Directed: branch and bound up to
    EXACT_CUT_EDGES (20) edges, whose walk searches are skipped where
    reachability settles them and each raise CapExceeded past
    network.WALK_STEP_CAP arcs; beyond that, an upper bound labeled as
    inexact, the cheapest of the same max-flow cuts.  An s-w cut is one only
    when w != s (a walk that starts at w need not reach it again), a w-t cut
    only when w != t.
    """
    net.require(s, w, t)
    if not net.directed or len(net.edges) > EXACT_CUT_EDGES:
        pairs = [(a, b) for a, b, valid in ((s, t, s != t), (s, w, w != s), (w, t, w != t))
                 if valid]
        if pairs:
            cand = min((max_flow(net, a, b) for a, b in pairs), key=lambda r: r.value)
            ids, value = cand.cut, cand.value
        else:
            # s == w == t: a closed walk through s must leave it.
            ids = tuple(e.id for e in net.edges
                        if e.tail == s or (not net.directed and e.head == s))
            value = sum((net.edges[i].capacity for i in ids), ZERO)
        assert verify_cut(net, s, w, t, ids), "max-flow cut leaves an s-w-t walk"
        return CutResult(tuple(sorted(ids)), value, not net.directed)

    adj = net.adjacency()
    best = {"edges": tuple(e.id for e in net.edges), "value": net.total_capacity()}

    def search(removed, value):
        if value >= best["value"]:
            return
        walk = _swt_walk(net, adj, removed, s, w, t)
        if walk is None:
            best["edges"] = tuple(sorted(removed))
            best["value"] = value
            return
        for eid in sorted(set(eid for eid, _ in walk.steps)):
            search(removed | {eid}, value + net.edges[eid].capacity)

    search(frozenset(), ZERO)
    return CutResult(best["edges"], best["value"], True)


def _swt_walk(net, adj, removed, s, w, t):
    """First edge-distinct s-w-t walk avoiding the removed edges, or None,
    with no search when reachability settles it; a search past
    network.WALK_STEP_CAP arcs raises CapExceeded."""
    kept = {v: [(e, d) for e, d in arcs if e.id not in removed]
            for v, arcs in adj.items()}
    return next(_iter_walks(net, s, t, False, False, kept, (w,)), None)


def verify_cut(net: FlowNetwork, s, w, t, edge_ids) -> bool:
    net.require(s, w, t)
    adj = net.adjacency()
    removed = frozenset(edge_ids)
    if net.directed:
        return _swt_walk(net, adj, removed, s, w, t) is None
    # Undirected, the tree paths s-w and w-t cross their shared stretch once
    # each way, so once s reaches w and w reaches t a walk is left unless
    # s == w == t and no edge at s is: a walk has at least one step.
    if w not in _reachable(adj, removed, s) or t not in _reachable(adj, removed, w):
        return True
    return s == t and all(e.id in removed for e, _ in adj[s])


# -- augmenting-path heuristic -------------------------------------------------

@dataclass
class AugmentingResult:
    value: object
    arc_flow: dict      # edge id -> flow
    paths: list         # accepted residual walks, in order
    decomposition: list  # (EdgeWalk, amount) covering the final flow


def augmenting_w_flow(net: FlowNetwork, w) -> AugmentingResult:
    """Heuristic node-constrained flow for the first commodity (directed,
    integral capacities).  Each round augments, by its room, the shortest of
    the first AUGMENT_SEARCH_CAP (5,000) residual s-t walks through w whose
    net forward crossings into w are positive (forward steps on edges into
    w minus backward ones), so every accepted walk strictly increases the
    flow into w; ties go to the smaller steps tuple.  Stops when no such walk
    remains, after AUGMENT_MAX_ROUNDS (10,000) rounds at most.  A round
    whose residual network has no s-t route through w, by reachability,
    runs no search, and one whose search extends walks by more than
    network.WALK_STEP_CAP (1,000,000) arcs raises CapExceeded: a search can
    spin through exponentially many walks that miss w or end nowhere.  Not
    optimal in general.
    """
    if not net.directed:
        raise MalformedNetwork("augmenting heuristic is defined on directed networks")
    for e in net.edges:
        if rat(e.capacity).denominator != 1:
            raise MalformedNetwork(f"edge {e.id} has capacity {e.capacity}")
    if not net.commodities:
        raise MalformedNetwork("augmenting heuristic needs a commodity")
    com = net.commodities[0]
    s, t = com.source, com.sink
    if w in (s, t):
        raise MalformedNetwork(f"{w!r} is an endpoint of commodity 0")
    net.require(w)
    into_w = {e.id for e in net.edges if e.head == w}
    flow = {e.id: ZERO for e in net.edges}
    accepted = []
    for _ in range(AUGMENT_MAX_ROUNDS):
        # The residual arcs, searched in place: an edge forward with room
        # c - f, backward with room f, each node's in edge-id order.
        adj = {v: [] for v in net.nodes}
        room = {}
        for e in net.edges:
            r = e.capacity - flow[e.id]
            if r > 0:
                adj[e.tail].append((e, FWD))
                room[e.id, FWD] = r
            if flow[e.id] > 0:
                adj[e.head].append((e, REV))
                room[e.id, REV] = flow[e.id]
        walks = islice(_iter_walks(net, s, t, False, False, adj, (w,)),
                       AUGMENT_SEARCH_CAP)
        # Augmenting by room delta > 0 changes the flow into w by delta
        # times the walk's net forward steps into w.
        walk = min((p for p in walks
                    if sum(d for eid, d in p.steps if eid in into_w) > 0),
                   key=lambda p: (len(p.steps), p.steps), default=None)
        if walk is None:
            break
        delta = min(room[step] for step in walk.steps)
        for eid, d in walk.steps:
            flow[eid] += d * delta
        accepted.append(walk)
    value = sum((flow[e.id] for e in net.edges if e.tail == s), ZERO) - \
        sum((flow[e.id] for e in net.edges if e.head == s), ZERO)
    decomposition = _decompose(net, dict(flow), s, w, t)
    return AugmentingResult(value, flow, accepted, decomposition)


def _decompose(net, flow, s, w, t):
    """Greedy path decomposition of an s-t flow into s-w-t walks; leftover
    circulation is dropped.  Each round's walk uses only edges with positive
    flow and empties the smallest of them, so it ends within |E| rounds."""
    out = []
    adj = net.adjacency()
    while True:
        empty = frozenset(e.id for e in net.edges if flow[e.id] <= 0)
        walk = _swt_walk(net, adj, empty, s, w, t)
        if walk is None:
            return out
        delta = min(flow[eid] for eid, _ in walk.steps)
        for eid, _ in walk.steps:
            flow[eid] -= delta
        out.append((walk, delta))


# -- walk fixing (two edge-distinct legs into one path) ------------------------

def fix_paths(net: FlowNetwork, leg_sw: EdgeWalk, leg_wt: EdgeWalk) -> EdgeWalk:
    """Combine an s->w path and a w->t path that may share directed edges into
    a single valid s-w-t path.

    Repeatedly (a) excises cycles created by a directed edge repeated within
    one leg and (b) splices the two legs around a directed edge they share:
    if leg1 = A,(u,v),B and leg2 = C,(u,v),D then the legs become A+reverse(C)
    and reverse(B)+D.  Every step shortens the total length by 2, so this
    terminates; the result uses each directed edge at most once and never
    uses an edge more often than the two inputs combined.
    """
    if net.directed:
        raise MalformedNetwork("path fixing needs reverse traversals to be legal")
    if leg_sw.sink != leg_wt.source:
        raise ValueError("legs must meet at the designated node")
    w = leg_sw.sink
    p1, p2 = leg_sw, leg_wt

    def dedupe(walk):
        # remove the cycle between two uses of the same directed step
        seen = {}
        for idx, step in enumerate(walk.steps):
            if step in seen:
                i, j = seen[step], idx
                nodes = walk.nodes[: i + 1] + walk.nodes[j + 1:]
                steps = walk.steps[: i] + walk.steps[j:]
                return EdgeWalk(nodes, steps), True
            seen[step] = idx
        return walk, False

    changed = True
    while changed:
        changed = False
        p1, c1 = dedupe(p1)
        p2, c2 = dedupe(p2)
        if c1 or c2:
            changed = True
            continue
        common = None
        steps2 = {step: j for j, step in enumerate(p2.steps)}
        for i, step in enumerate(p1.steps):
            if step in steps2:
                common = (i, steps2[step])
                break
        if common is None:
            break
        i, j = common
        a = EdgeWalk(p1.nodes[: i + 1], p1.steps[:i])          # s .. u
        b = EdgeWalk(p1.nodes[i + 1:], p1.steps[i + 1:])       # v .. w
        c = EdgeWalk(p2.nodes[: j + 1], p2.steps[:j])          # w .. u
        d = EdgeWalk(p2.nodes[j + 1:], p2.steps[j + 1:])       # v .. t
        p1 = concat_walks(a, reverse_walk(c))
        p2 = concat_walks(reverse_walk(b), d)
        changed = True

    result = concat_walks(p1, p2)
    check = validate_walk(net, result)
    if not check.valid:
        raise MalformedNetwork(f"fix_paths produced an invalid walk: {check.reason}")
    return result
