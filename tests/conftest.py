"""Shared helpers: random instance generators and independent walk,
min-load and demand-feasibility oracles."""

from fractions import Fraction

from nodeflow import (INFEASIBLE, LE, OPTIMAL, UNBOUNDED, FlowNetwork,
                      LinearProgram, solve_te_mf)
from nodeflow import solve as solve_lp
from nodeflow.rational import ZERO


def random_directed(rng, n_nodes=None, n_edges=None, n_commodities=1,
                    cap_hi=4, finite_demands=False, min_demands=False):
    n_nodes = n_nodes or rng.randint(3, 6)
    n_edges = n_edges if n_edges is not None else rng.randint(3, 8)
    nodes = [f"n{i}" for i in range(n_nodes)]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    rng.shuffle(pairs)
    edges = [(a, b, rng.randint(1, cap_hi))
             for a, b in pairs[:min(n_edges, len(pairs))]]
    commodities = []
    endpoint_pairs = [(a, b) for a in nodes for b in nodes if a != b]
    rng.shuffle(endpoint_pairs)
    for s, t in endpoint_pairs[:n_commodities]:
        if finite_demands:
            dmax = rng.randint(1, cap_hi)
            dmin = rng.randint(0, dmax) if min_demands else None
            commodities.append((s, t, dmax, dmin))
        else:
            commodities.append((s, t, None))
    return FlowNetwork.build("directed", nodes, edges, commodities)


def random_undirected(rng, n_nodes=None, n_edges=None, n_commodities=1,
                      cap_hi=4, finite_demands=False):
    n_nodes = n_nodes or rng.randint(3, 6)
    n_edges = n_edges if n_edges is not None else rng.randint(3, 8)
    nodes = [f"n{i}" for i in range(n_nodes)]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    rng.shuffle(pairs)
    edges = [(a, b, rng.randint(1, cap_hi))
             for a, b in pairs[:min(n_edges, len(pairs))]]
    endpoint_pairs = [(a, b) for a in nodes for b in nodes if a != b]
    rng.shuffle(endpoint_pairs)
    commodities = [(s, t, rng.randint(1, cap_hi) if finite_demands else None)
                   for s, t in endpoint_pairs[:n_commodities]]
    return FlowNetwork.build("undirected", nodes, edges, commodities)


def pick_inner_node(rng, net):
    """A node that is no commodity endpoint, or None."""
    endpoints = {c.source for c in net.commodities}
    endpoints |= {c.sink for c in net.commodities}
    inner = [v for v in net.nodes if v not in endpoints]
    return rng.choice(inner) if inner else None


def oracle_walks(net, s, t, through=(), simple=False, single_use=False):
    """Independent recursive enumeration of edge-distinct walks s -> t.

    Returns the set of node sequences.  through is a node set: when it is
    nonempty, a walk must visit one of its nodes.  An undirected edge may be
    used twice only in opposite directions (once in total under single_use);
    walks may pass through the sink and come back.
    """
    arcs = []
    for e in net.edges:
        arcs.append((e.id, e.tail, e.head, +1))
        if not net.directed:
            arcs.append((e.id, e.head, e.tail, -1))
    found = set()
    used = {}

    def rec(node, seq):
        if node == t and len(seq) > 1:
            if not through or any(w in seq for w in through):
                if not simple or len(set(seq)) == len(seq):
                    found.add(tuple(seq))
        for eid, a, b, d in arcs:
            if a != node:
                continue
            prev = used.get(eid, ())
            if prev and (net.directed or single_use or d in prev):
                continue
            if simple and b in seq:
                continue
            used[eid] = prev + (d,)
            rec(b, seq + [b])
            used[eid] = prev
            if not prev:
                del used[eid]

    rec(s, [s])
    return found


def vector(net, col):
    """A route column {edge id: load} as a tuple over every edge."""
    return tuple(col.get(e.id, 0) for e in net.edges)


def min_load_dual(net, columns):
    """The least worst-link utilization theta over every distinct column of
    each commodity, from the LP dual of the theta program, built directly:
    maximize sum_i need_i * u_i subject to u_i <= sum_e load_e * y_e for
    every column of commodity i and sum_e c(e) * y_e <= 1.  The dual is
    feasible at the origin, so it is unbounded exactly when no theta routes
    every need.  Returns (status, theta)."""
    lp = LinearProgram()
    ys = [lp.add_variable(f"y_{e.id}") for e in net.edges]
    lp.add_constraint({y: e.capacity for y, e in zip(ys, net.edges)}, LE, 1)
    objective = {}
    for i, (cols, com) in enumerate(zip(columns, net.commodities)):
        u = lp.add_variable(f"u_{i}")
        objective[u] = com.effective_min()
        for vec in sorted({vector(net, c) for c in cols}):
            coeffs = {ys[eid]: -load for eid, load in enumerate(vec)}
            coeffs[u] = 1
            lp.add_constraint(coeffs, LE, 0)
    lp.set_objective(objective)
    sol = solve_lp(lp)
    if sol.status == UNBOUNDED:
        return INFEASIBLE, None
    return sol.status, sol.objective


def dmf_satisfiable(net):
    """Can every finite demand be met at once?  Yes iff the max-flow
    optimum routes the total demand."""
    sol = solve_te_mf(net)
    routed = sol.objective if sol.status == OPTIMAL else ZERO
    return routed == sum(com.max_demand for com in net.commodities)


def brute_max_flow(net, commodity=0):
    """Single-commodity max flow by brute enumeration over arc assignments is
    too slow; instead use an independent Ford-Fulkerson over Fractions."""
    com = net.commodities[commodity]
    residual = {}
    for e in net.edges:
        residual[(e.tail, e.head)] = residual.get((e.tail, e.head),
                                                  Fraction(0)) + Fraction(e.capacity)
        residual.setdefault((e.head, e.tail), Fraction(0))
        if not net.directed:
            residual[(e.head, e.tail)] += Fraction(e.capacity)
    value = Fraction(0)
    while True:
        parent = {com.source: None}
        stack = [com.source]
        while stack:
            u = stack.pop()
            for v in net.nodes:
                if v not in parent and residual.get((u, v), 0) > 0:
                    parent[v] = u
                    stack.append(v)
        if com.sink not in parent:
            return value
        path = []
        v = com.sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        delta = min(residual[a] for a in path)
        for a in path:
            residual[a] -= delta
            residual[(a[1], a[0])] += delta
        value += delta
