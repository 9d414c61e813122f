"""Classic path-based traffic engineering programs.

Two formulations over an explicit path family per commodity:

* max-flow: maximize total routed flow subject to capacities and (finite)
  demand ceilings;
* min-load: minimize the worst link utilization theta while routing every
  commodity's required demand in full.

Min-load is solved as a maximum concurrent flow (Shahrokhi & Matula, JACM
1990): maximize lambda with load <= c(e) on every edge and each commodity
routing its need times lambda.  Flows f at lambda, divided by lambda, route
every need at utilization 1/lambda, and a routing at utilization theta,
divided by theta, is one at lambda = 1/theta; so theta = 1/lambda, with
flows f/lambda.  An unbounded lambda means every need is 0 (theta = 0);
lambda = 0 means a positive need has only zero-capacity routes (no theta).
Unlike the theta program, every row of this one holds at the origin.

Both are exact, and both are solve_columns with one column per walk; the
segment-routing tunnel programs in srte are the same program with one
column per tunnel.  Either way the answer is one FlowSolution whose flows
list each commodity's (route, flow) pairs.  Only minimal columns get an LP
variable: a walk or tunnel whose load vector is at least another's of the
same commodity on every edge is never needed, since moving its flow to the
smaller one keeps every row satisfied at the same objective.

The other program is solve_arcs, one copy per flow layer of every arc that
does not enter the layer's origin, and no enumeration: one layer per origin,
with one exit variable per commodity.  A simple origin-to-exit path never
re-enters its origin, so those arcs carry no flow that an optimum needs.
Origins at the commodities' sources give the unconstrained maximum
(max_flow_arc_lp), and origins at the designated nodes give the undirected
node-constrained transform in wflow.  On undirected networks it first
prunes dead ends and merges series and parallel edges, which changes pivots
but not status or objective.  Its objective, the sum of the exit variables,
is the flow, and its FlowSolution has flows None: no decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lp as lpmod
from .errors import InfiniteDemand
from .network import UNCONSTRAINED, FlowNetwork, enumerate_paths
from .rational import ONE, ZERO

INFEASIBLE = "infeasible"


@dataclass(slots=True)
class FlowSolution:
    """A flow program's answer.  flows maps each commodity index to its
    (route, flow) pairs with nonzero flow, in route order; a route is an
    EdgeWalk, or a Tunnel in srte.  flows is None when the program gives no
    decomposition (an arc program), and then the values below raise."""

    status: str
    objective: object = None
    flows: dict = field(default_factory=dict)
    theta: object = None
    pivots: int = 0

    def _entries(self):
        if self.flows is None:
            raise ValueError("this solution has no flow decomposition")
        return self.flows

    def commodity_value(self, i):
        return sum((f for _, f in self._entries().get(i, ())), ZERO)

    def total_value(self):
        return sum((self.commodity_value(i) for i in self._entries()), ZERO)

    def edge_loads(self, net: FlowNetwork):
        loads = {e.id: ZERO for e in net.edges}
        for entries in self._entries().values():
            for walk, f in entries:
                for eid, mult in walk.edge_multiplicity().items():
                    loads[eid] += mult * f
        return loads


def default_families(net: FlowNetwork, constraint=UNCONSTRAINED):
    """One family per commodity.  A constraint node not in the network is
    refused even when there is no commodity to enumerate for."""
    net.require(*constraint.nodes)
    return [enumerate_paths(net, i, constraint)
            for i in range(len(net.commodities))]


def _check_families(net, families):
    if len(families) != len(net.commodities):
        raise ValueError("one path family per commodity required")
    for i, fam in enumerate(families):
        com = net.commodities[i]
        if (fam.source, fam.sink) != (com.source, com.sink):
            raise ValueError(f"family {i} endpoints do not match commodity")


def _minimal_columns(cols):
    """Indices of the minimal columns: the first copy of each distinct
    column that no other column lies below on every edge.

    A column that lies below another has no larger total load, so in order
    of (total load, index) each first copy need only be compared with the
    minimal ones kept before it; the key-subset test rules most of them out
    before any load is compared.
    """
    first = {}
    for k, col in enumerate(cols):
        first.setdefault(frozenset(col.items()), k)
    kept, keep = [], set()
    for _, k in sorted((sum(cols[k].values()), k) for k in first.values()):
        col = cols[k]
        if not any(m.keys() <= col.keys()
                   and all(col[eid] >= load for eid, load in m.items())
                   for m in kept):
            kept.append(col)
            keep.add(k)
    return keep


def solve_columns(net: FlowNetwork, routes, minimize_load) -> FlowSolution:
    """The program shared by the path and tunnel formulations.

    routes[i] lists commodity i's (route, column) pairs, each column as
    {edge id: load per unit of flow}.  Both modes keep each edge's load
    <= c(e).  Max-flow mode maximizes the total flow within the finite
    demand ceilings; min-load mode is the concurrent-flow program of the
    module docstring.

    Only a commodity's minimal columns get a variable; every other route
    carries nothing.  A column is dropped when an earlier equal column (a
    twin) or another column of the same commodity lies below it on every
    edge: moving its flow to that column keeps every capacity and demand
    row satisfied and the objective unchanged, so status, objective and
    theta are those of the program with one variable per column.  The
    pivots, and which minimal column carries the flow, may differ from that
    program's.  Variables are made in route order, so Bland's ties still
    favour the earliest route.

    Returns the FlowSolution, whose flows key every commodity, or only
    status and pivots when the program is not optimal.  In min-load mode
    the objective is theta, and the status INFEASIBLE when none exists.
    """
    if minimize_load:
        needs = [com.effective_min() for com in net.commodities]
        for i, need in enumerate(needs):
            if need is None:
                raise InfiniteDemand(f"commodity {i} has no finite required demand")
        if any(need > 0 and not pairs for need, pairs in zip(needs, routes)):
            return FlowSolution(INFEASIBLE)
    lp = lpmod.LinearProgram()
    if minimize_load:
        lam = lp.add_variable("lambda")
    kept = []  # kept[i]: commodity i's (route, variable) pairs
    cells = [{} for _ in net.edges]  # edge id -> {variable: load}
    for i, pairs in enumerate(routes):
        keep = _minimal_columns([col for _, col in pairs])
        row = []
        for k, (route, col) in enumerate(pairs):
            if k in keep:
                name = lp.add_variable(f"f_{i}_{k}")
                row.append((route, name))
                for eid, load in col.items():
                    cells[eid][name] = load
        kept.append(row)
    for e in net.edges:
        if cells[e.id]:
            lp.add_constraint(cells[e.id], lpmod.LE, e.capacity)
    for row, com in zip(kept, net.commodities):
        names = dict.fromkeys((name for _, name in row), 1)
        if not names:
            continue
        if minimize_load:
            lp.add_constraint({**names, lam: -com.effective_min()}, lpmod.EQ, 0)
        elif com.max_demand is not None:
            lp.add_constraint(names, lpmod.LE, com.max_demand)
    lp.set_objective({lam: 1} if minimize_load
                     else {name: 1 for row in kept for _, name in row})
    sol = lpmod.solve(lp)
    if not minimize_load:
        if sol.status != lpmod.OPTIMAL:
            return FlowSolution(sol.status, pivots=sol.pivots)
        scale, objective = ONE, sol.objective
    elif sol.status == lpmod.UNBOUNDED:      # every need is 0
        scale, objective = ZERO, ZERO
    elif sol.objective == 0:   # a positive need has only zero-capacity routes
        return FlowSolution(INFEASIBLE, pivots=sol.pivots)
    else:
        scale = objective = ONE / sol.objective
    flows = {i: [(route, f) for route, name in row
                 if (f := scale * sol.value(name)) != 0]
             for i, row in enumerate(kept)}
    return FlowSolution(lpmod.OPTIMAL, objective, flows,
                        objective if minimize_load else None, sol.pivots)


def _solve_families(net, families, minimize_load):
    if families is None:
        families = default_families(net)
    _check_families(net, families)
    return solve_columns(net, [[(walk, walk.edge_multiplicity()) for walk in fam.paths]
                               for fam in families], minimize_load)


def solve_te_mf(net: FlowNetwork, families=None) -> FlowSolution:
    """Maximum total multicommodity flow over the given path families."""
    return _solve_families(net, families, minimize_load=False)


def solve_te_lu(net: FlowNetwork, families=None) -> FlowSolution:
    """Minimum worst-link utilization routing every demand in full.

    Every commodity must have a finite required amount (min_demand, which
    defaults to max_demand).
    """
    return _solve_families(net, families, minimize_load=True)


def _reduced_graph(net: FlowNetwork, terminals):
    """The undirected graph an arc program needs, given the nodes that some
    layer does not conserve: (nodes, edges), edges as (a, b, capacity).

    Applied until none fires: a zero-capacity edge is dropped; parallel
    edges become one edge of their summed capacity; a non-terminal node
    with at most one neighbour goes, with its edges; and a non-terminal
    node with two neighbours a, b is replaced by one edge a-b of capacity
    min(c_av, c_vb).  Edges keep their order: parallel edges merge into
    the first of them, and a series edge goes last unless it merges into
    an existing a-b edge.
    """
    cap = {}                               # (a, b) -> capacity, in order
    nbrs = {v: {} for v in net.nodes}      # node -> {neighbour: (a, b)}

    def link(a, b, c):
        key = nbrs[a].get(b)
        if key is None:
            key = nbrs[a][b] = nbrs[b][a] = (a, b)
            cap[key] = ZERO
        cap[key] += c

    for e in net.edges:
        if e.capacity:
            link(e.tail, e.head, e.capacity)
    stack = [v for v in reversed(net.nodes) if v not in terminals]
    while stack:
        v = stack.pop()
        if v not in nbrs or len(nbrs[v]) > 2:
            continue
        ends = {u: cap.pop(key) for u, key in nbrs.pop(v).items()}
        for u in ends:
            del nbrs[u][v]
        if len(ends) == 2:
            (a, c_av), (b, c_vb) = ends.items()
            link(a, b, min(c_av, c_vb))
        stack.extend(u for u in ends if u not in terminals)
    return ([v for v in net.nodes if v in nbrs],
            [(a, b, c) for (a, b), c in cap.items()])


def solve_arcs(net: FlowNetwork, layers):
    """The arc program shared by the undirected transform and the arc LP.

    layers lists (commodity, origin, exits); the program has one flow layer
    per origin and one exit variable per entry.  Each
    layer has its own copy of every arc (two opposite arcs per undirected
    edge) except the arcs into its origin, and an edge's arcs share its
    capacity across all layers; an edge with no arc left gets no row.  A
    layer's flow enters at its origin, is conserved at every other node, and
    leaves through the exit variables of the entries with that origin: each
    exit node of an entry draws on its exit variable once, so every exit
    node of an entry passes the same amount.  The objective is the sum of
    the exit variables, each entry's amount counted once however many exit
    nodes pass it, and a commodity's finite demand caps the sum of its exit
    variables.

    Entries that share an origin share its layer, which is exact.  Summing
    per-entry flows from one origin gives a flow of that layer with the same
    exit values and no edge loaded more.  Conversely, once a layer's
    opposite arcs and cycles are cancelled, its flow splits into
    origin-to-exit-node paths (Ahuja, Magnanti & Orlin, Network Flows,
    1993), each exit node receiving what its entries draw there; dealing
    those paths out to the entries gives each its own flow, and together
    they load no edge more than the layer did.  A simple path never
    re-enters its origin, so the layer needs no arc into it: status and
    objective are those of the program with every arc, while the pivots
    and the program's shape are not.

    An undirected graph is first reduced (_reduced_graph) with every
    entry's origin and exits as its terminals, the only nodes some layer
    does not conserve.  Each rule keeps the set of layer flows the capacity
    rows admit.  Flow that enters a dead end can only come back out, so it
    cancels to 0.  At a series node v between a and b, once each layer's
    opposite flows on an edge are cancelled, the layer's net flow a-v-b
    loads both edges by its absolute value, so the layers fit on both
    exactly when they fit on one edge of capacity min(c_av, c_vb).  Status
    and objective are therefore those of the unreduced program; the
    pivots may differ.  Directed graphs are not reduced.

    Returns the FlowSolution, with flows None, or only status and pivots
    when the program is not optimal.
    """
    if net.directed:
        nodes, edges = net.nodes, [(e.tail, e.head, e.capacity) for e in net.edges]
    else:
        terminals = {v for _, origin, exits in layers for v in (origin, *exits)}
        nodes, edges = _reduced_graph(net, terminals)
    arcs = []         # (edge index, tail, head)
    for k, (tail, head, _) in enumerate(edges):
        arcs.append((k, tail, head))
        if not net.directed:
            arcs.append((k, head, tail))
    by_edge = [[] for _ in edges]
    incidence = {v: [] for v in nodes}   # node -> [(arc, +-1)]
    for j, (k, tail, head) in enumerate(arcs):
        by_edge[k].append(j)
        incidence[head].append((j, ONE))
        incidence[tail].append((j, -ONE))

    lp = lpmod.LinearProgram()
    outs = []         # outs[k]: the exit variable of layers[k]
    by_origin = {}    # origin -> ({arc: its variable}, [(exits, exit variable)])
    for k, (_, origin, exits) in enumerate(layers):
        if origin not in by_origin:
            g = len(by_origin)
            row = {j: lp.add_variable(f"x{g}_{j}")
                   for j, (_, _, head) in enumerate(arcs) if head != origin}
            by_origin[origin] = (row, [])
        outs.append(lp.add_variable(f"x{k}_exit"))
        by_origin[origin][1].append((exits, outs[-1]))
    for arcs_of_edge, (_, _, capacity) in zip(by_edge, edges):
        coeffs = {row[j]: ONE for row, _ in by_origin.values()
                  for j in arcs_of_edge if j in row}
        if coeffs:
            lp.add_constraint(coeffs, lpmod.LE, capacity)
    for origin, (row, members) in by_origin.items():
        for v in nodes:
            if v == origin:
                continue
            coeffs = {row[j]: c for j, c in incidence[v] if j in row}
            for exits, out in members:
                if v in exits:
                    coeffs[out] = -ONE
            if coeffs:
                lp.add_constraint(coeffs, lpmod.EQ, 0)
    for i, com in enumerate(net.commodities):
        if com.max_demand is not None:
            mine = [out for (c, _, _), out in zip(layers, outs) if c == i]
            lp.add_constraint(dict.fromkeys(mine, ONE), lpmod.LE, com.max_demand)
    lp.set_objective(dict.fromkeys(outs, 1))
    sol = lpmod.solve(lp)
    if sol.status != lpmod.OPTIMAL:
        return FlowSolution(sol.status, pivots=sol.pivots)
    return FlowSolution(lpmod.OPTIMAL, sol.objective, None, pivots=sol.pivots)


def max_flow_arc_lp(net: FlowNetwork) -> FlowSolution:
    """Arc-based maximum multicommodity flow (no node constraints).

    Polynomial-size program used for unconstrained flow values where a path
    family would be overkill: solve_arcs with one layer per distinct source
    and one exit variable per commodity, drawn on at its sink.
    """
    return solve_arcs(net, [(i, com.source, (com.sink,))
                            for i, com in enumerate(net.commodities)])
