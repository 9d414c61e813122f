"""Independent checkers for the answers the benchmark's workloads produce.

Nothing here calls into nodeflow's solvers.  Networks are read only through
their plain attributes (nodes, edges, commodities, orientation), and every
check is decided in exact ``fractions.Fraction`` arithmetic:

* walks are enumerated by a separate depth-first search;
* single-commodity maximum flow is a Ford-Fulkerson over Fractions;
* shortest-path counts and ECMP fractions are recomputed from scratch;
* optimality of a max-form program is proved by a dual certificate.  A dual
  proposed by scipy's HiGHS (when installed) is rounded to Fractions and
  then checked exactly; when that fails, or scipy is missing, the program is
  solved by the small exact simplex below (or, for the priced path LP and
  the min-load bound, the check reports itself undecided).  A float never
  decides an answer.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

FWD, REV = 1, -1


def frac(value):
    """Any exact rational (int, Fraction, gmpy2 mpq) as a Fraction."""
    return Fraction(int(value.numerator), int(value.denominator))


# -- walks --------------------------------------------------------------------

def _arcs(net):
    out = {v: [] for v in net.nodes}
    for e in net.edges:
        out[e.tail].append((e.id, e.head, FWD))
        if net.orientation == "undirected":
            out[e.head].append((e.id, e.tail, REV))
    return out


def _reverse_dijkstra(net, weight, start):
    """Least weight from every node to the nearest start node, where
    ``start`` maps start nodes to their initial labels (edge-distinctness
    ignored, so this bounds the cost of any walk from below)."""
    into = {v: [] for v in net.nodes}
    for e in net.edges:
        into[e.head].append((e.tail, weight[e.id]))
        if net.orientation == "undirected":
            into[e.tail].append((e.head, weight[e.id]))
    dist = {}
    heap = [(d, v) for v, d in start.items()]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for u, wt in into[v]:
            if u not in dist:
                heapq.heappush(heap, (d + wt, u))
    return dist


def through_walks(net, source, sink, through_any, most, weight=None, limit=1,
                  budget=200_000):
    """Edge-multiplicity (load) vectors of up to ``most`` edge-distinct
    source->sink walks that visit a node of ``through_any`` and whose integer
    edge weights sum below ``limit`` (by default: every such walk).

    An undirected edge may be crossed twice, in opposite directions only;
    walks may pass the sink and return.  A prefix is abandoned once its cost
    plus a lower bound on the rest reaches the limit.  Returns None when the
    search exceeds ``budget`` steps."""
    if weight is None:
        weight = [0] * len(net.edges)
    arcs = _arcs(net)
    targets = set(through_any)
    to_sink = _reverse_dijkstra(net, weight, {sink: 0})
    via = _reverse_dijkstra(net, weight, {w: to_sink[w] for w in targets if w in to_sink})
    mult = [0] * len(net.edges)
    used = {}
    found = []
    steps = 0

    def rec(node, hits, cost):
        nonlocal steps
        steps += 1
        if steps > budget:
            return False
        if node == sink and hits and any(mult):
            found.append(tuple(mult))
            if len(found) >= most:
                return True
        for eid, nxt, d in arcs[node]:
            prev = used.get(eid)
            if prev is not None and (net.orientation == "directed" or prev == d
                                     or prev == 0):
                continue
            hit = hits or nxt in targets
            rest = (to_sink if hit else via).get(nxt)
            if rest is None or cost + weight[eid] + rest >= limit:
                continue
            used[eid] = d if prev is None else 0
            mult[eid] += 1
            done = rec(nxt, hit, cost + weight[eid])
            mult[eid] -= 1
            if prev is None:
                del used[eid]
            else:
                used[eid] = prev
            if done is not None:
                return done
        return None

    if rec(source, source in targets, 0) is False:
        return None
    return found


def prune(vectors):
    """Drop load vectors that componentwise dominate another one: such a
    column routes a unit using at least as much of every capacity."""
    keep = []
    for vec in sorted(vectors, key=lambda v: (sum(v), v)):
        if not any(all(a <= b for a, b in zip(k, vec)) for k in keep):
            keep.append(vec)
    return keep


def check_walk(net, walk, source, sink):
    """Is ``walk`` an edge-distinct source->sink walk of ``net``?"""
    if not walk.steps or len(walk.nodes) != len(walk.steps) + 1:
        return False
    if walk.nodes[0] != source or walk.nodes[-1] != sink:
        return False
    used = {}
    for i, (eid, d) in enumerate(walk.steps):
        if not 0 <= eid < len(net.edges):
            return False
        e = net.edges[eid]
        a, b = (e.tail, e.head) if d == FWD else (e.head, e.tail)
        if d == REV and net.orientation == "directed":
            return False
        if (a, b) != (walk.nodes[i], walk.nodes[i + 1]):
            return False
        dirs = used.setdefault(eid, set())
        if d in dirs or (dirs and net.orientation == "directed"):
            return False
        dirs.add(d)
    return True


# -- maximum flow ---------------------------------------------------------------

def ford_fulkerson(net, s, t):
    """Single-commodity s-t max flow value over Fractions."""
    residual = {}
    nbrs = {v: set() for v in net.nodes}
    for e in net.edges:
        c = frac(e.capacity)
        residual[(e.tail, e.head)] = residual.get((e.tail, e.head), 0) + c
        residual.setdefault((e.head, e.tail), Fraction(0))
        if net.orientation == "undirected":
            residual[(e.head, e.tail)] += c
        nbrs[e.tail].add(e.head)
        nbrs[e.head].add(e.tail)
    value = Fraction(0)
    while True:
        parent = {s: None}
        stack = [s]
        while stack and t not in parent:
            u = stack.pop()
            for v in sorted(nbrs[u]):
                if v not in parent and residual[(u, v)] > 0:
                    parent[v] = u
                    stack.append(v)
        if t not in parent:
            return value
        path = []
        v = t
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        delta = min(residual[a] for a in path)
        for a, b in path:
            residual[(a, b)] -= delta
            residual[(b, a)] += delta
        value += delta


# -- max-form programs: max sum(x) s.t. A x <= b, x >= 0, with b >= 0 --------

def exact_max(columns, rhs):
    """Optimum of max sum_j x_j subject to sum_j columns[j][r] x_j <= rhs[r].

    ``columns`` are dicts row -> coefficient, ``rhs`` a list of nonnegative
    Fractions.  Dense Bland simplex from the slack basis; every column has
    objective coefficient 1.
    """
    m, n = len(rhs), len(columns)
    rows = [[Fraction(0)] * (n + m) + [rhs[r]] for r in range(m)]
    for j, col in enumerate(columns):
        for r, a in col.items():
            rows[r][j] = Fraction(a)
    for r in range(m):
        rows[r][n + r] = Fraction(1)
    basis = [n + r for r in range(m)]
    z = [Fraction(1)] * n + [Fraction(0)] * (m + 1)  # reduced costs, -objective
    while True:
        enter = next((j for j in range(n + m) if z[j] > 0), -1)
        if enter < 0:
            return -z[-1]
        leave, best = -1, None
        for r in range(m):
            a = rows[r][enter]
            if a > 0:
                ratio = rows[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    leave, best = r, ratio
        if leave < 0:
            raise ValueError("unbounded program")
        piv = rows[leave][enter]
        prow = [x / piv for x in rows[leave]]
        rows[leave] = prow
        for r in range(m):
            f = rows[r][enter]
            if r != leave and f != 0:
                rows[r] = [x - f * p for x, p in zip(rows[r], prow)]
        f = z[enter]
        z = [x - f * p for x, p in zip(z, prow)]
        basis[leave] = enter


def _highs_max(columns, rhs):
    """HiGHS solution of the max-form program in floats, or None when scipy
    is missing or the solve fails.  scipy is imported here, on first use, so
    that it adds nothing to the benchmark's set-up time or peak memory."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    a = [[0.0] * len(columns) for _ in rhs]
    for j, col in enumerate(columns):
        for r, v in col.items():
            a[r][j] = float(v)
    res = linprog([-1.0] * len(columns), A_ub=a, b_ub=[float(b) for b in rhs],
                  bounds=(0, None), method="highs")
    return res if res.status == 0 else None


def _rounded(values):
    return [Fraction(v).limit_denominator(10_000) if v > 0 else Fraction(0)
            for v in values]


def _primal_feasible(columns, rhs, x):
    load = [Fraction(0)] * len(rhs)
    for col, xj in zip(columns, x):
        if xj:
            for r, c in col.items():
                load[r] += c * xj
    return all(a <= b for a, b in zip(load, rhs))


def dual_certifies(columns, rhs, y, value):
    """Is y >= 0 a dual solution of value ``value``: every column costs at
    least 1 under y, and rhs . y == value?"""
    if any(sum((c * y[r] for r, c in col.items()), Fraction(0)) < 1 for col in columns):
        return False
    return sum((b * yr for b, yr in zip(rhs, y)), Fraction(0)) == value


def max_form_optimum_is(columns, rhs, value):
    """Does max sum(x) over the program equal ``value``, given that a
    feasible point of that value is already known?  Proved with an exact dual
    certificate when one rounds cleanly, else by solving exactly."""
    value = Fraction(value)
    if not columns:
        return value == 0
    res = _highs_max(columns, rhs)
    if res is not None and dual_certifies(columns, rhs, _rounded(-x for x in res.ineqlin.marginals), value):
        return True
    return exact_max(columns, rhs) == value


def min_load_certified(tunnels_per_com, caps, demands, theta):
    """Is ``theta`` the least worst-edge utilisation that routes every demand
    over these tunnels?  For any y >= 0 on the edges, weak duality bounds it
    below by sum_i d_i * min_k cost_ik(y) / sum_e c_e y_e; a y from HiGHS,
    rounded to Fractions, must make that bound reach theta exactly.
    Returns None when no y could be tried (scipy missing or the solve
    failed)."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    cols = [loads for tunnels in tunnels_per_com for _, loads in tunnels]
    m, n = len(caps), len(cols)
    a = [[0.0] * (n + 1) for _ in range(m + len(demands))]
    for r, c in enumerate(caps):
        a[r][0] = -float(c)
    j = 1
    for i, tunnels in enumerate(tunnels_per_com):
        for _, loads in tunnels:
            for eid, f in loads.items():
                a[eid][j] = float(f)
            a[m + i][j] = -1.0
            j += 1
    b = [0.0] * m + [-float(d) for d in demands]
    res = linprog([1.0] + [0.0] * n, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    if res.status != 0:
        return None
    y = _rounded(-v for v in res.ineqlin.marginals[:m])
    scale = sum((c * yr for c, yr in zip(caps, y)), Fraction(0))
    if scale == 0:
        return False
    bound = Fraction(0)
    for d, tunnels in zip(demands, tunnels_per_com):
        bound += d * min(sum((f * y[eid] for eid, f in loads.items()), Fraction(0))
                         for _, loads in tunnels)
    return bound / scale == theta


def path_program(net, vectors_per_commodity):
    """Columns and right-hand sides of the path LP (capacity rows, then one
    demand row per commodity with a finite ceiling)."""
    rhs = [frac(e.capacity) for e in net.edges]
    demand_row = {}
    for i, com in enumerate(net.commodities):
        if com.max_demand is not None:
            demand_row[i] = len(rhs)
            rhs.append(frac(com.max_demand))
    columns = []
    for i, vectors in enumerate(vectors_per_commodity):
        for vec in vectors:
            col = {r: c for r, c in enumerate(vec) if c}
            if i in demand_row:
                col[demand_row[i]] = 1
            columns.append(col)
    return columns, rhs


def priced_path_optimum(net, through_any, budget=200_000, rounds=60):
    """Exact optimum of the path LP over every walk through ``through_any``
    (unbounded demands), by column generation instead of enumeration.

    Each round solves the restricted program with HiGHS, rounds its primal
    and dual to Fractions and prices every commodity exactly: a walk whose
    dual cost is below 1 joins the program.  When no such walk exists, the
    rounded dual is feasible for the full program, so a rounded primal of
    equal value proves the optimum.  Returns None when this cannot be
    decided within the step budget, the round limit, or without scipy.
    """
    rhs = [frac(e.capacity) for e in net.edges]
    families = [set() for _ in net.commodities]
    y = [Fraction(0)] * len(rhs)
    res = None
    for _ in range(rounds):
        den = math.lcm(*(v.denominator for v in y))
        weight = [int(v * den) for v in y]
        added = False
        for i, com in enumerate(net.commodities):
            walks = through_walks(net, com.source, com.sink, through_any, 32,
                                  weight, den, budget)
            if walks is None:
                return None
            fresh = set(walks) - families[i]
            families[i] |= fresh
            added = added or bool(fresh)
        columns = [{r: c for r, c in enumerate(vec) if c}
                   for fam in families for vec in sorted(fam)]
        if not added:
            if res is None:   # no walk at all: the optimum is 0
                return Fraction(0)
            x = _rounded(res.x)
            value = sum(x, Fraction(0))
            certified = (_primal_feasible(columns, rhs, x)
                         and dual_certifies(columns, rhs, y, value))
            return value if certified else None
        res = _highs_max(columns, rhs)
        if res is None:
            return None
        y = _rounded(-v for v in res.ineqlin.marginals)
    return None


# -- shortest paths and ECMP ----------------------------------------------------

def _dijkstra_counts(adj, source):
    dist = {source: 0}
    count = {source: 1}
    heap = [(0, source)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for u, ln in adj[v]:
            nd = d + ln
            if u not in dist or nd < dist[u]:
                dist[u], count[u] = nd, count[v]
                heapq.heappush(heap, (nd, u))
            elif nd == dist[u]:
                count[u] += count[v]
    return dist, count


def segment_fractions(net, u, v):
    """edge id -> exact share of a u->v segment's traffic under ECMP, or None
    when v is unreachable.  Shortest paths are counted on each side of an
    edge: share(a->b) = paths(u,a) * paths(b,v) / paths(u,v)."""
    fwd = {x: [] for x in net.nodes}
    back = {x: [] for x in net.nodes}
    arcs = []
    for e in net.edges:
        pairs = [(e.tail, e.head)]
        if net.orientation == "undirected":
            pairs.append((e.head, e.tail))
        for a, b in pairs:
            fwd[a].append((b, e.length))
            back[b].append((a, e.length))
            arcs.append((e.id, a, b, e.length))
    du, cu = _dijkstra_counts(fwd, u)
    dv, cv = _dijkstra_counts(back, v)
    if v not in du:
        return None
    shares = {}
    for eid, a, b, ln in arcs:
        if a in du and b in dv and du[a] + ln + dv[b] == du[v]:
            shares[eid] = shares.get(eid, 0) + Fraction(cu[a] * cv[b], cu[v])
    return shares


def tunnel_columns(net, middlepoints, max_segments):
    """Per commodity, the usable tunnels as (middlepoints, edge -> load per
    unit of tunnel flow): ordered subsequences of at most ``max_segments``
    middlepoints avoiding the commodity's endpoints, every segment reachable."""
    cache = {}

    def seg(u, v):
        if (u, v) not in cache:
            cache[(u, v)] = segment_fractions(net, u, v)
        return cache[(u, v)]

    result = []
    for com in net.commodities:
        tunnels = []
        for j in range(max_segments + 1):
            for mids in itertools.combinations(middlepoints, j):
                if com.source in mids or com.sink in mids:
                    continue
                chain = (com.source,) + mids + (com.sink,)
                loads = {}
                for a, b in zip(chain, chain[1:]):
                    shares = seg(a, b)
                    if shares is None:
                        break
                    for eid, f in shares.items():
                        loads[eid] = loads.get(eid, 0) + f
                else:
                    tunnels.append((mids, loads))
        result.append(tunnels)
    return result
