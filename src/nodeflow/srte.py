"""Segment routing with ordered middlepoints.

A tunnel for a commodity is an order-respecting subsequence of the configured
middlepoint list (at most M of them); traffic entering a tunnel is forwarded
segment by segment along equal-cost shortest paths with ECMP splitting.  The
fraction of a segment's traffic crossing a given edge is computed exactly by
shortest-path counting, and tunnel flows are optimized by the classic
formulations' own program, te.solve_columns, with one column per tunnel.
Its answer is the FlowSolution of (Tunnel, flow) pairs; SrSolution only
adds the usable tunnels.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from .errors import MalformedNetwork
from .network import FWD, REV, EdgeWalk, FlowNetwork, _walk_search
from .rational import ONE, ZERO
from .te import FlowSolution, solve_columns


def shortest_path_data(net: FlowNetwork, source):
    """Single-source shortest paths by edge length.

    Returns (dist, count, preds): exact distances from source, number of
    distinct shortest paths (exact big integers), and for each node the list
    of (predecessor, edge id) pairs lying on shortest paths.
    """
    net.require(source)
    adj = {v: [] for v in net.nodes}
    for e in net.edges:
        adj[e.tail].append((e.head, e.id, e.length))
        if not net.directed:
            adj[e.head].append((e.tail, e.id, e.length))
    dist = {source: 0}
    count = {source: 1}
    preds = {v: [] for v in net.nodes}
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue  # stale: v was settled nearer
        for u, eid, ln in adj[v]:
            nd = d + ln
            if u not in dist or nd < dist[u]:
                dist[u] = nd
                count[u] = count[v]
                preds[u] = [(v, eid)]
                heapq.heappush(heap, (nd, u))
            elif nd == dist[u]:  # lengths > 0: u is not settled yet
                count[u] += count[v]
                preds[u].append((v, eid))
    return dist, count, preds


@dataclass
class SegmentFractions:
    """ECMP splitting of one segment (u -> v) over shortest paths."""

    u: str
    v: str
    dist: int
    n_paths: int
    fractions: dict  # edge id -> exact fraction of the segment's traffic

    def reachable(self):
        return self.n_paths > 0


def ecmp_fractions(net: FlowNetwork, u, v) -> SegmentFractions:
    """Exact per-edge load fractions for segment (u, v): an edge e = (a, b)
    on a shortest u-v path carries sigma(u,a) * sigma(b,v) / sigma(u,v) of
    the segment's traffic, where sigma counts shortest paths."""
    net.require(v)
    return _split(u, v, shortest_path_data(net, u))


def _split(u, v, search):
    """Segment (u, v) from u's search by dependency accumulation (Brandes
    2001): v holds one unit; in decreasing distance each node b passes
    share(b) * sigma(u,a) / sigma(u,b) to each predecessor a.  As lengths are
    > 0, a shortest b-v path on a shortest u-v path is in u's DAG."""
    dist, count, preds = search
    if v not in dist:
        return SegmentFractions(u, v, -1, 0, {})
    share = {v: ONE}
    fractions = {}
    for b in sorted(dist, key=dist.__getitem__, reverse=True):
        if b in share:
            for a, eid in preds[b]:
                part = share[b] * count[a] / count[b]
                fractions[eid] = part
                share[a] = share[a] + part if a in share else part
    return SegmentFractions(u, v, dist[v], count[v], dict(sorted(fractions.items())))


@dataclass(frozen=True)
class Tunnel:
    commodity: int
    middlepoints: tuple

    def segments(self, com):
        chain = (com.source,) + self.middlepoints + (com.sink,)
        return tuple(zip(chain, chain[1:]))


@dataclass
class SrConfig:
    middlepoints: tuple   # the global ordered list
    max_segments: int     # M: at most this many middlepoints per tunnel


def build_tunnels(net: FlowNetwork, cfg: SrConfig):
    """Usable tunnels per commodity, and every usable segment's
    SegmentFractions keyed by (u, v).

    Order-respecting subsequences of the middlepoint list with at most
    max_segments entries; subsequences touching a commodity's endpoints are
    skipped, as are tunnels with an unreachable segment.  One shortest-path
    search per segment source serves both the reachability test and the
    tables.  A middlepoint list with a repeat is refused, since two of its
    subsequences could be one tunnel, and so is a negative max_segments,
    which would leave not even the direct tunnel.
    """
    net.require(*cfg.middlepoints)
    if len(set(cfg.middlepoints)) != len(cfg.middlepoints):
        raise MalformedNetwork("middlepoints must be distinct")
    if cfg.max_segments < 0:
        raise MalformedNetwork(f"max_segments {cfg.max_segments} is negative")
    searches = {}

    def reach(u, v):
        if u not in searches:
            searches[u] = shortest_path_data(net, u)
        return v in searches[u][0]

    result = []
    tables = {}
    subseqs = [c for j in range(0, cfg.max_segments + 1)
               for c in itertools.combinations(cfg.middlepoints, j)]
    for i, com in enumerate(net.commodities):
        tunnels = []
        for mids in subseqs:
            if com.source in mids or com.sink in mids:
                continue
            t = Tunnel(i, mids)
            segs = t.segments(com)
            if all(reach(u, v) for u, v in segs):
                tunnels.append(t)
                for u, v in segs:
                    if (u, v) not in tables:
                        tables[u, v] = _split(u, v, searches[u])
        result.append(tunnels)
    return result, tables


@dataclass(slots=True)
class SrSolution(FlowSolution):
    """A tunnel program's FlowSolution: flows holds (Tunnel, flow) pairs,
    and tunnels_per_commodity every usable tunnel the program had."""

    tunnels_per_commodity: list = field(default_factory=list)

    def edge_loads(self, net, tables):
        loads = {e.id: ZERO for e in net.edges}
        for i, entries in self.flows.items():
            for tunnel, f in entries:
                for eid, load in _tunnel_column(tunnel, net.commodities[i], tables).items():
                    loads[eid] += f * load
        return loads


def _tunnel_column(tunnel, com, tables):
    """edge id -> load per unit of the tunnel's flow, summed over its
    segments."""
    column = {}
    for seg in tunnel.segments(com):
        for eid, frac in tables[seg].fractions.items():
            column[eid] = column[eid] + frac if eid in column else frac
    return column


def _sr_lp(net, cfg, minimize_load):
    tunnels_per_com, tables = build_tunnels(net, cfg)
    sol = solve_columns(net, [[(t, _tunnel_column(t, com, tables)) for t in tunnels]
                              for com, tunnels in zip(net.commodities, tunnels_per_com)],
                        minimize_load)
    return SrSolution(sol.status, sol.objective, sol.flows, sol.theta, sol.pivots,
                      tunnels_per_com), tables


def solve_sr_lu(net: FlowNetwork, cfg: SrConfig):
    """Minimize worst link utilization over tunnel flows.  Returns
    (SrSolution, segment fraction tables)."""
    return _sr_lp(net, cfg, minimize_load=True)


def solve_sr_mf(net: FlowNetwork, cfg: SrConfig):
    """Maximize total tunnel flow within capacities and demand ceilings."""
    return _sr_lp(net, cfg, minimize_load=False)


# -- cycles and acyclic feasibility -------------------------------------------

def detect_cycles(net: FlowNetwork, tunnel: Tunnel):
    """Edges carrying traffic of two or more segments of the same tunnel.

    Such sharing means some packet-level forwarding loop: the tunnel revisits
    an edge while executing different segments.  Returns a list of
    (edge id, [segment indices]) entries.
    """
    com = net.commodities[tunnel.commodity]
    users = {}
    for idx, seg in enumerate(tunnel.segments(com)):
        for eid in ecmp_fractions(net, *seg).fractions:
            users.setdefault(eid, []).append(idx)
    return [(eid, idxs) for eid, idxs in sorted(users.items()) if len(idxs) >= 2]


@dataclass
class FeasibilityResult:
    feasible: bool
    witness: object = None  # EdgeWalk when feasible
    steps_tried: int = 0


def acyclic_feasible(net: FlowNetwork, source, sink, middlepoints,
                     mode="path") -> FeasibilityResult:
    """Is there a choice of one shortest path per segment whose concatenation
    is a path (mode="path") or a simple path (mode="simple_path")?

    One walk search (network._walk_search) over the states (segment, node)
    and the segments' shortest-path arcs, each node's arcs in step order, so
    the witness is the first in lexicographic step order.  A prefix is
    dropped at its first reused step (an undirected edge may be crossed
    once each way) or, in simple_path mode, its first repeated node; a
    simple path's segment has no arcs into a later chain node, which it
    would have to enter again.  The problem is NP-hard: a search past
    network.WALK_STEP_CAP steps raises CapExceeded.
    """
    if mode not in ("path", "simple_path"):
        raise ValueError(f"bad mode {mode!r}")
    chain = (source,) + tuple(middlepoints) + (sink,)
    net.require(*chain)
    if len(set(chain)) != len(chain):
        raise MalformedNetwork("source, middlepoints and sink must be distinct")
    simple = mode == "simple_path"
    goal = (len(chain) - 1, sink)
    arcs = {goal: ()}  # (segment, node) -> [(key, next state, step)]
    for k, (u, v) in enumerate(zip(chain, chain[1:])):
        dist, _count, preds = shortest_path_data(net, u)
        if v not in dist:
            return FeasibilityResult(False)
        out, todo = {}, [v]  # backward from v: the arcs that lead on to v
        while todo:
            b = todo.pop()
            for a, eid in preds[b]:
                if a not in out:
                    todo.append(a)
                step = (eid, FWD if net.edges[eid].tail == a else REV)
                out.setdefault(a, []).append((step, b))
        # A simple path's segment k has no arcs into the later chain nodes.
        ahead = chain[k + 2:] if simple else ()
        for a, pairs in out.items():
            arcs[k, a] = [(b if simple else step, (k + 1 if b == v else k, b), step)
                          for step, b in sorted(pairs) if b not in ahead]
    search = _walk_search(arcs, (0, source), goal, {source} if simple else set())
    try:
        tried, states, steps = next(search)
    except StopIteration as spent:
        return FeasibilityResult(False, None, spent.value)
    return FeasibilityResult(True, EdgeWalk(tuple(v for _, v in states), steps), tried)
