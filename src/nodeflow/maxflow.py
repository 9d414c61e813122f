"""Exact single-commodity maximum flow and minimum cut (Dinic 1970).

Capacities are exact rationals.  They are scaled by the least common
multiple of their denominators, the search runs on Python integers, and the
value is scaled back, so the answer is exact.  An undirected edge becomes two
opposite arcs of the full capacity, each the other's residual twin: flow sent
one way frees capacity the other way, and the two never carry flow at once.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedNetwork
from .network import FlowNetwork


@dataclass(frozen=True)
class MaxFlowResult:
    value: object   # exact rational
    cut: tuple      # ids of the edges leaving the nodes s reaches at the end


def max_flow(net: FlowNetwork, s, t) -> MaxFlowResult:
    """Maximum s-t flow, ignoring the network's commodities, with a minimum
    cut: removing the edges in ``cut`` leaves no s-t walk, and their
    capacities sum to the value.  Zero-capacity edges that cross are part of
    the cut, since they still carry walks."""
    net.require(s, t)
    if s == t:
        raise MalformedNetwork("max flow needs distinct endpoints")
    index = {v: i for i, v in enumerate(net.nodes)}
    scale = math.lcm(*(e.capacity.denominator for e in net.edges))
    # Arc 2k is edge k forward and arc 2k+1 its twin, so a ^ 1 is a's twin
    # and head[a ^ 1] is a's tail.
    head = []
    residual = []
    out = [[] for _ in net.nodes]
    for e in net.edges:
        c = e.capacity.numerator * (scale // e.capacity.denominator)
        u, v = index[e.tail], index[e.head]
        out[u].append(len(head))
        head.append(v)
        residual.append(c)
        out[v].append(len(head))
        head.append(u)
        residual.append(0 if net.directed else c)
    src, dst = index[s], index[t]
    total = 0
    while True:
        level = _levels(out, head, residual, src)
        if level[dst] < 0:
            break
        total += _blocking_flow(out, head, residual, level, src, dst)
    side = frozenset(v for v in net.nodes if level[index[v]] >= 0)
    if net.directed:
        cut = tuple(e.id for e in net.edges if e.tail in side and e.head not in side)
    else:
        cut = tuple(e.id for e in net.edges if (e.tail in side) != (e.head in side))
    return MaxFlowResult(Fraction(total, scale), cut)


def _levels(out, head, residual, src):
    """Breadth-first distance from src over arcs with residual capacity,
    -1 where unreachable."""
    level = [-1] * len(out)
    level[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for a in out[u]:
            v = head[a]
            if residual[a] and level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def _blocking_flow(out, head, residual, level, src, dst):
    """Saturate every shortest augmenting path: a depth-first search along
    arcs that go one level up, with a current-arc pointer per node so each
    arc is abandoned at most once."""
    current = [0] * len(out)
    path = []     # arcs from src to u
    u = src
    pushed = 0
    while True:
        if u == dst:
            delta = min(residual[a] for a in path)
            for a in path:
                residual[a] -= delta
                residual[a ^ 1] += delta
            pushed += delta
            # Resume from the tail of the first arc the push saturated.
            k = next(i for i, a in enumerate(path) if not residual[a])
            del path[k:]
            u = head[path[-1]] if path else src
            continue
        arcs = out[u]
        while current[u] < len(arcs):
            a = arcs[current[u]]
            if residual[a] and level[head[a]] == level[u] + 1:
                break
            current[u] += 1
        else:
            if u == src:
                return pushed
            # Dead end: retreat and skip the arc that led here.
            u = head[path.pop() ^ 1]
            current[u] += 1
            continue
        path.append(a)
        u = head[a]
