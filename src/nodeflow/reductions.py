"""Gadget constructions connecting node-constrained flow to classic problems.

Each builder returns a GadgetInstance: an Instance (the constructed
network, with its designated w or its relays as middlepoints) plus a mapping
from source-problem objects to gadget nodes.  A gadget's source and sink are
its first commodity's endpoints.  The matching brute-force equivalence
checkers are test oracles, in tests/reduction_checks.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedNetwork
from .fileio import Instance
from .network import FlowNetwork, fresh_name


@dataclass(kw_only=True)
class GadgetInstance(Instance):
    """A gadget, with its mapping from source-problem objects to its nodes."""

    mapping: dict = field(default_factory=dict)


def two_disjoint_paths_gadget(net: FlowNetwork, u1, u2, v1, v2) -> GadgetInstance:
    """Reduce the two-vertex-disjoint-paths question (u1->u2 and v1->v2) to
    the existence of a simple s-w-t path: add a fresh node w with edges
    (u2, w) and (w, v1); a simple u1-w-v2 path decomposes into the two
    disjoint paths and vice versa."""
    if not net.directed:
        raise MalformedNetwork("construction is for directed networks")
    net.require(u1, u2, v1, v2)
    if len({u1, u2, v1, v2}) != 4:
        raise MalformedNetwork("terminals must be distinct")
    taken = set(net.nodes)
    w = fresh_name("w", taken)
    edges = [(e.tail, e.head, e.capacity) for e in net.edges]
    edges += [(u2, w, 1), (w, v1, 1)]
    g = FlowNetwork.build("directed", list(net.nodes) + [w], edges,
                          [(u1, v2, 1)])
    return GadgetInstance(g, designated={"w": w},
                          mapping={"u1": u1, "u2": u2, "v1": v1, "v2": v2,
                                   "w": w})


def node_split_gadget(net: FlowNetwork) -> GadgetInstance:
    """Split every node v into v_in -> v_out so that node-disjointness in the
    original graph becomes edge-disjointness in the split graph.  The split
    graph has 2|V| nodes and |E| + |V| edges."""
    if not net.directed:
        raise MalformedNetwork("construction is for directed networks")
    mapping = {v: (f"{v}.in", f"{v}.out") for v in net.nodes}
    nodes = [x for pair in mapping.values() for x in pair]
    edges = [(mapping[v][0], mapping[v][1], 1) for v in sorted(net.nodes)]
    edges += [(mapping[e.tail][1], mapping[e.head][0], 1) for e in net.edges]
    g = FlowNetwork.build("directed", nodes, edges)
    return GadgetInstance(g, mapping=mapping)


def unit_path_gadget(net: FlowNetwork, s, t, w) -> GadgetInstance:
    """Unit-capacity copy with the single commodity (s, t, demand 1): a
    (not necessarily simple) s-w-t path exists iff the node-constrained max
    flow reaches 1."""
    if not net.directed:
        raise MalformedNetwork("construction is for directed networks")
    net.require(s, t, w)
    edges = [(e.tail, e.head, 1) for e in net.edges]
    g = FlowNetwork.build("directed", net.nodes, edges, [(s, t, 1)])
    return GadgetInstance(g, designated={"w": w})


def max_coverage_gadget(items, sets) -> GadgetInstance:
    """Maximum coverage as an N-group flow instance.

    Per item j: nodes z_j -> u_j (capacity 1).  Per set k: node v_k, with a
    unit edge (u_j, v_k) and a commodity (z_j, v_k) whenever item j belongs
    to set k.  Each commodity has exactly one path, of value at most 1, and
    it crosses v_k; for every n the best group of at most n of the v_k
    nodes therefore routes exactly as much flow as the best n sets cover
    items.
    """
    items = list(items)
    sets = [frozenset(sk) for sk in sets]
    for sk in sets:
        for it in sk:
            if it not in items:
                raise MalformedNetwork(f"set element {it!r} is not an item")
    z = {j: f"z{j}" for j in range(len(items))}
    u = {j: f"u{j}" for j in range(len(items))}
    v = {k: f"v{k}" for k in range(len(sets))}
    nodes = list(z.values()) + list(u.values()) + list(v.values())
    edges = [(z[j], u[j], 1) for j in range(len(items))]
    commodities = []
    for j, item in enumerate(items):
        for k, sk in enumerate(sets):
            if item in sk:
                edges.append((u[j], v[k], 1))
                commodities.append((z[j], v[k], None))
    g = FlowNetwork.build("directed", nodes, edges, commodities)
    return GadgetInstance(g, mapping={
        "items": {items[j]: u[j] for j in range(len(items))},
        "sets": {k: v[k] for k in range(len(sets))}})


def disjoint_shortest_paths_gadget(net: FlowNetwork, pairs) -> GadgetInstance:
    """K node-disjoint shortest paths as acyclic segment-routing feasibility.

    For consecutive pairs (u_i, v_i), (u_{i+1}, v_{i+1}) a fresh relay node
    M_i is inserted with unit edges (v_i, M_i) and (M_i, u_{i+1}); a simple
    path from u_1 to v_K through the ordered middlepoints M_1..M_{K-1},
    assembled from per-segment shortest paths, exists iff the K pairs admit
    pairwise node-disjoint shortest paths.
    """
    if not net.directed:
        raise MalformedNetwork("construction is for directed networks")
    pairs = [tuple(p) for p in pairs]
    if not pairs:
        raise MalformedNetwork("need at least one pair")
    seen = set()
    for u, v in pairs:
        net.require(u, v)
        for x in (u, v):
            if x in seen:
                raise MalformedNetwork("terminals must be distinct")
            seen.add(x)
    taken = set(net.nodes)
    relays = [fresh_name(f"M{i}", taken) for i in range(len(pairs) - 1)]
    nodes = list(net.nodes) + relays
    edges = [(e.tail, e.head, 1, e.length) for e in net.edges]
    # relay edges heavier than any original path, so a shortest route between
    # consecutive relays can never shortcut through a third relay
    heavy = sum(e.length for e in net.edges) + 1
    for i, m in enumerate(relays):
        edges.append((pairs[i][1], m, 1, heavy))
        edges.append((m, pairs[i + 1][0], 1, heavy))
    g = FlowNetwork.build("directed", nodes, edges,
                          [(pairs[0][0], pairs[-1][1], 1)])
    return GadgetInstance(g, middlepoints=tuple(relays) or None,
                          mapping={"pairs": pairs, "relays": relays})
