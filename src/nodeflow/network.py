"""Flow networks, edge walks, and exhaustive path enumeration.

Terminology used throughout the package:

* a *path* from s to t is a walk in which every edge is distinct.  Nodes may
  repeat.  In an undirected network an edge may appear at most twice on a
  path, and only when traversed in opposite directions.
* a *simple path* additionally never repeats a node.

Path enumeration is exhaustive and deterministic (lexicographic in the edge
id sequence, forward traversal before reverse).  Every walk search, the
s-w-t searches of wflow and acyclic segment routing's included, runs on
one depth-first search (_walk_search), which stops at one cap on the arcs
it extends (WALK_STEP_CAP): a search that would pass it raises
CapExceeded, since the optimum over part of a family is not the optimum of
the instance.  A kept walk ends on a step of its own, so the cap bounds the
walks a family keeps as well.
Families can hold many walks, so walks are kept small: an EdgeWalk has
slots, and every enumerated walk shares one (edge id, direction) step tuple
per arc with every other walk over that arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import CapExceeded, MalformedNetwork, MissingDesignation, UnknownNode
from .rational import rat

DIRECTED = "directed"
UNDIRECTED = "undirected"

FWD = 1
REV = -1

WALK_STEP_CAP = 1_000_000  # arcs one walk search extends (None: no bound)


@dataclass(frozen=True)
class Edge:
    id: int
    tail: str
    head: str
    capacity: object  # exact rational
    length: int = 1


@dataclass(frozen=True)
class Commodity:
    """A demand pair.  max_demand None means unbounded (no demand constraint).

    min_demand is the amount a load-minimizing solver must route; it defaults
    to max_demand and must be finite there.  Demands are >= 0, and
    min_demand <= max_demand (FlowNetwork checks both).
    """

    source: str
    sink: str
    max_demand: object = None
    min_demand: object = None

    def effective_min(self):
        return self.min_demand if self.min_demand is not None else self.max_demand


@dataclass(frozen=True)
class FlowNetwork:
    orientation: str
    nodes: tuple
    edges: tuple
    commodities: tuple = ()

    def __post_init__(self):
        if self.orientation not in (DIRECTED, UNDIRECTED):
            raise MalformedNetwork(f"unknown orientation {self.orientation!r}")
        seen = set(self.nodes)
        if len(seen) != len(self.nodes):
            raise MalformedNetwork("duplicate node ids")
        for e in self.edges:
            if e.tail not in seen or e.head not in seen:
                raise UnknownNode(f"edge {e.id} touches unknown node")
            if e.tail == e.head:
                raise MalformedNetwork(f"self-loop at {e.tail!r}")
            if e.capacity < 0:
                raise MalformedNetwork(f"negative capacity on edge {e.id}")
            if e.length <= 0:
                raise MalformedNetwork(f"non-positive length on edge {e.id}")
        ids = [e.id for e in self.edges]
        if ids != list(range(len(ids))):
            raise MalformedNetwork("edge ids must be dense 0..m-1 in order")
        for c in self.commodities:
            if c.source not in seen or c.sink not in seen:
                raise UnknownNode(f"commodity ({c.source},{c.sink}) has unknown endpoint")
            if c.source == c.sink:
                raise MalformedNetwork("commodity source equals sink")
            # The floor is min_demand, else max_demand: 0 <= floor <= max.
            floor = c.effective_min()
            if floor is not None and (floor < 0 or c.max_demand is not None
                                      and floor > c.max_demand):
                raise MalformedNetwork(f"commodity ({c.source},{c.sink}) needs "
                                       "0 <= min_demand <= demand")

    # -- convenience constructors -------------------------------------------

    @staticmethod
    def build(orientation, nodes, edges, commodities=()):
        """edges: iterable of (tail, head, capacity) or (tail, head, capacity, length);
        commodities: iterable of (source, sink[, max_demand[, min_demand]]),
        demand None meaning unbounded."""
        built = []
        for i, spec in enumerate(edges):
            if len(spec) == 4:
                tail, head, cap, length = spec
            else:
                tail, head, cap = spec
                length = 1
            built.append(Edge(i, tail, head, rat(cap), int(length)))
        coms = []
        for spec in commodities:
            spec = tuple(spec)
            src, dst = spec[0], spec[1]
            dmax = rat(spec[2]) if len(spec) > 2 and spec[2] is not None else None
            dmin = rat(spec[3]) if len(spec) > 3 and spec[3] is not None else None
            coms.append(Commodity(src, dst, dmax, dmin))
        return FlowNetwork(orientation, tuple(nodes), tuple(built), tuple(coms))

    @property
    def directed(self) -> bool:
        return self.orientation == DIRECTED

    def require(self, *nodes):
        """Raise UnknownNode for the first of nodes not in the network."""
        for v in nodes:
            if v not in self.nodes:
                raise UnknownNode(f"node {v!r} not in network")

    def edge(self, eid: int) -> Edge:
        return self.edges[eid]

    def total_capacity(self):
        return sum((e.capacity for e in self.edges), rat(0))

    def adjacency(self):
        """node -> list of (edge, direction), in edge-id order (an edge has
        no self-loop, so it is listed at most once at a node)."""
        adj = {v: [] for v in self.nodes}
        for e in self.edges:
            adj[e.tail].append((e, FWD))
            if not self.directed:
                adj[e.head].append((e, REV))
        return adj

    def with_commodities(self, commodities):
        return FlowNetwork(self.orientation, self.nodes, self.edges, tuple(commodities))


def fresh_name(base, taken):
    """base, prefixed with underscores until it is not in taken; the name is
    added to taken."""
    name = base
    while name in taken:
        name = "_" + name
    taken.add(name)
    return name


@dataclass(frozen=True, slots=True)
class EdgeWalk:
    """A walk recorded as node sequence plus (edge id, direction) steps."""

    nodes: tuple
    steps: tuple  # of (edge_id, FWD|REV)

    def __len__(self):
        return len(self.steps)

    @property
    def source(self):
        return self.nodes[0]

    @property
    def sink(self):
        return self.nodes[-1]

    def is_simple(self) -> bool:
        return len(set(self.nodes)) == len(self.nodes)

    def edge_multiplicity(self):
        """edge id -> number of traversals (any direction)."""
        counts = {}
        for eid, _ in self.steps:
            counts[eid] = counts.get(eid, 0) + 1
        return counts


@dataclass(frozen=True)
class PathConstraint:
    """Which s-t paths a family holds.

    nodes: the designated set W; a path must visit at least one of them.
      Empty means no node is required.
    simple: the path must not repeat a node.
    single_use: an undirected edge may appear at most once, even in opposite
      directions (the no-repeat variant); no effect on directed networks.
    """

    nodes: tuple = ()
    simple: bool = False
    single_use: bool = False


UNCONSTRAINED = PathConstraint()


def through_any(ws, single_use=False, simple=False) -> PathConstraint:
    """Walks through any node of the designated set ws, held sorted and
    distinct, the one form every solver reads it in.  An empty set raises
    MissingDesignation."""
    nodes = tuple(sorted(set(ws)))
    if not nodes:
        raise MissingDesignation("empty designated set")
    return PathConstraint(nodes, simple, single_use)


@dataclass(frozen=True)
class PathFamily:
    source: str
    sink: str
    constraint: PathConstraint
    paths: tuple

    def __len__(self):
        return len(self.paths)


def _reachable(adj, removed, start):
    """The nodes reachable from start over the arcs of adj (in the form of
    FlowNetwork.adjacency()) whose edge id is not in removed."""
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for edge, d in adj[node]:
            if edge.id in removed:
                continue
            nxt = edge.head if d == FWD else edge.tail
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


# (edge id, direction) -> the one step tuple for that arc.  Each entry equals
# its key, so sharing the table between networks and calls changes no result,
# only which equal tuple a walk holds; it grows to two entries per edge id.
_STEPS = {}


def _walk_search(arcs, start, goal, used):
    """Depth-first generator over the walks start -> goal of an arc table.

    arcs maps each state to its (key, next state, step) arcs, in the order
    they are tried; an arc is blocked while its key is in used, which holds
    the keys of the walk's arcs on top of those it starts with.  At each
    arrival at goal it yields (arcs extended so far, states, steps) and goes
    on extending the walk; spent, it returns the arcs it extended.  A search
    that would extend more than WALK_STEP_CAP arcs in all, read when it
    starts (None: no bound), raises CapExceeded.
    """
    states = [start]
    steps = []
    keys = []  # of the walk's arcs
    stack = [iter(arcs[start])]  # per walk state, its arcs not yet tried
    cap = WALK_STEP_CAP
    first = left = -1 if cap is None else cap  # steps left; -1 never hits 0
    while stack:
        for key, nxt, step in stack[-1]:
            if key not in used:
                break
        else:  # every arc from here is spent: back up one step
            stack.pop()
            if keys:
                used.discard(keys.pop())
                states.pop()
                steps.pop()
            continue
        if not left:
            raise CapExceeded(f"walk search passed {cap} steps")
        left -= 1
        used.add(key)
        keys.append(key)
        states.append(nxt)
        steps.append(step)
        if nxt == goal:
            yield first - left, tuple(states), tuple(steps)
        stack.append(iter(arcs[nxt]))
    return first - left


def _iter_walks(net: FlowNetwork, source, sink, simple: bool, single_use: bool,
                adj=None, W=()) -> Iterator[EdgeWalk]:
    """Edge-distinct walks source -> sink that pass a node of W (any walk
    when W is empty), in depth-first search order.

    A walk is yielded when it reaches the sink and the search keeps
    extending it afterwards (paths may pass through the sink and come
    back).  adj, in the form of net.adjacency(), restricts the search to the
    edges it lists.  There is no search, and no walk, unless the source
    reaches the sink through some node of W (with W empty, reaches the sink
    at all): reachability relaxes every walk rule.  A search that extends
    walks by more than WALK_STEP_CAP arcs in all raises CapExceeded.

    Every walk's steps are the shared tuples of _STEPS, one per arc, so a
    family holds one step object per arc rather than one per step.
    """
    if adj is None:
        adj = net.adjacency()
    reach = _reachable(adj, (), source)
    if sink not in reach or W and not any(
            w in reach and sink in _reachable(adj, (), w) for w in W):
        return
    # node -> [(key, next node, step)]; a key on the walk blocks the arc.  A
    # simple walk enters each node once, so the key is the node entered.
    # Otherwise a directed edge has only its forward step, and an undirected
    # one may be walked once each way, so the key is the step unless
    # single_use blocks the whole edge.
    arcs = {}
    for node, pairs in adj.items():
        out = arcs[node] = []
        for edge, direction in pairs:
            step = (edge.id, direction)
            step = _STEPS.setdefault(step, step)
            nxt = edge.head if direction == FWD else edge.tail
            out.append((nxt if simple else edge.id if single_use else step,
                        nxt, step))
    W = frozenset(W)
    for _, nodes, steps in _walk_search(arcs, source, sink,
                                        {source} if simple else set()):
        if not W or not W.isdisjoint(nodes):
            yield EdgeWalk(nodes, steps)


def enumerate_st_paths(
    net: FlowNetwork,
    source,
    sink,
    constraint: PathConstraint = UNCONSTRAINED,
) -> PathFamily:
    """All paths source -> sink satisfying the constraint, in search order
    (_iter_walks), so the family is empty, with no search, unless the
    source reaches the sink through some designated node.

    A search that extends walks by more than WALK_STEP_CAP arcs in all
    raises CapExceeded, so it stops whether it keeps its walks or spins
    through many that miss the designated set.
    """
    net.require(source, sink, *constraint.nodes)
    if source == sink:
        raise MalformedNetwork("path enumeration needs distinct endpoints")
    found = _iter_walks(net, source, sink, constraint.simple,
                        constraint.single_use, W=constraint.nodes)
    return PathFamily(source, sink, constraint, tuple(found))


def enumerate_paths(net: FlowNetwork, commodity: int,
                    constraint=UNCONSTRAINED) -> PathFamily:
    com = net.commodities[commodity]
    return enumerate_st_paths(net, com.source, com.sink, constraint)


@dataclass(frozen=True)
class WalkValidation:
    valid: bool
    simple: bool
    reason: Optional[str] = None
    step: Optional[int] = None


def validate_walk(net: FlowNetwork, walk: EdgeWalk) -> WalkValidation:
    """Check that a walk is a path in this network (edge-distinct, opposite
    directions only for the second use of an undirected edge)."""
    if not walk.steps:
        return WalkValidation(False, False, "empty walk")
    if len(walk.nodes) != len(walk.steps) + 1:
        return WalkValidation(False, False, "node/step length mismatch")
    if walk.nodes[0] not in net.nodes:
        return WalkValidation(False, False, f"unknown node {walk.nodes[0]!r}", 0)
    seen = {}
    node = walk.nodes[0]
    for i, (eid, direction) in enumerate(walk.steps):
        if not (0 <= eid < len(net.edges)):
            return WalkValidation(False, False, f"unknown edge id {eid}", i)
        edge = net.edges[eid]
        if direction == REV and net.directed:
            return WalkValidation(False, False, "reverse traversal of a directed edge", i)
        if direction not in (FWD, REV):
            return WalkValidation(False, False, f"bad direction {direction}", i)
        a, b = (edge.tail, edge.head) if direction == FWD else (edge.head, edge.tail)
        if a != node:
            return WalkValidation(False, False, f"step {i} does not start at {node!r}", i)
        if walk.nodes[i + 1] != b:
            return WalkValidation(False, False, "node sequence disagrees with step", i)
        prior = seen.get(eid)
        if prior is not None:
            if net.directed or direction in prior or len(prior) >= 2:
                return WalkValidation(False, False, f"edge {eid} reused", i)
        seen.setdefault(eid, set()).add(direction)
        node = b
    return WalkValidation(True, walk.is_simple())


def concat_walks(a: EdgeWalk, b: EdgeWalk) -> EdgeWalk:
    if a.sink != b.source:
        raise ValueError("walks do not share an endpoint")
    return EdgeWalk(a.nodes + b.nodes[1:], a.steps + b.steps)


def reverse_walk(walk: EdgeWalk) -> EdgeWalk:
    steps = tuple((eid, -d) for eid, d in reversed(walk.steps))
    return EdgeWalk(tuple(reversed(walk.nodes)), steps)
