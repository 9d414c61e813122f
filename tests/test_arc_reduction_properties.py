"""Property tests for the arc program on reducible undirected networks
(skipped without hypothesis).

The networks are a small core with series chains, pendant trees, parallel
edges and zero-capacity edges added, and commodity endpoints and designated
nodes drawn from every node, so terminals also sit inside chains and trees.
The transform is checked against the path LP over the through-W walks, and
the arc LP against the Dinic kernel; neither oracle builds an arc program.
Commodities that share an origin share one arc layer, so 2-3 commodities
that share the designated node, or the source, are checked the same way,
the arc LP against the path LP over full families on both orientations.
A layer has no arc into its own origin while the other layers keep it, so
2-3 commodities with different sources, one of them perhaps another's sink,
are checked against the path LP too.

Pendant trees on an undirected network multiply the walks an oracle
enumerates (each excursion into a tree and back may come in any order), so
a draw can need more search steps than network.WALK_STEP_CAP allows, which
guards callers against a runaway search, not the oracles here; every path
LP oracle runs with the cap lifted, so it decides every draw.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nodeflow import (FlowNetwork, max_flow_arc_lp, max_set_flow,  # noqa: E402
                      max_set_flow_paths, network, solve_te_mf)
from nodeflow.maxflow import max_flow  # noqa: E402


def path_lp_objective(net, W=None):
    """The path LP's optimum over the through-W families (every s-t walk
    with no W), with the walk search's step cap lifted."""
    saved, network.WALK_STEP_CAP = network.WALK_STEP_CAP, None
    try:
        sol = solve_te_mf(net) if W is None else max_set_flow_paths(net, W)
    finally:
        network.WALK_STEP_CAP = saved
    return sol.objective


CORE = ["c0", "c1", "c2"]
capacities = st.sampled_from([0, 1, 2, 3, Fraction(3, 2)])


@st.composite
def reducible_networks(draw):
    """(nodes, edges): three core nodes with at most one edge, up to two
    chains of one to three nodes between core nodes, and up to two pendant
    trees of one or two nodes hanging off any node; one edge may be drawn
    twice.  At most three independent cycles keep the through-W walks few
    enough to enumerate."""
    nodes = list(CORE)
    pairs = draw(st.lists(st.tuples(st.sampled_from(CORE), st.sampled_from(CORE))
                          .filter(lambda p: p[0] != p[1]), max_size=1))
    for c in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(CORE)), draw(st.sampled_from(CORE))
        chain = [f"x{c}_{i}" for i in range(draw(st.integers(1, 3)))]
        nodes += chain
        route = [a, *chain, b]
        pairs += list(zip(route, route[1:]))
    for p in range(draw(st.integers(0, 2))):
        root = draw(st.sampled_from(nodes))
        tree = [f"p{p}_{i}" for i in range(draw(st.integers(1, 2)))]
        for i, leaf in enumerate(tree):
            pairs.append((draw(st.sampled_from([root, *tree[:i]])), leaf))
        nodes += tree
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=1)) if pairs else []
    edges = [(a, b, draw(capacities)) for a, b in pairs]
    return nodes, edges


@st.composite
def set_flow_instances(draw):
    nodes, edges = draw(reducible_networks())
    ends = st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True)
    demand = st.none() | st.integers(0, 3)
    coms = [(*draw(ends), draw(demand)) for _ in range(draw(st.integers(1, 2)))]
    W = tuple(draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=2,
                            unique=True)))
    return FlowNetwork.build("undirected", nodes, edges, coms), W


@settings(max_examples=120, deadline=None)
@given(instance=set_flow_instances())
def test_transform_equals_path_lp_over_through_w_walks(instance):
    net, W = instance
    sol = max_set_flow(net, W)
    assert sol.status == "optimal"
    assert sol.objective == path_lp_objective(net, W)


@settings(max_examples=120, deadline=None)
@given(graph=reducible_networks(), data=st.data())
def test_single_commodity_arc_lp_equals_dinic(graph, data):
    nodes, edges = graph
    s, t = data.draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2,
                              unique=True))
    demand = data.draw(st.none() | st.integers(0, 3))
    net = FlowNetwork.build("undirected", nodes, edges, [(s, t, demand)])
    value = max_flow(net, s, t).value
    expected = value if demand is None else min(value, demand)
    assert max_flow_arc_lp(net).objective == expected


def _shared_commodities(draw, nodes, source=None):
    """Two or three commodities, each with a demand of None or 0-3.  Each
    either repeats an earlier commodity's endpoints or draws its own, from
    source when one is given."""
    coms = []
    for _ in range(draw(st.integers(2, 3))):
        if coms and draw(st.booleans()):
            s, t = draw(st.sampled_from(coms))[:2]
        else:
            s = draw(st.sampled_from(nodes)) if source is None else source
            t = draw(st.sampled_from([v for v in nodes if v != s]))
        coms.append((s, t, draw(st.none() | st.integers(0, 3))))
    return coms


@st.composite
def shared_designated_node(draw):
    """An undirected network, its commodities and one designated node, an
    endpoint of the first commodity on about half the draws."""
    nodes, edges = draw(reducible_networks())
    coms = _shared_commodities(draw, nodes)
    w = draw(st.sampled_from(coms[0][:2]) | st.sampled_from(nodes))
    return FlowNetwork.build("undirected", nodes, edges, coms), (w,)


def _oriented(draw, edges):
    """An orientation and the edges, directed ones drawn either way round."""
    orientation = draw(st.sampled_from(["directed", "undirected"]))
    if orientation == "directed":
        edges = [(b, a, c) if draw(st.booleans()) else (a, b, c)
                 for a, b, c in edges]
    return orientation, edges


@st.composite
def shared_source(draw):
    """A network of either orientation and commodities that all leave one
    source."""
    nodes, edges = draw(reducible_networks())
    orientation, edges = _oriented(draw, edges)
    source = draw(st.sampled_from(nodes))
    return FlowNetwork.build(orientation, nodes, edges,
                             _shared_commodities(draw, nodes, source))


@st.composite
def distinct_sources(draw):
    """A network of either orientation and two or three commodities with
    different sources, each with a demand of None or 0-3.  Sources come from
    every node, chains and trees included, and a sink is another
    commodity's source on about half the draws."""
    nodes, edges = draw(reducible_networks())
    orientation, edges = _oriented(draw, edges)
    k = draw(st.integers(2, 3))
    sources = draw(st.lists(st.sampled_from(nodes), min_size=k, max_size=k,
                            unique=True))
    coms = []
    for s in sources:
        others = [v for v in sources if v != s]
        t = draw(st.sampled_from(others)
                 | st.sampled_from([v for v in nodes if v != s]))
        coms.append((s, t, draw(st.none() | st.integers(0, 3))))
    return FlowNetwork.build(orientation, nodes, edges, coms)


@settings(max_examples=80, deadline=None)
@given(instance=shared_designated_node())
def test_transform_with_a_shared_designated_node_equals_path_lp(instance):
    net, W = instance
    sol = max_set_flow(net, W)
    assert sol.status == "optimal"
    assert sol.objective == path_lp_objective(net, W)


@settings(max_examples=80, deadline=None)
@given(net=shared_source())
def test_arc_lp_with_a_shared_source_equals_path_lp(net):
    arc = max_flow_arc_lp(net)
    assert arc.status == "optimal"
    assert arc.objective == path_lp_objective(net)


@settings(max_examples=80, deadline=None)
@given(net=distinct_sources())
def test_arc_lp_with_distinct_sources_equals_path_lp(net):
    arc = max_flow_arc_lp(net)
    assert arc.status == "optimal"
    assert arc.objective == path_lp_objective(net)
