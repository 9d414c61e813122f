import random
from fractions import Fraction

import pytest

from nodeflow import FlowNetwork, MalformedNetwork, UnknownNode, max_flow_arc_lp
from nodeflow.maxflow import max_flow

from conftest import brute_max_flow

CAPACITIES = [0, 0, 1, 2, 3, Fraction(1, 2), Fraction(5, 3), Fraction(7, 4)]


def _random_net(rng, directed):
    """Up to 6 nodes, rational and zero capacities, commodity (n0, t).  One
    time in four t is a node no edge touches, so it is unreachable."""
    nodes = [f"n{i}" for i in range(rng.randint(2, 6))]
    if directed:
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
    else:
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    rng.shuffle(pairs)
    edges = [(a, b, rng.choice(CAPACITIES))
             for a, b in pairs[:rng.randint(1, min(9, len(pairs)))]]
    if rng.random() < 0.25:
        nodes.append("lonely")
        t = "lonely"
    else:
        t = rng.choice(nodes[1:])
    return FlowNetwork.build("directed" if directed else "undirected", nodes,
                             edges, [("n0", t, None)])


def _reach(net, start, removed):
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        for e in net.edges:
            if e.id in removed:
                continue
            for a, b in [(e.tail, e.head)] + ([] if net.directed else [(e.head, e.tail)]):
                if a == u and b not in seen:
                    seen.add(b)
                    stack.append(b)
    return seen


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_kernel_matches_ford_fulkerson_and_arc_lp(directed):
    rng = random.Random(83 if directed else 89)
    unreachable = 0
    for trial in range(120):
        net = _random_net(rng, directed)
        com = net.commodities[0]
        res = max_flow(net, com.source, com.sink)
        assert res.value == brute_max_flow(net), trial
        assert res.value == max_flow_arc_lp(net).objective, trial
        # The cut is a minimum cut: its capacity is the value and removing
        # it disconnects t from s.
        assert sum((net.edges[i].capacity for i in res.cut), Fraction(0)) == res.value
        assert com.sink not in _reach(net, com.source, set(res.cut)), trial
        unreachable += com.sink not in _reach(net, com.source, set())
    assert unreachable >= 10


def test_zero_capacity_edges_are_cut_and_carry_nothing():
    net = FlowNetwork.build("directed", ["s", "a", "t"],
                            [("s", "a", 0), ("a", "t", 5), ("s", "t", Fraction(1, 3))])
    res = max_flow(net, "s", "t")
    assert res.value == Fraction(1, 3)
    assert set(res.cut) == {0, 2}


def test_undirected_edge_serves_either_direction():
    net = FlowNetwork.build("undirected", ["s", "a", "b", "t"],
                            [("s", "a", 2), ("b", "a", 2), ("b", "t", 2), ("s", "b", 1)])
    assert max_flow(net, "s", "t").value == 2
    assert max_flow(net, "t", "s").value == 2


def test_bad_endpoints_rejected():
    net = FlowNetwork.build("directed", ["s", "t"], [("s", "t", 1)])
    with pytest.raises(MalformedNetwork):
        max_flow(net, "s", "s")
    with pytest.raises(UnknownNode):
        max_flow(net, "s", "x")


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_kernel_matches_networkx(directed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(97)
    for trial in range(80):
        net = _random_net(rng, directed)
        com = net.commodities[0]
        graph = nx.DiGraph() if directed else nx.Graph()
        graph.add_nodes_from(net.nodes)
        for e in net.edges:
            graph.add_edge(e.tail, e.head, capacity=e.capacity)
        expected = nx.maximum_flow_value(graph, com.source, com.sink,
                                         flow_func=nx.algorithms.flow.edmonds_karp)
        assert max_flow(net, com.source, com.sink).value == expected, trial
