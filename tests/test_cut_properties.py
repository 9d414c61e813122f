"""Property tests for the minimum s-w-t cut (skipped without hypothesis).

On an undirected network min_swt_edge_cut answers by max flow and labels
the answer exact; the oracle tries every edge subset in order of capacity
and keeps the first that verify_cut accepts.  On a small directed network
it answers by branch and bound over walk searches; there the oracle is the
independent walk enumeration of conftest.oracle_walks, run on the network
less each edge subset.
"""

import itertools
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from nodeflow import FlowNetwork, min_swt_edge_cut, verify_cut  # noqa: E402

from conftest import oracle_walks  # noqa: E402

NODES = ["a", "b", "c", "d", "e", "f", "g"]
capacities = st.sampled_from([0, Fraction(1, 2), 1, 2, 3])


def cheapest_cut_value(net, s, w, t):
    """The least capacity of an edge subset that leaves no s-w-t walk."""
    ids = range(len(net.edges))
    subsets = [c for k in range(len(net.edges) + 1)
               for c in itertools.combinations(ids, k)]
    value = {c: sum((net.edges[i].capacity for i in c), Fraction(0)) for c in subsets}
    return next(value[c] for c in sorted(subsets, key=value.__getitem__)
                if verify_cut(net, s, w, t, c))


@st.composite
def undirected_cases(draw):
    """(net, s, w, t): 3-7 nodes, up to 9 edges (parallel ones allowed),
    capacities 0, 1/2 and 1-3; s, w and t may coincide."""
    nodes = NODES[:draw(st.integers(3, 7))]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    ends = draw(st.lists(st.sampled_from(pairs), max_size=9))
    net = FlowNetwork.build("undirected", nodes,
                            [(a, b, draw(capacities)) for a, b in ends])
    s, w, t = (draw(st.sampled_from(nodes)) for _ in range(3))
    return net, s, w, t


# Seven parallel a-b edges: a walk search for c-a-d spins through their
# trails for minutes, so verify_cut must answer undirected cuts by reachability.
PARALLEL = FlowNetwork.build("undirected", ["a", "b", "c", "d"],
                             [("a", "b", 0)] * 2 + [("c", "d", 0)]
                             + [("a", "b", 0)] * 5 + [("b", "c", 0)])


@settings(max_examples=200, deadline=None)
@given(case=undirected_cases())
@example(case=(PARALLEL, "c", "a", "d"))
def test_undirected_cut_is_the_cheapest_edge_subset(case):
    net, s, w, t = case
    cut = min_swt_edge_cut(net, s, w, t)
    assert cut.exact
    assert cut.value == cheapest_cut_value(net, s, w, t)
    assert cut.value == sum((net.edges[i].capacity for i in cut.edges), Fraction(0))
    assert verify_cut(net, s, w, t, cut.edges)


@st.composite
def directed_cases(draw):
    """(net, s, w, t): 3-5 nodes, up to 8 edges (parallel ones allowed),
    capacities 0, 1/2 and 1-3; s, w and t may coincide."""
    nodes = NODES[:draw(st.integers(3, 5))]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    ends = draw(st.lists(st.sampled_from(pairs), max_size=8))
    net = FlowNetwork.build("directed", nodes,
                            [(a, b, draw(capacities)) for a, b in ends])
    s, w, t = (draw(st.sampled_from(nodes)) for _ in range(3))
    return net, s, w, t


@settings(max_examples=150, deadline=None)
@given(case=directed_cases())
def test_directed_cut_is_the_cheapest_edge_subset(case):
    net, s, w, t = case
    value = {}
    for k in range(len(net.edges) + 1):
        for cut in itertools.combinations(range(len(net.edges)), k):
            rest = FlowNetwork.build("directed", net.nodes,
                                     [(e.tail, e.head, e.capacity)
                                      for e in net.edges if e.id not in cut])
            cuts = not oracle_walks(rest, s, t, through={w})
            assert verify_cut(net, s, w, t, cut) == cuts, cut
            if cuts:
                value[cut] = sum((net.edges[i].capacity for i in cut), Fraction(0))
    cut = min_swt_edge_cut(net, s, w, t)
    assert cut.exact
    assert cut.value == min(value.values())
    assert value[cut.edges] == cut.value
