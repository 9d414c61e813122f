"""Property tests for the max-flow kernel (skipped without hypothesis)."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nodeflow import FlowNetwork  # noqa: E402
from nodeflow.maxflow import max_flow  # noqa: E402

from conftest import brute_max_flow  # noqa: E402

NODES = ["s", "a", "b", "c", "t"]
capacities = st.fractions(min_value=0, max_value=5, max_denominator=4)
edge_lists = st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), capacities)
                      .filter(lambda e: e[0] != e[1]), max_size=10)


@settings(max_examples=150, deadline=None)
@given(edges=edge_lists, directed=st.booleans())
def test_value_is_ford_fulkerson_and_the_cut_capacity(edges, directed):
    net = FlowNetwork.build("directed" if directed else "undirected", NODES, edges,
                            [("s", "t", None)])
    res = max_flow(net, "s", "t")
    assert res.value == brute_max_flow(net)
    assert sum((net.edges[i].capacity for i in res.cut), Fraction(0)) == res.value
    if not directed:
        assert max_flow(net, "t", "s").value == res.value
