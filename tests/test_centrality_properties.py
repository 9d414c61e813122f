"""Property tests for the inclusion-exclusion identity (skipped without
hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nodeflow import FlowNetwork, check_pair_sum_identity  # noqa: E402

NODES = ["n0", "n1", "n2", "n3", "n4"]
capacities = st.fractions(min_value=0, max_value=4, max_denominator=2)
edge_lists = st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), capacities)
                      .filter(lambda e: e[0] != e[1]), max_size=8)


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists, order=st.permutations(NODES), w=st.sampled_from(NODES))
def test_eq25_zero_residual_undirected(edges, order, w):
    # w may be a commodity endpoint as well as an inner node.
    s, t = order[:2]
    net = FlowNetwork.build("undirected", NODES, edges, [(s, t, None)])
    report = check_pair_sum_identity(net, w, s, t)
    assert report.residual == 0 and report.consistent
