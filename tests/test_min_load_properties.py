"""Property tests for the min-load programs te-lu and sr-lu against the LP
dual of the theta program (skipped without hypothesis)."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nodeflow import (INFEASIBLE, OPTIMAL, FlowNetwork, SrConfig,  # noqa: E402
                      default_families, solve_sr_lu, solve_te_lu)
from nodeflow.srte import _tunnel_column, build_tunnels  # noqa: E402

from conftest import min_load_dual  # noqa: E402

NODES = ["s", "a", "b", "t"]
capacities = st.sampled_from([0, 1, 2, 3, Fraction(3, 2)])
# No parallel edges: parallel undirected edges multiply the walks.
edge_lists = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), capacities)
    .filter(lambda e: e[0] != e[1]), min_size=3, max_size=6,
    unique_by=lambda e: frozenset(e[:2]))


@st.composite
def commodities(draw):
    source, sink = draw(st.lists(st.sampled_from(NODES), min_size=2,
                                 max_size=2, unique=True))
    demand = draw(st.integers(0, 4))
    floor = draw(st.none() | st.integers(min(1, demand), demand))
    return source, sink, demand, floor


networks = st.builds(
    lambda directed, edges, coms: FlowNetwork.build(
        "directed" if directed else "undirected", NODES, edges, coms),
    st.booleans(), edge_lists, st.lists(commodities(), min_size=1, max_size=2))


def _check(net, columns, status, theta, routed, loads):
    """The answer matches the dual; when optimal, every need is routed
    exactly and the worst utilization is theta."""
    expect = min_load_dual(net, columns)
    assert (status, theta) == expect
    if status == INFEASIBLE:
        return
    assert routed == [com.effective_min() for com in net.commodities]
    worst = Fraction(0)
    for e in net.edges:
        if e.capacity == 0:
            assert loads[e.id] == 0
        else:
            worst = max(worst, loads[e.id] / e.capacity)
    assert worst == theta


@settings(max_examples=150, deadline=None)
@given(net=networks)
def test_te_lu_is_the_dual_optimum(net):
    families = default_families(net)
    columns = [[walk.edge_multiplicity() for walk in fam.paths]
               for fam in families]
    sol = solve_te_lu(net, families)
    assert sol.status in (OPTIMAL, INFEASIBLE)
    routed = [sol.commodity_value(i) for i in range(len(net.commodities))]
    assert all(f > 0 for entries in sol.flows.values() for _, f in entries)
    _check(net, columns, sol.status, sol.theta, routed,
           sol.edge_loads(net) if sol.status == OPTIMAL else None)


@settings(max_examples=150, deadline=None)
@given(net=networks,
       mids=st.lists(st.sampled_from(NODES), unique=True, max_size=3),
       max_segments=st.integers(1, 2))
def test_sr_lu_is_the_dual_optimum(net, mids, max_segments):
    cfg = SrConfig(tuple(mids), max_segments)
    sol, tables = solve_sr_lu(net, cfg)
    columns = [[_tunnel_column(t, com, tables) for t in tunnels]
               for com, tunnels in zip(net.commodities, build_tunnels(net, cfg)[0])]
    assert sol.status in (OPTIMAL, INFEASIBLE)
    routed = [sol.commodity_value(i) for i in range(len(net.commodities))]
    assert all(f > 0 for entries in sol.flows.values() for _, f in entries)
    _check(net, columns, sol.status, sol.theta, routed,
           sol.edge_loads(net, tables) if sol.status == OPTIMAL else None)
