import random
import time
from fractions import Fraction

import pytest

from nodeflow import (CapExceeded, FlowNetwork, get_builtin, max_flow_arc_lp,
                      network, rat, solve_te_lu, solve_te_mf)

from conftest import (brute_max_flow, dmf_satisfiable, random_directed,
                      random_undirected)


def _frac(q):
    return Fraction(q.numerator, q.denominator)


def test_path_lp_matches_arc_lp_and_ford_fulkerson():
    rng = random.Random(23)
    for trial in range(40):
        net = random_directed(rng, n_commodities=1)
        path_val = solve_te_mf(net).total_value()
        arc_val = max_flow_arc_lp(net).objective
        assert path_val == arc_val, trial
        assert _frac(rat(path_val)) == brute_max_flow(net), trial


def test_undirected_max_flow_matches_ford_fulkerson():
    rng = random.Random(29)
    for trial in range(25):
        net = random_undirected(rng, n_nodes=rng.randint(3, 5),
                                n_edges=rng.randint(3, 6), n_commodities=1)
        path_val = solve_te_mf(net).total_value()
        assert _frac(rat(path_val)) == brute_max_flow(net), trial


def test_multicommodity_upper_bounded_by_sum_of_singles():
    rng = random.Random(31)
    for _ in range(15):
        net = random_directed(rng, n_commodities=2)
        both = solve_te_mf(net).total_value()
        singles = sum(
            solve_te_mf(net.with_commodities([c])).total_value()
            for c in net.commodities)
        assert both <= singles


def test_demand_ceilings_respected():
    net = FlowNetwork.build("directed", ["s", "t"], [("s", "t", 10)],
                            [("s", "t", 3)])
    assert solve_te_mf(net).total_value() == 3


def test_te_lu_fig8():
    sol = solve_te_lu(get_builtin("fig8").network)
    assert sol.theta == rat(3, 2)


def test_te_lu_within_capacity_scaling():
    # Scaling every capacity by theta* must make full demand routable.
    rng = random.Random(37)
    for _ in range(15):
        net = random_directed(rng, n_commodities=2, finite_demands=True)
        sol = solve_te_lu(net)
        if sol.status != "optimal":
            continue
        loads = sol.edge_loads(net)
        for e in net.edges:
            assert loads[e.id] <= sol.theta * e.capacity
        for i, com in enumerate(net.commodities):
            assert sol.commodity_value(i) == com.max_demand


def test_dmf_iff_theta_le_one():
    rng = random.Random(41)
    for trial in range(60):
        net = random_directed(rng, n_commodities=rng.randint(1, 2),
                              finite_demands=True)
        theta = solve_te_lu(net).theta
        assert dmf_satisfiable(net) == (theta is not None and theta <= 1), trial


def test_truncated_family_rejected(monkeypatch):
    # remarks' s->t search needs 13 steps; at 12 no part-family is solved.
    net = get_builtin("remarks").network
    monkeypatch.setattr(network, "WALK_STEP_CAP", 12)
    with pytest.raises(CapExceeded, match="passed 12 steps"):
        solve_te_mf(net)


def test_unreachable_sink_is_found_without_a_search():
    # c1 touches no edge, so no walk reaches it; a search from c0 through
    # the walks of its loops and spokes would keep none of them.
    nodes = ["c0", "c1", "c2", "x0_0", "x1_0", "x1_1", "x1_2",
             "p0_0", "p0_1", "p1_0", "p1_1"]
    edges = ([("c0", "x0_0", 1), ("c0", "x0_0", 1), ("c0", "x1_0", 1),
              ("x1_0", "x1_1", 1), ("x1_1", "x1_2", 1), ("x1_2", "c0", 1)]
             + [("c0", p, 1) for p in nodes[7:]])
    net = FlowNetwork.build("undirected", nodes, edges,
                            [("c0", "c1"), ("c0", "c1")])
    start = time.perf_counter()
    assert solve_te_mf(net).objective == 0
    assert time.perf_counter() - start < 1


def test_flow_solution_edge_loads_within_capacity():
    rng = random.Random(43)
    for _ in range(15):
        net = random_directed(rng, n_commodities=2)
        sol = solve_te_mf(net)
        loads = sol.edge_loads(net)
        for e in net.edges:
            assert loads[e.id] <= e.capacity
