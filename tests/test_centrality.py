import itertools
import random

import pytest

from nodeflow import (CentralityReport, Commodity, FlowNetwork,
                      check_pair_sum_identity, commodity_centrality,
                      enumerate_st_paths, flow_centrality, get_builtin,
                      hat_constructions, max_flow_arc_lp, max_set_flow,
                      max_set_flow_paths, n_group_max_flow, pair_max_flow,
                      pair_w_flow, probe_margins, rat, solve_te_mf,
                      submodularity_probe, through_any)

from conftest import pick_inner_node, random_directed, random_undirected


def test_flow_centrality_matches_definition():
    net = get_builtin("remarks").network
    report = flow_centrality(net, "w")
    num = rat(0)
    den = rat(0)
    for s, t in itertools.permutations([v for v in net.nodes if v != "w"], 2):
        free = pair_max_flow(net, s, t)
        if free == 0:
            continue
        num += pair_w_flow(net, "w", s, t)
        den += free
    assert (report.numerator, report.denominator) == (num, den)
    assert report.ratio == num / den


def test_flow_centrality_undirected_matches_per_pair_lps():
    # On undirected networks each unordered pair is solved once; every
    # ordered pair must still equal its own arc LP and its own path LP over
    # the through-w walks, which shares no code with the transform.
    rng = random.Random(103)
    nets = [(get_builtin("augmenting-undirected").network, "w")]
    for _ in range(4):
        net = random_undirected(rng, n_nodes=5, n_edges=rng.randint(4, 7))
        nets.append((net, rng.choice(net.nodes)))
    for net, w in nets:
        report = flow_centrality(net, w)
        others = [v for v in net.nodes if v != w]
        assert [(s, t) for s, t, _, _ in report.pairs] == \
            list(itertools.permutations(others, 2))
        for s, t, forced, free in report.pairs:
            single = net.with_commodities([Commodity(s, t, None)])
            assert free == max_flow_arc_lp(single).objective, (s, t)
            expected = max_set_flow_paths(single, (w,)).objective if free else 0
            assert forced == expected, (s, t)
        assert report.numerator == sum((p[2] for p in report.pairs), rat(0))
        assert report.denominator == sum((p[3] for p in report.pairs), rat(0))


def test_centrality_report_has_slots():
    report = flow_centrality(get_builtin("remarks").network, "w")
    assert not hasattr(report, "__dict__")
    assert report == CentralityReport(report.node, report.numerator,
                                      report.denominator, report.ratio,
                                      list(report.pairs))
    assert CentralityReport("w", 0, 0, None).pairs == []


def test_commodity_centrality_fig8():
    net = get_builtin("fig8").network
    assert commodity_centrality(net, "s3").ratio == rat(1, 3)


def test_group_flow_fig8_pins():
    net = get_builtin("fig8").network
    assert max_set_flow(net, ("s1",)).objective == 2
    assert max_set_flow(net, ("s1", "s2")).objective == 2
    assert max_set_flow(net, ("s1", "s2", "s3")).objective == 3
    assert n_group_max_flow(net, 1, "brute").value == 2
    assert n_group_max_flow(net, 3, "brute").value == 3


def test_group_flow_matches_path_lp():
    rng = random.Random(89)
    checked = 0
    while checked < 25:
        net = random_directed(rng, n_commodities=rng.randint(1, 2))
        nodes = sorted(net.nodes)
        group = tuple(rng.sample(nodes, rng.randint(1, 2)))
        value = max_set_flow(net, group).objective
        fams = [enumerate_st_paths(net, c.source, c.sink, through_any(group))
                for c in net.commodities]
        assert value == solve_te_mf(net, fams).objective, checked
        checked += 1


def test_greedy_never_beats_brute():
    rng = random.Random(97)
    for _ in range(10):
        net = random_directed(rng, n_commodities=2)
        for n in (1, 2):
            brute = n_group_max_flow(net, n, "brute").value
            greedy = n_group_max_flow(net, n, "greedy").value
            assert greedy <= brute


def test_probe_margin_pair_both_orientations():
    for name in ("fig8", "fig8-undirected"):
        net = get_builtin(name).network
        assert probe_margins(net, ("s1",), ("s1", "s2"), "s3") == (0, 1), name


def test_group_flow_is_not_submodular_under_either_undirected_rule():
    # The undirected path v0-v1 (2), v1-v2 (2), v2-v3 (1), with commodities
    # v2->v3 and v3->v0 (demand 1 each) and v2->v1 (unbounded): v3 gains
    # 1/2 at {v0} and 1 at {v0,v1} when a walk may reuse an edge in opposite
    # directions, and 0 and 1 under no-repeat.
    net = FlowNetwork.build("undirected", ["v0", "v1", "v2", "v3"],
                            [("v0", "v1", 2), ("v1", "v2", 2), ("v2", "v3", 1)],
                            [("v2", "v3", 1), ("v3", "v0", 1), ("v2", "v1", None)])
    groups = [("v0",), ("v0", "v3"), ("v0", "v1"), ("v0", "v1", "v3")]
    default = [rat(3, 2), 2, 2, 3]
    assert [max_set_flow(net, W).objective for W in groups] == default
    assert [max_set_flow_paths(net, W).objective for W in groups] == default
    assert [max_set_flow_paths(net, W, single_use=True).objective
            for W in groups] == [1, 1, 2, 3]
    assert probe_margins(net, ["v0"], ["v0", "v1"], "v3") == (0, 1)


def test_probe_finds_violation_and_stays_monotone():
    for name in ("fig8", "fig8-undirected"):
        report = submodularity_probe(get_builtin(name).network, trials=400)
        assert report.monotone, name
        assert not report.submodular, name


def test_marginal_gain_nonnegative():
    net = get_builtin("fig8").network
    base = max_set_flow(net, ("s1",)).objective
    for v in net.nodes:
        assert max_set_flow(net, sorted({"s1", v})).objective >= base, v


def test_eq25_zero_residual_random():
    rng = random.Random(101)
    checked = 0
    while checked < 25:
        net = random_directed(rng, n_commodities=1)
        w = pick_inner_node(rng, net)
        if w is None:
            continue
        com = net.commodities[0]
        report = check_pair_sum_identity(net, w, com.source, com.sink)
        assert report.residual == 0 and report.consistent, checked
        checked += 1


def test_eq25_zero_residual_directed_property():
    # The seeded loop above with w an inner node, as a property over small
    # directed networks where w may also be a commodity endpoint.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    nodes = ["n0", "n1", "n2", "n3", "n4"]
    capacities = st.fractions(min_value=0, max_value=4, max_denominator=2)
    edge_lists = st.lists(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes), capacities)
        .filter(lambda e: e[0] != e[1]), max_size=8)

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists, order=st.permutations(nodes),
           w=st.sampled_from(nodes))
    def check(edges, order, w):
        s, t = order[:2]
        net = FlowNetwork.build("directed", nodes, edges, [(s, t, None)])
        report = check_pair_sum_identity(net, w, s, t)
        assert report.residual == 0 and report.consistent

    check()


def test_hat_constructions_shapes():
    net = get_builtin("remarks").network
    hats = hat_constructions(net, "s", "t")
    for g in (hats.source_hat, hats.sink_hat, hats.both):
        assert set(net.nodes) <= set(g.nodes)
        assert len(g.nodes) > len(net.nodes)
