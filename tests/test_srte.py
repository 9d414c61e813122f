import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from nodeflow import (CapExceeded, FlowNetwork, MalformedNetwork, SrConfig, Tunnel,
                      UnknownNode, acyclic_feasible, build_tunnels, detect_cycles,
                      ecmp_fractions, get_builtin, rat,
                      shortest_path_data, solve_sr_lu, solve_sr_mf,
                      network, solve_te_mf, srte, te, validate_walk)

from nodeflow.cli import main

from conftest import oracle_walks, random_directed, random_undirected


def _with_lengths(rng, net):
    """The same network, demands included, with every edge length drawn
    from 1-3."""
    edges = [(e.tail, e.head, e.capacity, rng.randint(1, 3)) for e in net.edges]
    commodities = [(c.source, c.sink, c.max_demand) for c in net.commodities]
    return FlowNetwork.build(net.orientation, net.nodes, edges, commodities)


def _brute_shortest(net, s):
    """Independent Bellman-Ford distances plus shortest-path counts."""
    dist = {s: 0}
    arcs = []
    for e in net.edges:
        arcs.append((e.tail, e.head, e.length))
        if not net.directed:
            arcs.append((e.head, e.tail, e.length))
    for _ in range(len(net.nodes)):
        for a, b, ln in arcs:
            if a in dist and dist[a] + ln < dist.get(b, float("inf")):
                dist[b] = dist[a] + ln
    counts = {s: 1}
    for v, _ in sorted(((v, d) for v, d in dist.items()), key=lambda x: x[1]):
        if v == s:
            continue
        counts[v] = sum(counts[a] for a, b, ln in arcs
                        if b == v and a in dist and dist[a] + ln == dist[v])
    return dist, counts


def test_shortest_path_data_matches_bellman_ford():
    rng = random.Random(71)
    for trial in range(40):
        net = random_directed(rng, n_commodities=1)
        s = net.commodities[0].source
        dist, counts, _ = shortest_path_data(net, s)
        bf_dist, bf_counts = _brute_shortest(net, s)
        assert dist == bf_dist, trial
        assert counts == bf_counts, trial
    for trial in range(40):
        gen = random_undirected if trial % 2 else random_directed
        net = _with_lengths(rng, gen(rng, n_commodities=1))
        s = net.commodities[0].source
        dist, counts, _ = shortest_path_data(net, s)
        assert (dist, counts) == _brute_shortest(net, s), trial


def test_ecmp_fractions_match_shortest_path_enumeration():
    """dist, n_paths and every fraction against the minimum-length simple
    paths: an edge carries the share of them that use it."""
    rng = random.Random(89)
    for trial in range(40):
        gen = random_undirected if trial % 2 else random_directed
        net = _with_lengths(rng, gen(rng))
        edge_of = {}
        for e in net.edges:
            edge_of.setdefault((e.tail, e.head), []).append(e)
            if not net.directed:
                edge_of.setdefault((e.head, e.tail), []).append(e)
        # No parallel edges, so a node sequence names its edges.
        assert all(len(es) == 1 for es in edge_of.values())
        for u in net.nodes:
            assert ecmp_fractions(net, u, u).n_paths == 1
            for v in net.nodes:
                if u == v:
                    continue
                frac = ecmp_fractions(net, u, v)
                paths = [[edge_of[hop][0] for hop in zip(seq, seq[1:])]
                         for seq in oracle_walks(net, u, v, simple=True)]
                if not paths:
                    assert (frac.dist, frac.n_paths, frac.fractions) == (-1, 0, {})
                    continue
                best = min(sum(e.length for e in p) for p in paths)
                shortest = [p for p in paths if sum(e.length for e in p) == best]
                uses = Counter(e.id for p in shortest for e in p)
                assert frac.dist == best, (trial, u, v)
                assert frac.n_paths == len(shortest), (trial, u, v)
                assert frac.fractions == {eid: Fraction(k, len(shortest))
                                          for eid, k in uses.items()}, (trial, u, v)
                assert list(frac.fractions) == sorted(uses), (trial, u, v)


def test_ecmp_fractions_unknown_node_raises():
    net = get_builtin("cycle-3").network
    for u, v in (("s", "zz"), ("zz", "t")):
        with pytest.raises(UnknownNode, match="zz"):
            ecmp_fractions(net, u, v)


def test_one_search_per_segment_source(monkeypatch):
    calls = []
    search = srte.shortest_path_data

    def counted(net, source):
        calls.append(source)
        return search(net, source)

    monkeypatch.setattr(srte, "shortest_path_data", counted)
    rng = random.Random(97)
    for trial in range(10):
        net = _with_lengths(rng, random_undirected(rng, n_nodes=6, n_edges=9,
                                                   n_commodities=3,
                                                   finite_demands=True))
        cfg = SrConfig(tuple(rng.sample(net.nodes, 3)), 2)
        for solve in (solve_sr_lu, solve_sr_mf):
            calls.clear()
            sol, tables = solve(net, cfg)
            # A search per source that some candidate tunnel starts a
            # segment at, and none twice over the whole solve.
            assert len(calls) == len(set(calls)), trial
            segs = {seg for per_com, com in zip(sol.tunnels_per_commodity,
                                                net.commodities)
                    for t in per_com for seg in t.segments(com)}
            assert {u for u, _ in segs} <= set(calls), trial
            assert set(tables) == segs
            for seg, table in tables.items():
                assert table == ecmp_fractions(net, *seg), (trial, seg)


def test_ecmp_fractions_conserve_and_bound():
    rng = random.Random(73)
    checked = 0
    while checked < 40:
        net = random_directed(rng, n_commodities=1)
        u, v = net.commodities[0].source, net.commodities[0].sink
        frac = ecmp_fractions(net, u, v)
        if not frac.reachable():
            continue
        balance = {node: rat(0) for node in net.nodes}
        for eid, share in frac.fractions.items():
            assert 0 < share <= 1, checked
            e = net.edge(eid)
            balance[e.tail] -= share
            balance[e.head] += share
        for node in net.nodes:
            expect = rat(0)
            if node == u:
                expect = rat(-1)
            elif node == v:
                expect = rat(1)
            assert balance[node] == expect, (checked, node)
        checked += 1


def test_tunnel_counts_within_binomial_bound():
    rng = random.Random(79)
    for _ in range(20):
        net = random_directed(rng, n_nodes=6, n_edges=10, n_commodities=2)
        k = rng.randint(1, 3)
        mids = rng.sample([v for v in net.nodes], k)
        for m in (1, 2):
            cfg = SrConfig(tuple(mids), m)
            tunnels, _ = build_tunnels(net, cfg)
            bound = sum(comb(k, j) for j in range(min(k, m) + 1))
            for per_com in tunnels:
                assert len(per_com) <= bound
                for tun in per_com:
                    assert len(tun.middlepoints) <= m
                    # middlepoints keep the configured order
                    idx = [mids.index(x) for x in tun.middlepoints]
                    assert idx == sorted(idx)


def test_cycle_instance_flags_shared_edge():
    b = get_builtin("cycle-3")
    net = b.network
    shared = next(e.id for e in net.edges
                  if (e.tail, e.head) == ("u1", "u2"))
    hits = detect_cycles(net, Tunnel(0, ("w",)))
    assert any(eid == shared and len(idxs) >= 2 for eid, idxs in hits)
    for mode in ("path", "simple_path"):
        assert not acyclic_feasible(net, "s", "t", ("w",), mode=mode).feasible


def test_cycle_forced_tunnel_doubles_utilization():
    # The tunnel s -> w -> t alone: both segments cross u1->u2.
    net = get_builtin("cycle-3").network
    column = Counter()
    for u, v in (("s", "w"), ("w", "t")):
        column.update(ecmp_fractions(net, u, v).fractions)
    sol = te.solve_columns(net, [[(Tunnel(0, ("w",)), column)]], True)
    assert sol.theta == 2


def test_cycle_direct_tunnel_keeps_utilization_1(capsys):
    # The CLI allows the direct tunnel, which crosses u1->u2 only once.
    assert main(["sr-lu", "--builtin", "cycle-3"]) == 0
    assert "theta: 1" in capsys.readouterr().out.splitlines()


def test_repeated_middlepoint_refused():
    net = get_builtin("cycle-3").network
    with pytest.raises(MalformedNetwork, match="distinct"):
        build_tunnels(net, SrConfig(("w", "w"), 2))


def test_negative_max_segments_refused():
    # M = -1 used to build no tunnel, not even the direct one, so sr-mf
    # answered 0 and sr-lu infeasible on a network where M = 0 routes 1.
    net = get_builtin("cycle-3").network
    cfg = SrConfig(("w",), -1)
    for solver in (build_tunnels, solve_sr_mf, solve_sr_lu):
        with pytest.raises(MalformedNetwork, match="negative"):
            solver(net, cfg)
    assert solve_sr_mf(net, SrConfig(("w",), 0))[0].objective == 1


def test_sr_solutions_respect_capacity_and_demand():
    rng = random.Random(83)
    checked = 0
    while checked < 40:
        net = random_directed(rng, n_nodes=5, n_edges=8, n_commodities=2,
                              finite_demands=True)
        mids = rng.sample(list(net.nodes), rng.randint(1, 2))
        cfg = SrConfig(tuple(mids), rng.choice((1, 2)))
        sol, tables = solve_sr_mf(net, cfg)
        if sol.status != "optimal":
            continue
        loads = sol.edge_loads(net, tables)
        for e in net.edges:
            assert loads[e.id] <= e.capacity, checked
        # flows[i] lists commodity i's own tunnels, in tunnel order, each
        # carrying flow.
        for i, com in enumerate(net.commodities):
            tunnels = sol.tunnels_per_commodity[i]
            at = [next(k for k, u in enumerate(tunnels) if u is t)
                  for t, _ in sol.flows[i]]
            assert at == sorted(set(at)), checked
            assert all(t.commodity == i and f > 0 for t, f in sol.flows[i])
            assert sol.commodity_value(i) <= com.max_demand, checked
        assert sol.total_value() == sol.objective, checked
        # The te counterpart: a family's own walks, in family order.
        families = te.default_families(net)
        te_sol = solve_te_mf(net, families)
        for i, fam in enumerate(families):
            at = [next(k for k, p in enumerate(fam.paths) if p is walk)
                  for walk, _ in te_sol.flows[i]]
            assert at == sorted(set(at)), checked
        # tunnel routing can never beat the unconstrained optimum
        assert sol.objective <= te_sol.total_value(), checked
        checked += 1


def test_acyclic_feasible_finds_witness():
    net = get_builtin("remarks").network
    result = acyclic_feasible(net, "s", "t", ("w",), mode="simple_path")
    assert result.feasible
    assert result.witness.nodes[0] == "s"
    assert "w" in result.witness.nodes


def _unit_grid(n):
    """Undirected n x n grid v{row}_{col}, unit capacities and lengths."""
    nodes = [f"v{i}_{j}" for i in range(n) for j in range(n)]
    edges = [(f"v{i}_{j}", f"v{i}_{j + 1}", 1) for i in range(n) for j in range(n - 1)]
    edges += [(f"v{i}_{j}", f"v{i + 1}_{j}", 1) for i in range(n - 1) for j in range(n)]
    return FlowNetwork.build("undirected", nodes, edges)


def test_acyclic_feasible_on_a_unit_grid_past_the_product():
    # The corner-to-corner segment has C(14,7) = 3,432 shortest paths and
    # the way back C(13,6) = 1,716, so the product of the two has 5,889,312
    # combinations.  The search takes the first path out and one back
    # that only crosses its edges the other way.
    net = _unit_grid(8)
    result = acyclic_feasible(net, "v0_0", "v0_1", ("v7_7",), mode="path")
    assert result.feasible and result.steps_tried == 27
    assert validate_walk(net, result.witness).valid
    assert result.witness.nodes[14] == "v7_7" and result.witness.sink == "v0_1"


def test_acyclic_simple_path_skips_the_later_chain_nodes():
    # The same chain as a simple path is feasible (along row 1, down column
    # 6 to v7_7, up column 7 and back along row 0).  The paths out that come
    # first in step order start along edge 0, through the sink v0_1;
    # skipping them at that step decides the chain in 4,806 steps, not the
    # 682,016 it takes to search beneath them.
    net = _unit_grid(8)
    result = acyclic_feasible(net, "v0_0", "v0_1", ("v7_7",),
                              mode="simple_path")
    assert result.feasible and result.steps_tried == 4806
    assert validate_walk(net, result.witness).valid and result.witness.is_simple()
    assert result.witness.nodes[1:3] == ("v1_0", "v1_1")


def test_acyclic_search_past_its_step_cap_raises(monkeypatch):
    # Corner to opposite corner, then along the bottom row and back up
    # across the grid: each segment's shortest paths cross those of the
    # others.  The 6 x 6 version decides infeasible in 4,191 steps, the
    # 7 x 7 one in 29,327, which is past a step cap of 10,000.
    result = acyclic_feasible(_unit_grid(6), "v0_0", "v0_5", ("v5_5", "v5_0"),
                              mode="simple_path")
    assert not result.feasible and result.steps_tried == 4191
    result = acyclic_feasible(_unit_grid(7), "v0_0", "v0_6", ("v6_6", "v6_0"),
                              mode="simple_path")
    assert not result.feasible and result.steps_tried == 29327
    monkeypatch.setattr(network, "WALK_STEP_CAP", 10_000)
    with pytest.raises(CapExceeded, match="10000 steps"):
        acyclic_feasible(_unit_grid(7), "v0_0", "v0_6", ("v6_6", "v6_0"),
                         mode="simple_path")


def test_segment_tables_cover_all_segments():
    net = get_builtin("cycle-3").network
    tunnels, tables = build_tunnels(net, SrConfig(("w",), 1))
    for per_com in tunnels:
        for tun in per_com:
            for seg in tun.segments(net.commodities[tun.commodity]):
                assert seg in tables
