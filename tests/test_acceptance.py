"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (run with -s to see them inline;
pytest also shows captured output for failures).
"""

import random
import time
from math import comb

from nodeflow import (SrConfig, Tunnel, acyclic_feasible, augmenting_w_flow,
                      build_tunnels, catalog, check_pair_sum_identity,
                      detect_cycles, ecmp_fractions, enumerate_paths,
                      get_builtin, max_coverage_gadget, max_set_flow,
                      max_set_flow_paths, max_w_flow_exact, min_swt_edge_cut,
                      n_group_max_flow, probe_margins, rat, solve_te_lu,
                      solve_te_mf, submodularity_probe, through_any)

from conftest import (dmf_satisfiable, pick_inner_node, random_directed,
                      random_undirected)
from reduction_checks import (check_disjoint_shortest_paths,
                              check_max_coverage, check_node_split,
                              check_two_disjoint_paths, check_unit_path,
                              max_coverage_brute)


def _report(num, label, ok):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_remarks_suite():
    start = time.monotonic()
    net = get_builtin("remarks").network
    ok = max_w_flow_exact(net, "w").objective == 3
    cut = min_swt_edge_cut(net, "s", "w", "t")
    ok = ok and cut.exact and cut.value == 4  # strict gap over the flow of 3
    ok = ok and augmenting_w_flow(net, "w").value == 2
    unit = get_builtin("remarks-unit").network
    ok = ok and max_w_flow_exact(unit, "w").objective == rat(3, 2)
    ok = ok and time.monotonic() - start < 1.0
    _report(1, "remarks suite: flow 3, cut 4, heuristic 2, unit 3/2", ok)


def test_criterion_02_figadd_suite():
    start = time.monotonic()
    net = get_builtin("figadd").network
    sol = max_w_flow_exact(net, "w")
    routes = {p.nodes for entries in sol.flows.values()
              for p, f in entries if f > 0}
    ok = sol.objective == 1 and ("s", "w", "s", "t") in routes
    ok = ok and max_set_flow_paths(net, ("w",), simple=True).objective == 0
    ok = ok and solve_te_mf(net).total_value() == 1
    ok = ok and time.monotonic() - start < 1.0
    _report(2, "figadd: walk value 1 via s,w,s,t; simple 0; unconstrained 1",
            ok)


def test_criterion_03_undirected_transform_equivalence():
    start = time.monotonic()
    rng = random.Random(2003)
    ok = max_set_flow(get_builtin("wst-undirected").network,
                      ("w",)).objective == rat(1, 2)
    checked = 0
    while checked < 200:
        net = random_undirected(rng, n_nodes=rng.randint(3, 6),
                                n_edges=rng.randint(3, 8),
                                n_commodities=rng.randint(1, 2))
        w = pick_inner_node(rng, net)
        if w is None:
            continue
        brute = solve_te_mf(
            net, [enumerate_paths(net, i, through_any([w]))
                  for i in range(len(net.commodities))]).objective
        if max_set_flow(net, (w,)).objective != brute:
            ok = False
            break
        checked += 1
    ok = ok and time.monotonic() - start < 60.0
    _report(3, "undirected transform = brute path LP on 200 random "
               "instances (incl. w-s-t chain 1/2)", ok)


def test_criterion_04_demand_load_duality():
    rng = random.Random(2004)
    ok = True
    for _ in range(200):
        net = random_directed(rng, n_commodities=rng.randint(1, 2),
                              finite_demands=True)
        theta = solve_te_lu(net).theta
        agrees = dmf_satisfiable(net) == (theta is not None and theta <= 1)
        if not agrees:
            ok = False
            break
    _report(4, "DMF feasible iff theta* <= 1 on 200 random finite-demand "
               "instances", ok)


def test_criterion_05_cut_bounds_corpus():
    ok = True
    for b in catalog():
        w = b.designated.get("w")
        if w is None and b.middlepoints:
            w = b.middlepoints[0]
        if w is None or not b.network.commodities:
            continue
        com = b.network.commodities[0]
        if w in (com.source, com.sink):
            continue
        cut = min_swt_edge_cut(b.network, com.source, w, com.sink)
        if b.network.directed:
            flow = max_w_flow_exact(b.network, w).objective
        else:
            flow = max_set_flow(b.network, (w,)).objective
        if flow > cut.value:
            ok = False
            break
    # Remark-2 strictness: the bound is not tight in general.
    remarks = get_builtin("remarks").network
    ok = ok and max_w_flow_exact(remarks, "w").objective < \
        min_swt_edge_cut(remarks, "s", "w", "t").value
    _report(5, "node-constrained flow <= min s-w-t cut on every corpus "
               "instance (strict on remarks)", ok)


def test_criterion_06_non_submodularity():
    ok = True
    for name in ("fig8", "fig8-undirected"):
        net = get_builtin(name).network
        if probe_margins(net, ("s1",), ("s1", "s2"), "s3") != (0, 1):
            ok = False
    names = [b.name for b in catalog()]
    per = 1000 // len(names)
    trials = [per] * len(names)
    trials[0] += 1000 - per * len(names)
    mono_violations = 0
    for name, n in zip(names, trials):
        report = submodularity_probe(get_builtin(name).network, trials=n)
        mono_violations += len(report.monotonicity_violations)
    ok = ok and mono_violations == 0
    _report(6, "fig8 margin pair (0, 1) in both orientations; 0 "
               "monotonicity violations in 1000 corpus samples", ok)


def test_criterion_07_n_group():
    net = get_builtin("fig8").network
    ok = n_group_max_flow(net, 1, "brute").value == 2
    ok = ok and n_group_max_flow(net, 3, "brute").value == 3
    rng = random.Random(2007)
    for trial in range(50):
        n_items = rng.randint(1, 4)
        items = [f"i{j}" for j in range(n_items)]
        sets = [tuple(rng.sample(items, rng.randint(1, n_items)))
                for _ in range(rng.randint(1, 4))]
        n = rng.randint(1, len(sets))
        gadget = max_coverage_gadget(items, sets)
        if n_group_max_flow(gadget.network, n, "brute").value != \
                max_coverage_brute(items, sets, n):
            ok = False
            break
    _report(7, "fig8 GF^1=2, GF^3=3; 50 coverage gadgets match the brute "
               "coverage optimum", ok)


def test_criterion_08_eq25_identity():
    rng = random.Random(2008)
    ok = True
    checked = 0
    while checked < 100:
        net = random_directed(rng, n_nodes=rng.randint(3, 6),
                              n_commodities=1)
        w = pick_inner_node(rng, net)
        if w is None:
            continue
        com = net.commodities[0]
        report = check_pair_sum_identity(net, w, com.source, com.sink)
        if report.residual != 0 or not report.consistent:
            ok = False
            break
        checked += 1
    _report(8, "inclusion-exclusion identity residual 0 on 100 random "
               "directed instances", ok)


def test_criterion_09_segment_routing():
    net = get_builtin("cycle-3").network
    shared = next(e.id for e in net.edges
                  if (e.tail, e.head) == ("u1", "u2"))
    hits = detect_cycles(net, Tunnel(0, ("w",)))
    ok = any(eid == shared and len(idxs) >= 2 for eid, idxs in hits)
    ok = ok and not acyclic_feasible(net, "s", "t", ("w",),
                                     mode="path").feasible

    rng = random.Random(2009)
    checked = 0
    while ok and checked < 100:
        g = random_directed(rng, n_nodes=rng.randint(3, 6),
                            n_edges=rng.randint(3, 9), n_commodities=1)
        u, v = g.commodities[0].source, g.commodities[0].sink
        frac = ecmp_fractions(g, u, v)
        if not frac.reachable():
            continue
        balance = {node: rat(0) for node in g.nodes}
        for eid, share in frac.fractions.items():
            if not 0 < share <= 1:
                ok = False
            e = g.edge(eid)
            balance[e.tail] -= share
            balance[e.head] += share
        expect = {u: rat(-1), v: rat(1)}
        if any(balance[x] != expect.get(x, rat(0)) for x in g.nodes):
            ok = False
        checked += 1

    for _ in range(20):
        g = random_directed(rng, n_nodes=6, n_edges=10, n_commodities=2)
        k = rng.randint(1, 3)
        mids = tuple(rng.sample(list(g.nodes), k))
        for m in (1, 2):
            tunnels, _ = build_tunnels(g, SrConfig(mids, m))
            # variables per commodity (and so LP columns) stay within the
            # binomial bound sum_{j<=m} C(k, j)
            bound = sum(comb(k, j) for j in range(min(k, m) + 1))
            if any(len(per) > bound for per in tunnels):
                ok = False
    _report(9, "cycle-3 tunnel cycle on u1->u2 and infeasible acyclic "
               "check; ECMP conservation on 100 graphs; tunnel counts "
               "within binomial bounds", ok)


def test_criterion_10_augmenting_undirected():
    net = get_builtin("augmenting-undirected").network
    ok = max_set_flow_paths(net, ("w",), single_use=True).objective == 3
    # Greedy saturation, shortest no-repeat path first: the first pick is
    # s,v,w,t, which blocks both other routes through w.
    fam = enumerate_paths(net, 0, through_any(["w"], single_use=True))
    order = sorted(fam.paths, key=lambda p: (len(p.steps), p.nodes))
    ok = ok and order[0].nodes == ("s", "v", "w", "t")
    residual = {e.id: e.capacity for e in net.edges}
    total = rat(0)
    for p in order:
        delta = min(residual[eid] for eid, _ in p.steps)
        if delta > 0:
            for eid, _ in p.steps:
                residual[eid] -= delta
            total += delta
    ok = ok and total == 2
    _report(10, "augmenting-undirected: no-repeat optimum 3, greedy with "
                "first pick s,v,w,t stalls at 2", ok)


def test_criterion_11_reduction_checkers():
    rng = random.Random(2011)
    ok = True

    def suite(run, label):
        nonlocal ok
        outcomes = set()
        checked = 0
        while checked < 50:
            result = run()
            if result is None:
                continue
            res, outcome = result
            if not res.consistent:
                ok = False
                return
            outcomes.add(outcome)
            checked += 1
        if len(outcomes) < 2:
            ok = False

    def two_dp():
        net = random_directed(rng, n_nodes=rng.randint(4, 6),
                              n_edges=rng.randint(4, 9), n_commodities=1)
        u1, u2, v1, v2 = rng.sample(sorted(net.nodes), 4)
        res = check_two_disjoint_paths(net, u1, u2, v1, v2)
        return res, res.direct

    def node_split():
        net = random_directed(rng, n_nodes=rng.randint(4, 6),
                              n_edges=rng.randint(4, 9), n_commodities=1)
        s, w, t = rng.sample(sorted(net.nodes), 3)
        res = check_node_split(net, s, w, t)
        return res, res.direct

    def unit_path():
        net = random_directed(rng, n_nodes=rng.randint(3, 5),
                              n_edges=rng.randint(3, 7), n_commodities=1)
        s, w, t = rng.sample(sorted(net.nodes), 3)
        res = check_unit_path(net, s, t, w)
        return res, res.direct

    def coverage():
        n_items = rng.randint(1, 4)
        items = [f"i{j}" for j in range(n_items)]
        sets = [tuple(rng.sample(items, rng.randint(1, n_items)))
                for _ in range(rng.randint(1, 4))]
        n = rng.randint(1, len(sets))
        res = check_max_coverage(items, sets, n)
        # "both outcomes" here: instances with full and with partial coverage
        return res, res.direct == n_items

    def dsp():
        net = random_directed(rng, n_nodes=rng.randint(4, 6),
                              n_edges=rng.randint(5, 10), n_commodities=1)
        k = rng.choice((2, 2, 3))
        if len(net.nodes) < 2 * k:
            return None
        chosen = rng.sample(sorted(net.nodes), 2 * k)
        res = check_disjoint_shortest_paths(
            net, list(zip(chosen[::2], chosen[1::2])))
        return res, res.direct

    for run, label in ((two_dp, "2dp"), (node_split, "node-split"),
                       (unit_path, "unit-path"), (coverage, "coverage"),
                       (dsp, "disjoint-shortest-paths")):
        suite(run, label)
        if not ok:
            break
    _report(11, "all five gadget checkers consistent on 50 random "
                "instances each, both outcomes seen", ok)
