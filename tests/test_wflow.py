import random
import time
from itertools import islice

import pytest

from nodeflow import (CapExceeded, FlowNetwork, MalformedNetwork, MissingDesignation,
                      PathConstraint, UnknownNode, augmenting_w_flow,
                      build_transform, enumerate_paths,
                      enumerate_st_paths, fix_paths,
                      get_builtin, max_flow_arc_lp, max_set_flow,
                      max_set_flow_paths,
                      max_w_flow_exact, min_swt_edge_cut, network,
                      rat, solve_te_mf, through_any, validate_walk, verify_cut)

from nodeflow.network import FWD, REV
from nodeflow.wflow import AUGMENT_MAX_ROUNDS, AUGMENT_SEARCH_CAP, _decompose

from conftest import (oracle_walks, pick_inner_node, random_directed,
                      random_undirected)


def test_remarks_values():
    net = get_builtin("remarks").network
    assert max_w_flow_exact(net, "w").objective == 3
    assert max_w_flow_exact(get_builtin("remarks-unit").network,
                            "w").objective == rat(3, 2)


def test_figadd_values():
    net = get_builtin("figadd").network
    walkful = max_w_flow_exact(net, "w")
    assert walkful.objective == 1
    routes = {p.nodes for entries in walkful.flows.values()
              for p, f in entries if f > 0}
    assert routes == {("s", "w", "s", "t")}
    assert max_set_flow_paths(net, ("w",), simple=True).objective == 0
    assert solve_te_mf(net).total_value() == 1


def test_undirected_transform_matches_brute_lp():
    rng = random.Random(47)
    checked = 0
    while checked < 60:
        net = random_undirected(rng, n_nodes=rng.randint(3, 5),
                                n_edges=rng.randint(3, 7),
                                n_commodities=rng.randint(1, 2))
        w = pick_inner_node(rng, net)
        if w is None:
            continue
        brute = solve_te_mf(
            net, [enumerate_paths(net, i, through_any([w]))
                  for i in range(len(net.commodities))]).objective
        assert max_set_flow(net, (w,)).objective == brute, checked
        checked += 1


def test_undirected_w_flow_at_an_endpoint_matches_brute_lp():
    # At w = s or w = t every s-t walk passes w: the value is the plain
    # maximum flow, here 1 on the w-s-t chain.
    net = get_builtin("wst-undirected").network
    assert max_set_flow(net, ("s",)).objective == \
        max_set_flow(net, ("t",)).objective == 1
    rng = random.Random(61)
    for trial in range(40):
        net = random_undirected(rng, n_nodes=rng.randint(3, 5),
                                n_edges=rng.randint(3, 7),
                                n_commodities=rng.randint(1, 2))
        com = net.commodities[rng.randrange(len(net.commodities))]
        for w in (com.source, com.sink):
            assert max_set_flow(net, (w,)).objective == \
                max_set_flow_paths(net, (w,)).objective, (trial, w)


def test_undirected_chain_half():
    net = get_builtin("wst-undirected").network
    assert max_set_flow(net, ("w",)).objective == rat(1, 2)
    assert max_set_flow_paths(net, ("w",), single_use=True).objective == 0


def test_arc_program_results_have_no_flows_to_sum():
    # Both arc programs give a value and no decomposition, so reading one
    # off their flows must raise rather than answer 0.
    net = get_builtin("wst-undirected").network
    for sol, value in ((max_set_flow(net, ("w",)), rat(1, 2)),
                       (max_flow_arc_lp(net), 1)):
        assert (sol.status, sol.objective, sol.flows) == ("optimal", value, None)
        with pytest.raises(ValueError, match="no flow decomposition"):
            sol.total_value()
        with pytest.raises(ValueError, match="no flow decomposition"):
            sol.commodity_value(0)


def test_single_use_changes_nothing_on_directed_networks():
    # A directed edge has one step, so a walk cannot reuse it either way:
    # the no-repeat family is the plain through-W family.
    rng = random.Random(59)
    nets = [get_builtin(name).network for name in ("remarks", "figadd", "fig8")]
    nets += [random_directed(rng, n_commodities=rng.randint(1, 2))
             for _ in range(20)]
    for trial, net in enumerate(nets):
        W = tuple(rng.sample(sorted(net.nodes), rng.randint(1, 2)))
        plain = max_set_flow_paths(net, W)
        single = max_set_flow_paths(net, W, single_use=True)
        assert (single.objective, single.flows) == \
            (plain.objective, plain.flows), (trial, W)


def test_set_flow_transform_matches_brute_lp():
    rng = random.Random(53)
    checked = 0
    while checked < 40:
        net = random_undirected(rng, n_nodes=rng.randint(4, 6),
                                n_edges=rng.randint(4, 7),
                                n_commodities=rng.randint(1, 2))
        endpoints = {c.source for c in net.commodities}
        endpoints |= {c.sink for c in net.commodities}
        inner = [v for v in net.nodes if v not in endpoints]
        if len(inner) < 2:
            continue
        W = tuple(sorted(rng.sample(inner, 2)))
        assert max_set_flow(net, W).objective == \
            max_set_flow_paths(net, W).objective, checked
        checked += 1


def test_transform_layers_keep_halves_at_the_same_node():
    # Two designated nodes on parallel routes: a single-layer relaxation
    # would pair a source half split at one node with a sink half split at
    # the other and overcount.
    net = FlowNetwork.build(
        "undirected", ["s", "a", "b", "t"],
        [("s", "a", 1), ("a", "t", 2), ("s", "b", 2), ("b", "t", 1)],
        [("s", "t", None)])
    brute = max_set_flow_paths(net, ("a", "b")).objective
    assert max_set_flow(net, ("a", "b")).objective == brute == 2


def test_transform_counts_flow_at_a_designated_endpoint():
    # Every s-t walk passes s.  A surrogate "infinite" capacity of total
    # capacity + 1 on the exit arcs once capped the program's 2 x 4 at 5
    # and reported 5/2.
    net = FlowNetwork.build("undirected", ["s", "t"], [("s", "t", 4)],
                            [("s", "t", None)])
    assert max_set_flow(net, ("s",)).objective == 4
    assert max_set_flow(net, ("s", "t")).objective == 4


def test_set_flow_with_endpoints_in_W_matches_brute_lp():
    rng = random.Random(71)
    for trial in range(120):
        net = random_undirected(rng, n_nodes=rng.randint(3, 5),
                                n_edges=rng.randint(3, 6),
                                n_commodities=rng.randint(1, 2),
                                finite_demands=trial % 2 == 1)
        endpoints = sorted({c.source for c in net.commodities}
                           | {c.sink for c in net.commodities})
        W = {rng.choice(endpoints)}
        if rng.random() < 0.5:
            W.add(rng.choice(net.nodes))
        W = tuple(sorted(W))
        assert max_set_flow(net, W).objective == \
            max_set_flow_paths(net, W).objective, (trial, W)


def test_transform_rejects_directed():
    net = get_builtin("remarks").network
    with pytest.raises(MalformedNetwork):
        build_transform(net, ("w",))


@pytest.mark.parametrize("name", ["remarks", "wst-undirected"])
def test_bad_designated_set_raises_the_same_on_both_orientations(name):
    # Path families (directed) and the transform (undirected) see the same
    # error for the same bad set.
    net = get_builtin(name).network
    with pytest.raises(UnknownNode, match="'zz'"):
        max_set_flow(net, ("w", "zz"))
    with pytest.raises(MissingDesignation):
        max_set_flow(net, ())
    # The path-family solver, exported on its own, checks W the same way.
    with pytest.raises(UnknownNode, match="'zz'"):
        max_set_flow_paths(net, ("w", "zz"))
    with pytest.raises(MissingDesignation):
        max_set_flow_paths(net, ())
    if not net.directed:
        with pytest.raises(UnknownNode, match="'zz'"):
            build_transform(net, ("zz",))


def test_cut_upper_bounds_flow_and_verifies():
    net = get_builtin("remarks").network
    cut = min_swt_edge_cut(net, "s", "w", "t")
    assert cut.exact and cut.value == 4
    assert verify_cut(net, "s", "w", "t", cut.edges)
    assert max_w_flow_exact(net, "w").objective == 3  # strict gap


def _parallel_paths(k):
    """Directed s -> a_i -> t, k parallel paths, capacity 2 out of s and 1
    into t."""
    mids = [f"a{i}" for i in range(k)]
    edges = [e for a in mids for e in (("s", a, 2), (a, "t", 1))]
    return FlowNetwork.build("directed", ["s", *mids, "t"], edges, [("s", "t", None)])


def _incident_cut_value(net, s, w, t):
    """The cheaper valid side of w's own edges: into w needs w != s, out of
    w needs w != t."""
    sides = []
    if w != s:
        sides.append([e for e in net.edges if e.head == w or (not net.directed and e.tail == w)])
    if w != t:
        sides.append([e for e in net.edges if e.tail == w or (not net.directed and e.head == w)])
    return min(sum((e.capacity for e in side), rat(0)) for side in sides)


def test_cut_fallback_with_w_at_an_endpoint():
    # 22 edges take the inexact fallback: the cheapest of the minimum s-t,
    # s-w and w-t cuts.  With w == s only the s-t and w-t cuts qualify, both
    # the 11 edges into t.
    net = _parallel_paths(11)
    for w, value in (("s", 11), ("t", 11), ("a0", 1)):
        cut = min_swt_edge_cut(net, "s", w, "t")
        assert not cut.exact
        assert cut.value == value, w
        assert cut.value <= _incident_cut_value(net, "s", w, "t"), w
        assert verify_cut(net, "s", w, "t", cut.edges), w
    assert not verify_cut(net, "s", "s", "t", ())


def test_cut_fallback_on_undirected_grid():
    # 4 x 4 grid, 24 edges.  The cheapest max-flow cut is the corner v00's
    # two edges, exact on an undirected network; w's own four edges are no
    # cheaper.  Checking a cut by walk search alone explores every
    # edge-distinct trail from s and runs for more than 30 s on a 2.1 GHz
    # Xeon; verify_cut must settle it by reachability instead.
    n = 4
    nodes = [f"v{i}{j}" for i in range(n) for j in range(n)]
    edges = [(f"v{i}{j}", f"v{i}{j + 1}", 1) for i in range(n) for j in range(n - 1)]
    edges += [(f"v{i}{j}", f"v{i + 1}{j}", 1) for i in range(n - 1) for j in range(n)]
    net = FlowNetwork.build("undirected", nodes, edges, [("v00", "v33", None)])
    cut = min_swt_edge_cut(net, "v00", "v11", "v33")
    assert cut.exact and cut.value == 2
    assert cut.value <= _incident_cut_value(net, "v00", "v11", "v33") == 4
    assert verify_cut(net, "v00", "v11", "v33", cut.edges)


def test_undirected_cut_in_its_exact_range_answers_at_once():
    # 8 nodes, 18 edges: a branch and bound over edge sets gave no answer
    # within 15 s on a 2.0 GHz Xeon.  The minimum is lambda(n0, n4) = 5:
    # n4's three edges, which also cut n5 from n4.  lambda(n5, n0) is 8.
    edges = [("n4", "n6", 1), ("n5", "n7", 1), ("n1", "n6", 1), ("n1", "n5", 4),
             ("n4", "n5", 2), ("n0", "n2", 4), ("n0", "n6", 1), ("n6", "n7", 2),
             ("n3", "n5", 4), ("n2", "n3", 4), ("n1", "n4", 2), ("n2", "n7", 3),
             ("n2", "n6", 2), ("n0", "n1", 2), ("n1", "n2", 4), ("n3", "n7", 3),
             ("n0", "n7", 1), ("n1", "n7", 4)]
    net = FlowNetwork.build("undirected", [f"n{i}" for i in range(8)], edges)
    start = time.perf_counter()
    cut = min_swt_edge_cut(net, "n5", "n0", "n4")
    assert time.perf_counter() - start < 1
    assert cut.exact and cut.value == 5 and cut.edges == (0, 4, 10)
    assert verify_cut(net, "n5", "n0", "n4", cut.edges)


def test_verify_cut_agrees_with_walk_search():
    # The reachability shortcut in verify_cut must never change its answer;
    # the independent oracle searches the network without the cut edges.
    rng = random.Random(67)
    for trial in range(150):
        net = (random_directed if trial % 2 else random_undirected)(rng)
        s, t = net.commodities[0].source, net.commodities[0].sink
        w = rng.choice(net.nodes)
        removed = [e.id for e in net.edges if rng.random() < 0.3]
        rest = FlowNetwork.build(net.orientation, net.nodes,
                                 [(e.tail, e.head, e.capacity) for e in net.edges
                                  if e.id not in removed])
        walks = oracle_walks(rest, s, t, through={w})
        assert verify_cut(net, s, w, t, removed) == (not walks), trial


def test_cut_bounds_on_random_instances():
    rng = random.Random(59)
    checked = 0
    while checked < 30:
        net = random_directed(rng, n_commodities=1)
        w = pick_inner_node(rng, net)
        if w is None:
            continue
        com = net.commodities[0]
        cut = min_swt_edge_cut(net, com.source, w, com.sink)
        flow = max_w_flow_exact(net, w).objective
        assert flow <= cut.value, checked
        assert verify_cut(net, com.source, w, com.sink, cut.edges)
        checked += 1


def test_augmenting_never_beats_exact_and_decomposes():
    rng = random.Random(61)
    checked = 0
    while checked < 30:
        net = random_directed(rng, n_commodities=1)
        w = pick_inner_node(rng, net)
        if w is None:
            continue
        result = augmenting_w_flow(net, w)
        exact = max_w_flow_exact(net, w).objective
        assert result.value <= exact, checked
        assert sum((amt for _, amt in result.decomposition), rat(0)) \
            == result.value, checked
        for walk, _ in result.decomposition:
            assert validate_walk(net, walk).valid
            assert w in walk.nodes
        checked += 1


def test_augmenting_can_stall_on_remarks():
    net = get_builtin("remarks").network
    result = augmenting_w_flow(net, "w")
    assert result.value == 2  # the direct pick blocks the optimum of 3


def _reference_augmenting(net, w):
    """The heuristic's rule the long way: each round sorts its walks
    shortest first, augments a copy of the flow along each in turn and
    accepts the first whose summed flow into w beats the current one.
    Returns (value, arc flow, accepted steps, decomposition, rounds in
    which a shorter walk was skipped)."""
    s, t = net.commodities[0].source, net.commodities[0].sink

    def inflow_w(flow):
        return sum((flow[e.id] for e in net.edges if e.head == w), rat(0))

    flow = {e.id: rat(0) for e in net.edges}
    accepted, skips = [], 0
    for _ in range(AUGMENT_MAX_ROUNDS):
        adj = {v: [] for v in net.nodes}
        room = {}
        for e in net.edges:
            if e.capacity > flow[e.id]:
                adj[e.tail].append((e, FWD))
                room[e.id, FWD] = e.capacity - flow[e.id]
            if flow[e.id] > 0:
                adj[e.head].append((e, REV))
                room[e.id, REV] = flow[e.id]
        walks = islice(network._iter_walks(net, s, t, False, False, adj, (w,)),
                       AUGMENT_SEARCH_CAP)
        ranked = sorted(walks, key=lambda p: (len(p.steps), p.steps))
        for rank, walk in enumerate(ranked):
            delta = min(room[step] for step in walk.steps)
            trial = dict(flow)
            for eid, d in walk.steps:
                trial[eid] += d * delta
            if inflow_w(trial) > inflow_w(flow):
                break
        else:
            break
        skips += rank > 0
        flow = trial
        accepted.append(walk.steps)
    value = sum((flow[e.id] for e in net.edges if e.tail == s), rat(0)) - \
        sum((flow[e.id] for e in net.edges if e.head == s), rat(0))
    decomposition = [(p.steps, amount)
                     for p, amount in _decompose(net, dict(flow), s, w, t)]
    return value, flow, accepted, decomposition, skips


def test_augmenting_picks_what_the_reference_rule_picks(monkeypatch):
    # 1,000 draws: 3-8 nodes, capacities 0-4, distinct s, w, t.  A step cap
    # of 20,000 stops about one draw in forty, so both must raise
    # CapExceeded on the same draws; the pool must also hold rounds in
    # which an earlier-ranked walk that gains nothing into w is passed over.
    monkeypatch.setattr(network, "WALK_STEP_CAP", 20_000)
    rng = random.Random(83)
    capped = skips = 0
    for draw in range(1000):
        n = rng.randint(3, 8)
        nodes = [f"n{i}" for i in range(n)]
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        rng.shuffle(pairs)
        edges = [(a, b, rng.randint(0, 4))
                 for a, b in pairs[:rng.randint(2, 3 * n)]]
        s, w, t = rng.sample(nodes, 3)
        net = FlowNetwork.build("directed", nodes, edges, [(s, t)])
        try:
            *want, skipped = _reference_augmenting(net, w)
        except CapExceeded:
            capped += 1
            with pytest.raises(CapExceeded):
                augmenting_w_flow(net, w)
            continue
        got = augmenting_w_flow(net, w)
        assert [got.value, got.arc_flow, [p.steps for p in got.paths],
                [(p.steps, amount) for p, amount in got.decomposition]] \
            == want, draw
        skips += skipped
    assert capped and skips, (capped, skips)


def _k8_w():
    """The complete digraph on v0..v7 (capacity 1) and w, entered from v2
    alone, with the commodity v0 -> v1: no s-t walk can pass w."""
    v = [f"v{i}" for i in range(8)]
    return FlowNetwork.build("directed", v + ["w"],
                             [(a, b, 1) for a in v for b in v if a != b]
                             + [("v2", "w", 1)], [("v0", "v1")])


def test_no_walk_through_w_is_found_without_a_search():
    # w reaches no node, so no walk passes it: the family is empty at once,
    # where a search through every edge-distinct trail of the complete
    # digraph would keep nothing until it passed its step cap.
    start = time.perf_counter()
    assert max_set_flow_paths(_k8_w(), ("w",)).objective == 0
    assert time.perf_counter() - start < 2


def _runaway_a():
    """s -> w -> t, s -> k0, the complete digraph on k0..k4 and every k -> t
    (capacity 1): one walk passes w, and a search for more runs through
    every edge-distinct trail of the complete digraph, all of which miss w."""
    k = [f"k{i}" for i in range(5)]
    return FlowNetwork.build("directed", ["s", "w", "t"] + k,
                             [("s", "w", 1), ("w", "t", 1), ("s", "k0", 1)]
                             + [(a, b, 1) for a in k for b in k if a != b]
                             + [(a, "t", 1) for a in k], [("s", "t")])


def test_walk_search_stops_at_its_step_cap():
    # This search keeps one walk and spins on through the trails that miss
    # w; the step cap stops it.
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="passed 1000000 steps"):
        max_set_flow_paths(_runaway_a(), ("w",))
    assert time.perf_counter() - start < 10


def test_augmenting_stops_a_runaway_search():
    # The first round's search finds the one walk through w and runs on
    # through every edge-distinct trail of the complete digraph.  The step
    # cap stops it.
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="passed 1000000 steps"):
        augmenting_w_flow(_runaway_a(), "w")
    assert time.perf_counter() - start < 5


def test_augmenting_with_no_walk_through_w_answers_at_once():
    # w reaches no node, so reachability settles every round's search.
    start = time.perf_counter()
    result = augmenting_w_flow(_k8_w(), "w")
    assert time.perf_counter() - start < 1
    assert (result.value, result.paths, result.decomposition) == (0, [], [])


def test_augmenting_search_cap_keeps_an_answer_under_the_step_cap(monkeypatch):
    # Trial 7 of random.Random(11) draws of 8-14 nodes, 2n-4n arcs and
    # capacities 1-3, through v2 from v0 to v1: 8 nodes and 30 arcs.  With
    # only the first 5,000 walks read each round the heuristic answers 1;
    # reading them all, a round's search passes the step cap.
    rng = random.Random(11)
    for _ in range(8):
        n = rng.randint(8, 14)
        m = rng.randint(2 * n, 4 * n)
        nodes = [f"v{i}" for i in range(n)]
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        rng.shuffle(pairs)
        edges = [(a, b, rng.randint(1, 3)) for a, b in pairs[:m]]
    net = FlowNetwork.build("directed", nodes, edges, [("v0", "v1")])
    assert (len(net.nodes), len(net.edges)) == (8, 30)
    start = time.perf_counter()
    assert augmenting_w_flow(net, "v2").value == 1
    assert time.perf_counter() - start < 1
    monkeypatch.setattr("nodeflow.wflow.AUGMENT_SEARCH_CAP", None)
    with pytest.raises(CapExceeded):
        augmenting_w_flow(net, "v2")


def test_walk_step_cap_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(network, "WALK_STEP_CAP", 1000)
    with pytest.raises(CapExceeded, match="passed 1000 steps"):
        max_set_flow_paths(_runaway_a(), ("w",))
    with pytest.raises(CapExceeded, match="passed 1000 steps"):
        augmenting_w_flow(_runaway_a(), "w")


def _no_swt_walk():
    """s -> a -> b -> w, w -> a, b -> t, s -> k0 and the complete digraph on
    k0..k3 (capacity 1), 18 edges: s reaches w and w reaches t, but every
    s-w-t walk would cross a -> b twice, and a search through the trails
    out of k0 takes more than 1,000 steps."""
    k = [f"k{i}" for i in range(4)]
    return FlowNetwork.build("directed", ["s", "a", "b", "w", "t"] + k,
                             [("s", "a", 1), ("a", "b", 1), ("b", "w", 1),
                              ("w", "a", 1), ("b", "t", 1), ("s", "k0", 1)]
                             + [(x, y, 1) for x in k for y in k if x != y],
                             [("s", "t")])


def test_cut_search_stops_at_its_step_cap(monkeypatch):
    # No s-w-t walk is left with no edge cut, so the exact cut is empty.
    net = _no_swt_walk()
    cut = min_swt_edge_cut(net, "s", "w", "t")
    assert (cut.edges, cut.value, cut.exact) == ((), 0, True)
    monkeypatch.setattr(network, "WALK_STEP_CAP", 1000)
    with pytest.raises(CapExceeded, match="passed 1000 steps"):
        min_swt_edge_cut(net, "s", "w", "t")


def test_cut_skips_the_searches_that_reachability_settles(monkeypatch):
    # s -> w -> t, s -> k0, the complete digraph on k0..k3 and every k -> t
    # (capacity 1): 19 edges, inside the exact cut's 20.  Once s -> w is
    # cut, w is unreachable, so the search for an s-w-t walk through the
    # digraph's trails (10,502 steps) is never run.
    k = [f"k{i}" for i in range(4)]
    net = FlowNetwork.build("directed", ["s", "w", "t"] + k,
                            [("s", "w", 1), ("w", "t", 1), ("s", "k0", 1)]
                            + [(a, b, 1) for a in k for b in k if a != b]
                            + [(a, "t", 1) for a in k], [("s", "t")])
    monkeypatch.setattr(network, "WALK_STEP_CAP", 3)
    cut = min_swt_edge_cut(net, "s", "w", "t")
    assert (cut.edges, cut.value, cut.exact) == ((0,), 1, True)


def test_augmenting_needs_a_commodity():
    net = FlowNetwork.build("directed", ["s", "w", "t"],
                            [("s", "w", 1), ("w", "t", 1)])
    with pytest.raises(MalformedNetwork, match="needs a commodity"):
        augmenting_w_flow(net, "w")


def test_augmenting_refuses_w_at_an_endpoint():
    net = get_builtin("remarks").network
    for w in ("s", "t"):
        with pytest.raises(MalformedNetwork, match=f"'{w}'"):
            augmenting_w_flow(net, w)


def test_augmenting_refuses_an_unknown_w():
    net = get_builtin("remarks").network
    with pytest.raises(UnknownNode, match="^node 'zz' not in network$"):
        augmenting_w_flow(net, "zz")


def test_augmenting_refuses_a_fractional_capacity():
    net = FlowNetwork.build("directed", ["s", "w", "t"],
                            [("s", "w", 1), ("w", "t", "1/2")], [("s", "t")])
    with pytest.raises(MalformedNetwork, match="edge 1"):
        augmenting_w_flow(net, "w")


def test_fix_paths_produces_one_valid_walk():
    rng = random.Random(67)
    checked = 0
    while checked < 20:
        net = random_undirected(rng, n_nodes=rng.randint(3, 5),
                                n_edges=rng.randint(3, 6), n_commodities=1)
        w = pick_inner_node(rng, net)
        if w is None:
            continue
        com = net.commodities[0]
        no_repeat = PathConstraint(single_use=True)
        legs_sw = enumerate_st_paths(net, com.source, w, no_repeat).paths
        legs_wt = enumerate_st_paths(net, w, com.sink, no_repeat).paths
        if not legs_sw or not legs_wt:
            continue
        fixed = fix_paths(net, rng.choice(legs_sw), rng.choice(legs_wt))
        check = validate_walk(net, fixed)
        assert check.valid, check
        assert fixed.nodes[0] == com.source and fixed.nodes[-1] == com.sink
        assert w in fixed.nodes
        checked += 1


def test_norepeat_brute_on_augmenting_instance():
    net = get_builtin("augmenting-undirected").network
    assert max_set_flow_paths(net, ("w",), single_use=True).objective == 3
