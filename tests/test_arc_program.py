"""The arc program behind the undirected transform and the arc LP.

max_set_flow on an undirected network and max_flow_arc_lp both solve
te.solve_arcs.  Exact arithmetic makes each transform solve a pure function
of its program, so max_set_flow's status, pivot count and objective are
pinned on every undirected builtin and on a seeded random set.  The statuses
and objectives were recorded from the transform's earlier builder of its
own, the pivot counts from the program on the reduced graph (dead ends
pruned, series and parallel edges merged) with one layer per origin and no
arc into a layer's own origin.
max_flow_arc_lp's status, pivot count and objective are pinned too, on
every builtin with commodities and on a seeded random set, directed and
undirected, recorded from the program that weighed each exit variable by
its number of exits; its objective is also checked against the path
program.
"""

import random

import pytest

from nodeflow import (FlowNetwork, catalog, get_builtin, max_flow_arc_lp,
                      max_set_flow, max_set_flow_paths, solve_te_mf)
from nodeflow import lp as lpmod
from nodeflow.te import _reduced_graph

from conftest import random_directed, random_undirected


def _signature(sol):
    return f"{sol.status} {sol.pivots} {sol.objective}"


def _builtin_signatures():
    """Every node alone, and the designated group, of each undirected
    builtin."""
    out = {}
    for b in catalog():
        net = b.network
        if net.directed:
            continue
        sets = [(v,) for v in net.nodes]
        if "group" in b.designated:
            sets.append(tuple(b.designated["group"]))
        for W in sets:
            out[f"{b.name} {','.join(W)}"] = _signature(max_set_flow(net, W))
    return out


def _random_signatures():
    """Up to three commodities, finite demands on every other instance, W a
    draw of one or two nodes (commodity endpoints allowed)."""
    rng = random.Random(5101)
    out = {}
    for trial in range(40):
        net = random_undirected(rng, n_nodes=rng.randint(3, 6),
                                n_edges=rng.randint(3, 8),
                                n_commodities=rng.randint(1, 3),
                                finite_demands=trial % 2 == 0)
        W = tuple(rng.sample(net.nodes, rng.randint(1, 2)))
        out[f"{trial} {','.join(W)}"] = _signature(max_set_flow(net, W))
    return out


PINNED_BUILTINS = {
    "augmenting-undirected s": "optimal 7 9",
    "augmenting-undirected u": "optimal 10 7",
    "augmenting-undirected v": "optimal 7 8",
    "augmenting-undirected w": "optimal 9 3",
    "augmenting-undirected x": "optimal 6 8",
    "augmenting-undirected t": "optimal 7 9",
    "fig8-undirected s1": "optimal 10 2",
    "fig8-undirected s2": "optimal 11 2",
    "fig8-undirected s3": "optimal 17 3",
    "fig8-undirected t1": "optimal 16 2",
    "fig8-undirected t2": "optimal 17 3",
    "fig8-undirected t3": "optimal 16 2",
    "fig8-undirected v1": "optimal 10 2",
    "fig8-undirected v2": "optimal 15 3",
    "fig8-undirected v3": "optimal 15 3",
    "fig8-undirected v4": "optimal 15 2",
    "fig8-undirected s1,s2,s3": "optimal 33 3",
    "wst-undirected w": "optimal 3 1/2",
    "wst-undirected s": "optimal 2 1",
    "wst-undirected t": "optimal 2 1",
}

PINNED_RANDOM = {
    "0 n2,n3": "optimal 11 2",
    "1 n3,n5": "optimal 8 2",
    "2 n0": "optimal 6 2",
    "3 n0": "optimal 4 4",
    "4 n2": "optimal 7 5",
    "5 n1": "optimal 3 1",
    "6 n2,n0": "optimal 8 2",
    "7 n1": "optimal 4 2",
    "8 n1": "optimal 2 1",
    "9 n3,n1": "optimal 11 7",
    "10 n3": "optimal 2 2",
    "11 n3": "optimal 7 7",
    "12 n3,n4": "optimal 9 3",
    "13 n3,n1": "optimal 11 1",
    "14 n3": "optimal 4 1",
    "15 n1,n3": "optimal 13 4",
    "16 n3": "optimal 10 7/2",
    "17 n1,n0": "optimal 9 6",
    "18 n3": "optimal 7 2",
    "19 n1": "optimal 11 6",
    "20 n3": "optimal 7 2",
    "21 n1": "optimal 4 2",
    "22 n2,n3": "optimal 7 3",
    "23 n2": "optimal 8 6",
    "24 n3": "optimal 3 1",
    "25 n0": "optimal 3 5",
    "26 n1": "optimal 7 3",
    "27 n2": "optimal 2 6",
    "28 n1": "optimal 5 2",
    "29 n3,n0": "optimal 15 10",
    "30 n2,n0": "optimal 10 4",
    "31 n2,n1": "optimal 8 4",
    "32 n2": "optimal 6 5",
    "33 n1,n0": "optimal 4 0",
    "34 n2": "optimal 4 2",
    "35 n2": "optimal 3 0",
    "36 n3": "optimal 13 15/2",
    "37 n1,n0": "optimal 17 9",
    "38 n4,n1": "optimal 4 3",
    "39 n0": "optimal 2 3",
}

PINNED_ARC_LP_BUILTINS = {
    "augmenting-undirected": "optimal 7 9",
    "cycle-3": "optimal 5 1",
    "cycle-4": "optimal 6 1",
    "fig8": "optimal 30 3",
    "fig8-undirected": "optimal 30 3",
    "figadd": "optimal 3 1",
    "remarks": "optimal 7 4",
    "remarks-unit": "optimal 7 2",
    "wst-undirected": "optimal 2 1",
}

PINNED_ARC_LP_RANDOM = {
    0: "optimal 4 3",
    1: "optimal 10 4",
    2: "optimal 1 0",
    3: "optimal 6 0",
    4: "optimal 6 1",
    5: "optimal 7 0",
    6: "optimal 8 7",
    7: "optimal 8 0",
    8: "optimal 10 2",
    9: "optimal 16 4",
    10: "optimal 19 6",
    11: "optimal 9 0",
    12: "optimal 17 6",
    13: "optimal 11 3",
    14: "optimal 4 5",
    15: "optimal 14 14",
    16: "optimal 15 3",
    17: "optimal 5 2",
    18: "optimal 10 6",
    19: "optimal 9 0",
    20: "optimal 2 2",
    21: "optimal 7 1",
    22: "optimal 9 8",
    23: "optimal 19 2",
    24: "optimal 2 1",
    25: "optimal 3 1",
    26: "optimal 4 2",
    27: "optimal 4 0",
    28: "optimal 6 3",
    29: "optimal 4 1",
    30: "optimal 3 0",
    31: "optimal 17 5",
    32: "optimal 6 1",
    33: "optimal 4 0",
    34: "optimal 23 9",
    35: "optimal 5 0",
    36: "optimal 13 8",
    37: "optimal 11 2",
    38: "optimal 2 2",
    39: "optimal 4 7",
}


def test_transform_pinned_on_undirected_builtins():
    assert _builtin_signatures() == PINNED_BUILTINS


def test_transform_pinned_on_random_instances():
    assert _random_signatures() == PINNED_RANDOM


@pytest.mark.parametrize("W, shape", [
    (("s1",), (20, 21, 10)),
    (("s1", "s2", "s3"), (60, 39, 33)),
])
def test_commodities_share_the_layer_of_their_origin(monkeypatch, W, shape):
    # fig8-undirected has three commodities and 18 arcs after the
    # reduction.  One layer per origin holds the 17 arcs that do not enter
    # its origin (s1, s2 and s3 each end one edge) and an exit variable per
    # (commodity, origin); a layer per (commodity, origin) would hold three
    # times the arc variables.
    programs = []
    solve = lpmod.solve

    def spy(lp):
        sol = solve(lp)
        programs.append((len(lp.variables), len(lp.constraints), sol.pivots))
        return sol

    monkeypatch.setattr(lpmod, "solve", spy)
    net = get_builtin("fig8-undirected").network
    assert len(net.commodities) == 3
    max_set_flow(net, W)
    assert programs == [shape]


def test_transform_layer_has_no_arc_into_its_origin(monkeypatch):
    # The origin w is the one node its layer does not conserve, so an arc
    # variable into w would enter no conservation row with +1.  Every arc
    # variable enters one, and the layer holds two arcs per reduced edge
    # less one per edge at w.
    programs = []
    solve = lpmod.solve

    def spy(lp):
        programs.append(lp)
        return solve(lp)

    monkeypatch.setattr(lpmod, "solve", spy)
    for b in catalog():
        net = b.network
        if net.directed:
            continue
        for w in net.nodes:
            programs.clear()
            max_set_flow(net, (w,))
            (lp,) = programs
            arcs = [v for v in lp.variables if not v.endswith("_exit")]
            entered = {v for row in lp.constraints if row.relation == lpmod.EQ
                       for v, c in row.coeffs.items() if c == 1}
            assert set(arcs) <= entered, (b.name, w)
            terminals = {w} | {v for com in net.commodities
                               for v in (com.source, com.sink)}
            _, edges = _reduced_graph(net, terminals)
            at_w = sum(w in edge[:2] for edge in edges)
            assert len(arcs) == 2 * len(edges) - at_w, (b.name, w)


def _arc_lp_builtin_signatures():
    return {b.name: _signature(max_flow_arc_lp(b.network))
            for b in catalog() if b.network.commodities}


def _arc_lp_random_signatures():
    """Directed and undirected in turn, up to three commodities, finite
    demands on half the draws."""
    rng = random.Random(5119)
    out = {}
    for trial in range(40):
        gen = random_directed if trial % 2 else random_undirected
        net = gen(rng, n_nodes=rng.randint(3, 6), n_edges=rng.randint(3, 8),
                  n_commodities=rng.randint(1, 3),
                  finite_demands=trial % 4 < 2)
        out[trial] = _signature(max_flow_arc_lp(net))
    return out


def test_arc_lp_pinned_on_builtins():
    assert _arc_lp_builtin_signatures() == PINNED_ARC_LP_BUILTINS


def test_arc_lp_pinned_on_random_instances():
    assert _arc_lp_random_signatures() == PINNED_ARC_LP_RANDOM


def test_arc_lp_matches_path_lp_on_multicommodity_instances():
    rng = random.Random(5113)
    for trial in range(40):
        gen = random_directed if trial % 2 else random_undirected
        net = gen(rng, n_nodes=rng.randint(3, 5), n_edges=rng.randint(3, 6),
                  n_commodities=rng.randint(2, 3),
                  finite_demands=trial % 4 < 2)
        arc = max_flow_arc_lp(net)
        assert arc.status == "optimal", trial
        assert arc.objective == solve_te_mf(net).objective, trial


def test_arc_lp_matches_path_lp_on_builtins():
    for b in catalog():
        if b.network.commodities:
            assert (max_flow_arc_lp(b.network).objective
                    == solve_te_mf(b.network).objective), b.name


# -- the reduction before the arc program --------------------------------------
#
# The core s-u, s-v, u-v, u-t, v-t is irreducible with terminals s, u, t:
# its one non-terminal, v, has three neighbours.  Each test adds what one
# rule removes, checks the graph the program is built on, and checks the
# value against the path LP over the through-u walks.

CORE = [("s", "u", 2), ("s", "v", 1), ("u", "v", 1), ("u", "t", 1), ("v", "t", 2)]


def _reduced(nodes, edges, W=("u",)):
    net = FlowNetwork.build("undirected", nodes, edges, [("s", "t", None)])
    assert max_set_flow(net, W).objective == max_set_flow_paths(net, W).objective
    return _reduced_graph(net, {"s", "t", *W})


def test_reduction_drops_zero_capacity_edges():
    assert _reduced("suvt", CORE + [("s", "t", 0)]) == (list("suvt"), CORE)


def test_reduction_prunes_a_dead_end_tree():
    # d hangs off v and e off d: e goes first, then d.
    assert (_reduced("suvtde", CORE + [("v", "d", 5), ("d", "e", 3)])
            == (list("suvt"), CORE))


def test_reduction_merges_a_series_node():
    # s-x-t becomes one edge s-t of capacity min(3, 2), after the others.
    assert (_reduced("suvtx", CORE + [("s", "x", 3), ("x", "t", 2)])
            == (list("suvt"), CORE + [("s", "t", 2)]))


def test_reduction_merges_parallel_edges():
    # Both extra s-u edges merge into the first one.
    merged = [("s", "u", 5)] + CORE[1:]
    assert (_reduced("suvt", CORE + [("u", "s", 1), ("s", "u", 2)])
            == (list("suvt"), merged))


def test_reduction_prunes_a_node_with_two_edges_to_one_neighbour():
    # x's two edges to v merge into one, and x is then a dead end.
    assert (_reduced("suvtx", CORE + [("v", "x", 1), ("x", "v", 2)])
            == (list("suvt"), CORE))


def test_reduction_keeps_a_terminal_inside_a_chain():
    # w lies in series between s and t but is designated, so its edges
    # stay; u is now a non-terminal with three neighbours.
    chain = CORE + [("s", "w", 3), ("w", "t", 2)]
    assert _reduced("suvtw", chain, W=("w",)) == (list("suvtw"), chain)
