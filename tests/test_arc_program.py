"""The arc program behind the undirected transform and the arc LP.

max_set_flow on an undirected network and max_flow_arc_lp both solve
te.solve_arcs.  Exact arithmetic makes each transform solve a pure function
of its program, so max_set_flow's status, pivot count and objective are
pinned on every undirected builtin and on a seeded random set.  The statuses
and objectives were recorded from the transform's earlier builder of its
own, the pivot counts from the program with one exit variable per layer.
The arc LP's program changed shape with the move, so it is checked by value
against the path program instead.
"""

import random

from nodeflow import catalog, max_flow_arc_lp, max_set_flow, solve_te_mf

from conftest import random_directed, random_undirected


def _set_flow_signature(net, W):
    sol = max_set_flow(net, W)
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
            out[f"{b.name} {','.join(W)}"] = _set_flow_signature(net, W)
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
        out[f"{trial} {','.join(W)}"] = _set_flow_signature(net, W)
    return out


PINNED_BUILTINS = {
    "augmenting-undirected s": "optimal 9 9",
    "augmenting-undirected u": "optimal 11 7",
    "augmenting-undirected v": "optimal 11 8",
    "augmenting-undirected w": "optimal 10 3",
    "augmenting-undirected x": "optimal 12 8",
    "augmenting-undirected t": "optimal 13 9",
    "fig8-undirected s1": "optimal 28 2",
    "fig8-undirected s2": "optimal 29 2",
    "fig8-undirected s3": "optimal 37 3",
    "fig8-undirected t1": "optimal 40 2",
    "fig8-undirected t2": "optimal 39 3",
    "fig8-undirected t3": "optimal 40 2",
    "fig8-undirected v1": "optimal 29 2",
    "fig8-undirected v2": "optimal 35 3",
    "fig8-undirected v3": "optimal 37 3",
    "fig8-undirected v4": "optimal 38 2",
    "fig8-undirected s1,s2,s3": "optimal 88 3",
    "wst-undirected w": "optimal 3 1/2",
    "wst-undirected s": "optimal 3 1",
    "wst-undirected t": "optimal 4 1",
}

PINNED_RANDOM = {
    "0 n2,n3": "optimal 11 2",
    "1 n3,n5": "optimal 18 2",
    "2 n0": "optimal 7 2",
    "3 n0": "optimal 15 4",
    "4 n2": "optimal 16 5",
    "5 n1": "optimal 4 1",
    "6 n2,n0": "optimal 11 2",
    "7 n1": "optimal 8 2",
    "8 n1": "optimal 4 1",
    "9 n3,n1": "optimal 13 7",
    "10 n3": "optimal 7 2",
    "11 n3": "optimal 18 7",
    "12 n3,n4": "optimal 28 3",
    "13 n3,n1": "optimal 11 1",
    "14 n3": "optimal 10 1",
    "15 n1,n3": "optimal 32 4",
    "16 n3": "optimal 17 7/2",
    "17 n1,n0": "optimal 22 6",
    "18 n3": "optimal 11 2",
    "19 n1": "optimal 18 6",
    "20 n3": "optimal 22 2",
    "21 n1": "optimal 9 2",
    "22 n2,n3": "optimal 24 3",
    "23 n2": "optimal 10 6",
    "24 n3": "optimal 5 1",
    "25 n0": "optimal 10 5",
    "26 n1": "optimal 13 3",
    "27 n2": "optimal 7 6",
    "28 n1": "optimal 6 2",
    "29 n3,n0": "optimal 24 10",
    "30 n2,n0": "optimal 10 4",
    "31 n2,n1": "optimal 15 4",
    "32 n2": "optimal 11 5",
    "33 n1,n0": "optimal 8 0",
    "34 n2": "optimal 10 2",
    "35 n2": "optimal 12 0",
    "36 n3": "optimal 33 15/2",
    "37 n1,n0": "optimal 34 9",
    "38 n4,n1": "optimal 9 3",
    "39 n0": "optimal 6 3",
}


def test_transform_pinned_on_undirected_builtins():
    assert _builtin_signatures() == PINNED_BUILTINS


def test_transform_pinned_on_random_instances():
    assert _random_signatures() == PINNED_RANDOM


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
