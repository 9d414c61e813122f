import hashlib
import random

import pytest

from nodeflow import (UNCONSTRAINED, CapExceeded, FlowNetwork, MalformedNetwork,
                      MissingDesignation, PathConstraint, UnknownNode, catalog, concat_walks,
                      enumerate_st_paths, get_builtin, network, reverse_walk,
                      through_any, validate_walk)
from nodeflow.network import EdgeWalk, _iter_walks

from conftest import oracle_walks, random_directed, random_undirected


def test_build_rejects_self_loop():
    with pytest.raises(MalformedNetwork):
        FlowNetwork.build("directed", ["a"], [("a", "a", 1)])


def test_build_rejects_duplicate_nodes():
    with pytest.raises(MalformedNetwork):
        FlowNetwork.build("directed", ["a", "a", "b"], [("a", "b", 1)])


def test_build_rejects_unknown_endpoint():
    with pytest.raises(UnknownNode):
        FlowNetwork.build("directed", ["a", "b"], [("a", "c", 1)])


def test_build_rejects_negative_capacity():
    with pytest.raises(MalformedNetwork):
        FlowNetwork.build("directed", ["a", "b"], [("a", "b", -1)])


@pytest.mark.parametrize("commodity", [("a", "b", -1), ("a", "b", 2, -1),
                                       ("a", "b", None, -1), ("a", "b", 1, 2)])
def test_build_rejects_negative_demands_and_floor_above_ceiling(commodity):
    with pytest.raises(MalformedNetwork):
        FlowNetwork.build("directed", ["a", "b"], [("a", "b", 1)], [commodity])


def test_build_accepts_zero_demands_and_floor_up_to_ceiling():
    net = FlowNetwork.build("directed", ["a", "b"], [("a", "b", 1)],
                            [("a", "b", 0), ("a", "b", 2, 2), ("a", "b", None, 3)])
    assert [c.effective_min() for c in net.commodities] == [0, 2, 3]


def test_build_rejects_bad_orientation():
    with pytest.raises(MalformedNetwork):
        FlowNetwork.build("sideways", ["a", "b"], [("a", "b", 1)])


def test_enumeration_matches_oracle_directed():
    rng = random.Random(11)
    for _ in range(40):
        net = random_directed(rng, n_commodities=1)
        com = net.commodities[0]
        fam = enumerate_st_paths(net, com.source, com.sink)
        assert {p.nodes for p in fam.paths} == \
            oracle_walks(net, com.source, com.sink)


def test_constraint_factories_build_one_value():
    assert UNCONSTRAINED == PathConstraint()
    assert through_any(["w"]) == PathConstraint(("w",))
    assert through_any(["w"], single_use=True) == \
        PathConstraint(("w",), single_use=True)
    assert through_any(["b", "a", "b"]) == PathConstraint(("a", "b"))
    assert through_any(["w"], simple=True) == PathConstraint(("w",), simple=True)
    assert through_any(["b", "a", "b"], simple=True) == \
        PathConstraint(("a", "b"), simple=True)
    with pytest.raises(MissingDesignation):
        through_any([])


def test_require_names_the_first_unknown_node():
    net = get_builtin("remarks").network
    net.require()
    net.require("s", "w", "t")
    with pytest.raises(UnknownNode, match="^node 'zz' not in network$"):
        net.require("s", "zz", "yy")


def test_walk_search_outruns_the_recursion_limit():
    # A directed chain longer than the interpreter's recursion limit has
    # exactly one walk end to end.
    nodes = [f"v{i}" for i in range(1200)]
    net = FlowNetwork.build("directed", nodes,
                            [(a, b, 1) for a, b in zip(nodes, nodes[1:])])
    fam = enumerate_st_paths(net, "v0", "v1199", through_any(["v600"]))
    assert len(fam) == 1 and fam.paths[0].nodes == tuple(nodes)


def test_walks_may_revisit_nodes_but_not_edges():
    net = get_builtin("figadd").network
    fam = enumerate_st_paths(net, "s", "t", through_any(["w"]))
    assert any(len(set(p.nodes)) < len(p.nodes) for p in fam.paths)
    simple = enumerate_st_paths(net, "s", "t", through_any(["w"], simple=True))
    assert len(simple) == 0


def test_undirected_edge_opposite_directions_only():
    net = get_builtin("wst-undirected").network
    fam = enumerate_st_paths(net, "s", "t", through_any(["w"]))
    assert {p.nodes for p in fam.paths} == {("s", "w", "s", "t")}
    norep = enumerate_st_paths(net, "s", "t",
                               through_any(["w"], single_use=True))
    assert len(norep) == 0


def test_through_any():
    net = get_builtin("fig8").network
    fam = enumerate_st_paths(net, "s1", "t1", through_any(["s2", "s3"]))
    assert len(fam) == 0  # s2 and s3 are sources with no inbound edges


def test_cap_truncates(monkeypatch):
    # remarks' s->t search keeps 5 walks in 13 steps; one step fewer refuses
    # the family rather than truncate it.
    net = get_builtin("remarks").network
    monkeypatch.setattr(network, "WALK_STEP_CAP", 13)
    assert len(enumerate_st_paths(net, "s", "t")) == 5
    monkeypatch.setattr(network, "WALK_STEP_CAP", 12)
    with pytest.raises(CapExceeded, match="walk search passed 12 steps"):
        enumerate_st_paths(net, "s", "t")


def test_validate_accepts_enumerated_walks():
    rng = random.Random(17)
    for _ in range(10):
        net = random_undirected(rng, n_commodities=1)
        com = net.commodities[0]
        for walk in enumerate_st_paths(net, com.source, com.sink).paths:
            check = validate_walk(net, walk)
            assert check.valid, check


def test_validate_rejects_edge_reuse():
    net = FlowNetwork.build("directed", ["a", "b", "c"],
                            [("a", "b", 1), ("b", "a", 1)])
    bad = EdgeWalk(("a", "b", "a", "b"), ((0, 1), (1, 1), (0, 1)))
    assert not validate_walk(net, bad).valid


def test_concat_and_reverse():
    net = get_builtin("remarks").network
    sw = enumerate_st_paths(net, "s", "w").paths[0]
    wt = enumerate_st_paths(net, "w", "t").paths[0]
    joined = concat_walks(sw, wt)
    assert joined.nodes[0] == "s" and joined.nodes[-1] == "t"
    und = get_builtin("wst-undirected").network
    walk = enumerate_st_paths(und, "s", "t").paths[0]
    rev = reverse_walk(walk)
    assert rev.nodes == tuple(reversed(walk.nodes))
    assert validate_walk(und, rev).valid


def test_edge_ids_dense():
    with pytest.raises(MalformedNetwork):
        from nodeflow.network import Edge
        FlowNetwork("directed", ("a", "b"),
                    (Edge(1, "a", "b", 1),), ())


def _walk_order_networks():
    nets = [b.network for b in catalog()]
    rng = random.Random(2026)
    for _ in range(16):
        nets.append(random_directed(rng, n_nodes=rng.randint(4, 6),
                                    n_edges=rng.randint(6, 11)))
        nets.append(random_undirected(rng, n_nodes=rng.randint(4, 6),
                                      n_edges=rng.randint(4, 8)))
    return nets


# Walk count and SHA-256 of every walk's (nodes, steps), in search order,
# over every ordered pair of _walk_order_networks() in plain, simple and
# single_use mode.  Recorded from the search that allocated a step tuple per
# DFS step, before the steps were shared.
PINNED_WALK_ORDER = (
    235005, "4e917ca8627cc342baa8b960da879be1ccb0c8ae0e2e771d1ecb8b0692021583")


def test_walk_order_pinned():
    digest = hashlib.sha256()
    count = 0
    for net in _walk_order_networks():
        for s in net.nodes:
            for t in net.nodes:
                if s == t:
                    continue
                for simple, single_use in ((False, False), (True, False),
                                           (False, True)):
                    digest.update(f"{s}>{t}:{simple},{single_use};".encode())
                    for walk in _iter_walks(net, s, t, simple, single_use):
                        digest.update(repr((walk.nodes, walk.steps)).encode())
                        count += 1
    assert (count, digest.hexdigest()) == PINNED_WALK_ORDER


def test_step_cap_counts_arcs_and_keeps_walk_order(monkeypatch):
    # The bounded search yields the unbounded one's walks, in order.  A step
    # extends a walk by one arc, so a search from s takes one step per
    # edge-distinct walk out of s, wherever it ends (s included): it
    # finishes with that many steps allowed and stops with one fewer.
    modes = ((False, False), (True, False), (False, True))
    searches = [(b.network, s, t, simple, single_use) for b in catalog()
                for s in b.network.nodes for t in b.network.nodes if s != t
                for simple, single_use in modes]
    capped = [list(_iter_walks(*search)) for search in searches]
    monkeypatch.setattr(network, "WALK_STEP_CAP", None)
    assert [list(_iter_walks(*search)) for search in searches] == capped
    net = get_builtin("remarks").network
    steps = sum(len(list(_iter_walks(net, "s", v, False, False)))
                for v in net.nodes)
    monkeypatch.setattr(network, "WALK_STEP_CAP", steps)
    assert len(list(_iter_walks(net, "s", "t", False, False))) == 5
    monkeypatch.setattr(network, "WALK_STEP_CAP", steps - 1)
    with pytest.raises(CapExceeded, match=f"passed {steps - 1} steps"):
        list(_iter_walks(net, "s", "t", False, False))


def test_walks_share_step_tuples():
    # Walks of two separate searches that cross one arc hold one step object.
    net = get_builtin("augmenting-undirected").network
    walks = (enumerate_st_paths(net, net.nodes[0], net.nodes[-1]).paths
             + enumerate_st_paths(net, net.nodes[-1], net.nodes[0]).paths)
    first = {}
    occurrences = 0
    for walk in walks:
        for step in walk.steps:
            assert first.setdefault(step, step) is step
            occurrences += 1
    assert occurrences > 10 * len(first)
