import random

from nodeflow import TruncatedFamily, max_coverage_gadget, n_group_max_flow

from conftest import random_directed
from reduction_checks import (check_disjoint_shortest_paths,
                              check_max_coverage, check_node_split,
                              check_two_disjoint_paths, check_unit_path,
                              max_coverage_brute)


def _sample_distinct(rng, nodes, k):
    return rng.sample(sorted(nodes), k)


def test_two_disjoint_paths_checker_both_outcomes():
    rng = random.Random(103)
    outcomes = set()
    checked = 0
    while checked < 25:
        net = random_directed(rng, n_nodes=rng.randint(4, 6),
                              n_edges=rng.randint(4, 9), n_commodities=1)
        u1, u2, v1, v2 = _sample_distinct(rng, net.nodes, 4)
        result = check_two_disjoint_paths(net, u1, u2, v1, v2)
        assert result.consistent, checked
        outcomes.add(result.direct)
        checked += 1
    assert outcomes == {True, False}


def test_node_split_checker_both_outcomes():
    rng = random.Random(107)
    outcomes = set()
    checked = 0
    while checked < 25:
        net = random_directed(rng, n_nodes=rng.randint(4, 6),
                              n_edges=rng.randint(4, 9), n_commodities=1)
        s, w, t = _sample_distinct(rng, net.nodes, 3)
        result = check_node_split(net, s, w, t)
        assert result.consistent, checked
        outcomes.add(result.direct)
        checked += 1
    assert outcomes == {True, False}


def test_unit_path_checker_both_outcomes():
    rng = random.Random(109)
    outcomes = set()
    checked = 0
    while checked < 25:
        net = random_directed(rng, n_nodes=rng.randint(3, 5),
                              n_edges=rng.randint(3, 7), n_commodities=1)
        s, w, t = _sample_distinct(rng, net.nodes, 3)
        result = check_unit_path(net, s, t, w)
        assert result.consistent, checked
        outcomes.add(result.direct)
        checked += 1
    assert outcomes == {True, False}


def test_checkers_refuse_truncated_families():
    # At cap=1 a checker either answers as with every path or refuses.
    rng = random.Random(113)
    refused = answered = 0
    for _ in range(60):
        net = random_directed(rng, n_nodes=rng.randint(4, 6),
                              n_edges=rng.randint(4, 9), n_commodities=1)
        u1, u2, v1, v2 = _sample_distinct(rng, net.nodes, 4)
        for check, args in ((check_two_disjoint_paths, (u1, u2, v1, v2)),
                            (check_node_split, (u1, u2, v1)),
                            (check_unit_path, (u1, v1, u2))):
            full = check(net, *args)
            try:
                capped = check(net, *args, cap=1)
            except TruncatedFamily:
                refused += 1
                continue
            assert capped == full, (check.__name__, args)
            answered += 1
    assert refused > 0 and answered > 0


def _random_set_system(rng):
    n_items = rng.randint(1, 4)
    items = [f"i{j}" for j in range(n_items)]
    sets = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, n_items)
        sets.append(tuple(rng.sample(items, size)))
    return items, sets, rng.randint(1, len(sets))


def test_max_coverage_checker():
    rng = random.Random(113)
    for trial in range(25):
        items, sets, n = _random_set_system(rng)
        result = check_max_coverage(items, sets, n)
        assert result.consistent, trial


def test_max_coverage_gadget_group_value():
    items = ["a", "b", "c"]
    sets = [("a", "b"), ("b", "c"), ("c",)]
    gadget = max_coverage_gadget(items, sets, 1)
    assert n_group_max_flow(gadget.network, 1, "brute").value == 2
    assert max_coverage_brute(items, sets, 1) == 2
    assert max_coverage_brute(items, sets, 2) == 3


def test_disjoint_shortest_paths_checker_both_outcomes():
    rng = random.Random(127)
    outcomes = set()
    checked = 0
    while checked < 25:
        net = random_directed(rng, n_nodes=rng.randint(4, 6),
                              n_edges=rng.randint(5, 10), n_commodities=1)
        k = rng.choice((2, 2, 3))
        if len(net.nodes) < 2 * k:
            continue
        chosen = _sample_distinct(rng, net.nodes, 2 * k)
        pairs = list(zip(chosen[::2], chosen[1::2]))
        result = check_disjoint_shortest_paths(net, pairs)
        assert result.consistent, checked
        outcomes.add(result.direct)
        checked += 1
    assert outcomes == {True, False}
