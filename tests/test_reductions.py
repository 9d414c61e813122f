"""Property tests for the reduction checkers (skipped without hypothesis).

Each checker decides a source problem directly and through its gadget; the
properties draw small directed networks, in the size ranges of
conftest.random_directed, and require the two answers to agree.  The
*_both_outcomes tests find a drawn case with each answer, so the properties
are not passing on one kind of instance only.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import (Phase, assume, find, given, settings,  # noqa: E402
                        strategies as st)

from nodeflow import (CapExceeded, FlowNetwork,  # noqa: E402
                      max_coverage_gadget, n_group_max_flow, network)

from reduction_checks import (check_disjoint_shortest_paths,  # noqa: E402
                              check_max_coverage, check_node_split,
                              check_two_disjoint_paths, check_unit_path,
                              max_coverage_brute)

# find() tries this many cases before it reports that no case has the
# asked-for answer, and does not shrink the one it finds.
FIND = settings(max_examples=200, deadline=None, database=None,
                phases=[Phase.generate])


@st.composite
def directed_cases(draw, n_nodes, n_edges, n_terminals):
    """(net, terminals): a network drawn as conftest.random_directed draws
    one (nodes n0.., distinct arcs of capacity 1-4, one unbounded
    commodity) with its node and arc counts in the given ranges, and
    n_terminals distinct nodes of it."""
    n = draw(st.integers(*n_nodes))
    assume(n >= n_terminals)
    nodes = [f"n{i}" for i in range(n)]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    lo, hi = (min(m, len(pairs)) for m in n_edges)
    arcs = draw(st.lists(st.sampled_from(pairs), min_size=lo, max_size=hi,
                         unique=True))
    edges = [(a, b, draw(st.integers(1, 4))) for a, b in arcs]
    s, t = draw(st.sampled_from(pairs))
    net = FlowNetwork.build("directed", nodes, edges, [(s, t, None)])
    terminals = draw(st.lists(st.sampled_from(nodes), min_size=n_terminals,
                              max_size=n_terminals, unique=True))
    return net, terminals


TWO_DISJOINT = directed_cases((4, 6), (4, 9), 4)
NODE_SPLIT = directed_cases((4, 6), (4, 9), 3)
UNIT_PATH = directed_cases((3, 5), (3, 7), 3)
# k = 2 twice as often as k = 3; six nodes are needed for three pairs.
SHORTEST_PAIRS = st.sampled_from((2, 2, 3)).flatmap(
    lambda k: directed_cases((4, 6), (5, 10), 2 * k))


def two_disjoint(case):
    net, (u1, u2, v1, v2) = case
    return check_two_disjoint_paths(net, u1, u2, v1, v2)


def node_split(case):
    net, (s, w, t) = case
    return check_node_split(net, s, w, t)


def unit_path(case):
    net, (s, w, t) = case
    return check_unit_path(net, s, t, w)


def shortest_pairs(case):
    net, chosen = case
    return check_disjoint_shortest_paths(net, list(zip(chosen[::2], chosen[1::2])))


def _both_outcomes(check, cases):
    for want in (True, False):
        case = find(cases, lambda c: check(c).direct is want, settings=FIND)
        assert check(case).consistent, want


@settings(max_examples=25, deadline=None)
@given(case=TWO_DISJOINT)
def test_two_disjoint_paths_checker_consistent(case):
    assert two_disjoint(case).consistent


def test_two_disjoint_paths_checker_both_outcomes():
    _both_outcomes(two_disjoint, TWO_DISJOINT)


@settings(max_examples=25, deadline=None)
@given(case=NODE_SPLIT)
def test_node_split_checker_consistent(case):
    assert node_split(case).consistent


def test_node_split_checker_both_outcomes():
    _both_outcomes(node_split, NODE_SPLIT)


@settings(max_examples=25, deadline=None)
@given(case=UNIT_PATH)
def test_unit_path_checker_consistent(case):
    assert unit_path(case).consistent


def test_unit_path_checker_both_outcomes():
    _both_outcomes(unit_path, UNIT_PATH)


@settings(max_examples=25, deadline=None)
@given(case=SHORTEST_PAIRS)
def test_disjoint_shortest_paths_checker_consistent(case):
    assert shortest_pairs(case).consistent


def test_disjoint_shortest_paths_checker_both_outcomes():
    _both_outcomes(shortest_pairs, SHORTEST_PAIRS)


def _capped_checks(case):
    """(full, capped) per checker on the case's four nodes; capped is None
    where a walk-search step cap of 1 refuses the check."""
    net, (u1, u2, v1, v2) = case
    out = []
    for check, args in ((check_two_disjoint_paths, (u1, u2, v1, v2)),
                        (check_node_split, (u1, u2, v1)),
                        (check_unit_path, (u1, v1, u2))):
        full = check(net, *args)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "WALK_STEP_CAP", 1)
            try:
                capped = check(net, *args)
            except CapExceeded:
                capped = None
        out.append((full, capped))
    return out


@settings(max_examples=60, deadline=None)
@given(case=TWO_DISJOINT)
def test_checkers_refuse_truncated_families(case):
    # At a step cap of 1 a checker either answers as uncapped or refuses.
    for full, capped in _capped_checks(case):
        assert capped is None or capped == full


def test_cap_one_both_refuses_and_answers():
    find(TWO_DISJOINT, lambda c: any(capped is None for _, capped in _capped_checks(c)),
         settings=FIND)
    find(TWO_DISJOINT, lambda c: any(capped is not None for _, capped in _capped_checks(c)),
         settings=FIND)


@st.composite
def set_systems(draw):
    """(items, sets, n): 1-4 items, 1-4 sets of 1 to all items each, and n
    from 1 to the number of sets."""
    items = [f"i{j}" for j in range(draw(st.integers(1, 4)))]
    one_set = st.lists(st.sampled_from(items), min_size=1, max_size=len(items),
                       unique=True).map(tuple)
    sets = draw(st.lists(one_set, min_size=1, max_size=4))
    return items, sets, draw(st.integers(1, len(sets)))


@settings(max_examples=25, deadline=None)
@given(system=set_systems())
def test_max_coverage_checker(system):
    assert check_max_coverage(*system).consistent


def test_max_coverage_gadget_group_value():
    items = ["a", "b", "c"]
    sets = [("a", "b"), ("b", "c"), ("c",)]
    gadget = max_coverage_gadget(items, sets)
    assert n_group_max_flow(gadget.network, 1, "brute").value == 2
    assert max_coverage_brute(items, sets, 1) == 2
    assert max_coverage_brute(items, sets, 2) == 3
