"""Property test for acyclic segment-routing feasibility (skipped without
hypothesis).

acyclic_feasible searches the segments' shortest-path arcs depth first; the
oracle in reduction_checks tries the cartesian product of every segment's
shortest paths in step order.  Wherever the oracle answers under its cap,
the two must agree on feasibility and on the witness.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from nodeflow import CapExceeded, FlowNetwork, acyclic_feasible  # noqa: E402

from reduction_checks import acyclic_feasible_product  # noqa: E402


@st.composite
def chains(draw):
    """(net, chain, mode).  The network is directed or undirected: either 3-6
    nodes with 3-16 random edges, or a grid of side 2-4 plus up to 3 chords
    (each edge turned at random when directed).  Lengths are all 1 or drawn
    from 1-2, so shortest paths tie, and sparse draws leave some segments
    unreachable.  The chain has 2-5 distinct nodes (0-3 middlepoints)."""
    if draw(st.booleans()):
        nodes = [f"n{i}" for i in range(draw(st.integers(3, 6)))]
        ends = draw(st.lists(st.sampled_from([(a, b) for a in nodes for b in nodes
                                              if a != b]),
                             min_size=3, max_size=16))
    else:
        side = draw(st.integers(2, 4))
        nodes = [f"v{i}{j}" for i in range(side) for j in range(side)]
        ends = [(f"v{i}{j}", f"v{i}{j + 1}") for i in range(side) for j in range(side - 1)]
        ends += [(f"v{j}{i}", f"v{j + 1}{i}") for i in range(side) for j in range(side - 1)]
        ends += draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
                              .filter(lambda e: e[0] != e[1]), max_size=3))
    directed = draw(st.booleans())
    if directed:
        ends = [(b, a) if draw(st.booleans()) else (a, b) for a, b in ends]
    length = st.integers(1, 2) if draw(st.booleans()) else st.just(1)
    net = FlowNetwork.build("directed" if directed else "undirected", nodes,
                            [(a, b, 1, draw(length)) for a, b in ends])
    chain = draw(st.lists(st.sampled_from(nodes), min_size=2,
                          max_size=min(5, len(nodes)), unique=True))
    return net, chain, draw(st.sampled_from(["path", "simple_path"]))


@settings(max_examples=300, deadline=None)
@given(case=chains())
def test_search_matches_the_product(case):
    net, chain, mode = case
    args = (net, chain[0], chain[-1], chain[1:-1], mode)
    try:
        want = acyclic_feasible_product(*args)
    except CapExceeded:
        assume(False)
    got = acyclic_feasible(*args)
    assert (got.feasible, got.witness) == (want.feasible, want.witness)
