"""Property test for PathConstraint (skipped without hypothesis): every
combination of designated set, simple and single_use enumerates exactly the
walks of the independent recursive oracle, on directed and undirected
networks, or raises CapExceeded when the search passes its step cap."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nodeflow import (CapExceeded, FlowNetwork, PathConstraint,  # noqa: E402
                      enumerate_st_paths, network)

from conftest import oracle_walks  # noqa: E402

NODES = ["a", "b", "c", "d", "e"]
DEFAULT_CAP = network.WALK_STEP_CAP


@st.composite
def instances(draw):
    """(net, s, t, W): three to five nodes, at most six unit edges and no
    parallel ones, so a node sequence names one walk; W has up to two nodes,
    endpoints included."""
    directed = draw(st.booleans())
    nodes = NODES[:draw(st.integers(3, 5))]
    pairs = [(a, b) for a in nodes for b in nodes
             if a != b and (directed or a < b)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=2,
                          max_size=6))
    s, t = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2,
                         unique=True))
    W = draw(st.lists(st.sampled_from(nodes), unique=True, max_size=2))
    net = FlowNetwork.build("directed" if directed else "undirected", nodes,
                            [(a, b, 1) for a, b in edges])
    return net, s, t, tuple(W)


@settings(max_examples=120, deadline=None)
@given(inst=instances(), simple=st.booleans(), single_use=st.booleans(),
       cap=st.integers(0, 40) | st.just(DEFAULT_CAP))
def test_enumeration_matches_oracle_for_every_constraint(inst, simple,
                                                         single_use, cap):
    # Each kept walk ends on a step of its own, so a search that keeps more
    # walks than the cap allows steps must pass the cap.
    net, s, t, W = inst
    constraint = PathConstraint(W, simple, single_use)
    expected = oracle_walks(net, s, t, through=W, simple=simple,
                            single_use=single_use)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "WALK_STEP_CAP", cap)
        try:
            fam = enumerate_st_paths(net, s, t, constraint)
        except CapExceeded as exc:
            assert str(exc) == f"walk search passed {cap} steps"
            assert cap != DEFAULT_CAP
            return
    assert len(expected) <= cap
    assert fam.constraint == constraint
    walks = [p.nodes for p in fam.paths]
    assert len(walks) == len(set(walks))
    assert set(walks) == expected
