"""Built-in example instances.

Small networks whose node-constrained behavior is interesting: heuristic
gaps, cut gaps, fractional optima, segment-routing loops, and a group-flow
family that defeats both greedy selection and submodularity arguments.  Each
entry records the headline value the instance is known for; the test suite
pins all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fileio import Instance
from .network import FlowNetwork


@dataclass(kw_only=True)
class BuiltinInstance(Instance):
    """An instance of the catalog, with its name, description and headline."""

    name: str
    description: str
    headline: str


def _figadd():
    net = FlowNetwork.build(
        "directed", ["s", "w", "t"],
        [("s", "w", 1), ("w", "s", 1), ("s", "t", 1)],
        [("s", "t", 1)])
    return BuiltinInstance(
        net, designated={"w": "w"}, name="figadd",
        description="A node-constrained flow of 1 exists (via the walk "
        "s,w,s,t) although no simple path visits w.",
        headline="w-flow 1; no simple path through w")


def _remarks(cap):
    big = 3 * cap + 1
    net = FlowNetwork.build(
        "directed", ["s", "u", "v", "w", "t"],
        [("s", "w", cap), ("w", "t", cap), ("u", "v", cap),
         ("s", "u", big), ("w", "u", big), ("v", "w", big), ("v", "t", big)],
        [("s", "t", None)])
    return net


def _remarks2():
    net = _remarks(2)
    return BuiltinInstance(
        net, designated={"w": "w"}, name="remarks",
        description="Three-bottleneck graph: the augmenting heuristic can "
        "stall at 2 while the optimum is 3, and the best s-w-t edge cut is 4.",
        headline="w-flow 3; heuristic 2; min s-w-t cut 4")


def _remarks_unit():
    net = _remarks(1)
    return BuiltinInstance(
        net, designated={"w": "w"}, name="remarks-unit",
        description="Unit-capacity variant: the optimum drops to 3/2, so "
        "integral routings cannot be optimal.",
        headline="w-flow 3/2")


def _wst_undirected():
    net = FlowNetwork.build(
        "undirected", ["w", "s", "t"],
        [("w", "s", 1), ("s", "t", 1)],
        [("s", "t", None)])
    return BuiltinInstance(
        net, designated={"w": "w"}, name="wst-undirected",
        description="Undirected chain w-s-t: the only way through w doubles "
        "back over the w-s edge, halving the flow to 1/2.",
        headline="w-flow 1/2")


def _augmenting_undirected():
    big = 7
    net = FlowNetwork.build(
        "undirected", ["s", "u", "v", "w", "x", "t"],
        [("s", "v", big), ("v", "w", 2), ("w", "x", 2), ("x", "t", big),
         ("s", "u", big), ("u", "v", big), ("w", "t", 2), ("s", "x", big)],
        [("s", "t", None)])
    return BuiltinInstance(
        net, designated={"w": "w"}, name="augmenting-undirected",
        description="Undirected instance where greedy augmentation stalls at "
        "2; three mutually overlapping unit paths reach the optimum of 3.",
        headline="w-flow 3; greedy 2")


def _cycle(n):
    mids = [f"u{i}" for i in range(1, n)]
    edges = [("s", mids[0], 2)]
    # first chain edge is the capacity-1 bottleneck both segments must share
    edges += [(mids[i], mids[i + 1], 1 if i == 0 else 2)
              for i in range(len(mids) - 1)]
    edges += [(mids[-1], "w", 2), ("w", mids[0], 2), (mids[-1], "t", 2)]
    net = FlowNetwork.build("directed", ["s"] + mids + ["w", "t"], edges,
                            [("s", "t", 1)])
    return BuiltinInstance(
        net, middlepoints=("w",), name=f"cycle-{n}",
        description="Unique shortest paths s~w and w~t overlap on the shared "
        "edge u1→u2, so the tunnel through w doubles its load there and is "
        "cyclic.  With every tunnel forced through w theta* is 2; the direct "
        "tunnel s~t crosses u1→u2 once and gives 1.",
        headline="SR min utilization 1 (2 when every tunnel must use w); "
        "tunnel cycle on the shared edge u1→u2")


def _fig8(orientation):
    big = 5
    net = FlowNetwork.build(
        orientation,
        ["s1", "s2", "s3", "t1", "t2", "t3", "v1", "v2", "v3", "v4"],
        [("s1", "v1", big), ("v1", "v2", 2), ("v2", "v3", big),
         ("v3", "v4", 2), ("v4", "t1", big), ("s2", "v1", big),
         ("v2", "t2", big), ("s3", "v3", big), ("v4", "t3", big)],
        [("s1", "t1", 2), ("s2", "t2", 1), ("s3", "t3", 1)])
    suffix = "" if orientation == "directed" else "-undirected"
    return BuiltinInstance(
        net, designated={"group": ("s1", "s2", "s3")}, name=f"fig8{suffix}",
        description="Three commodities over two capacity-2 bottlenecks: the "
        "standard non-submodularity counterexample for group flow"
        + (".  " if net.directed else ", over no-repeat paths only (with "
           "opposite-direction reuse s3 gains 1 at {s1} and at {s1,s2}).  ")
        + "No single node intercepts more than 2 of the 3 units the network "
        "can carry.",
        headline="GF({s1})=2, GF({s1,s2})=2, GF({s1,s2,s3})=3; best single "
        "group 2")


_BUILDERS = {
    "figadd": _figadd,
    "remarks": _remarks2,
    "remarks-unit": _remarks_unit,
    "wst-undirected": _wst_undirected,
    "augmenting-undirected": _augmenting_undirected,
    "cycle-3": lambda: _cycle(3),
    "cycle-4": lambda: _cycle(4),
    "fig8": lambda: _fig8("directed"),
    "fig8-undirected": lambda: _fig8("undirected"),
}


def catalog():
    return [get_builtin(name) for name in sorted(_BUILDERS)]


def get_builtin(name: str) -> BuiltinInstance:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"no builtin instance named {name!r}") from None
