"""The route-column program behind the path and tunnel formulations, pinned.

te-mf, te-lu, sr-mf and sr-lu all solve one program whose columns are
per-commodity routes (walks or segment-routing tunnels).  Exact arithmetic
makes each solve a pure function of that program, so the status, pivot
count, objective, theta and every nonzero flow are pinned on every builtin
and on a seeded random set.  They were recorded from the three separate
builders the shared one replaced, and re-recorded when dominated columns
lost their variables and again when min-load became a maximum concurrent
flow (no status, objective or theta moved).  The pruning itself is checked
against the program over every distinct column, built here directly; for
min-load that program is the LP dual of the theta program.
"""

import random

import pytest

from nodeflow import (INFEASIBLE, FlowNetwork, InfiniteDemand, SrConfig,
                      catalog, enumerate_paths, rat, solve_sr_lu,
                      solve_sr_mf, solve_te_lu, solve_te_mf, through_any)
from nodeflow import lp as lpmod
from nodeflow.srte import _tunnel_column, build_tunnels
from nodeflow.te import solve_columns

_lp_solve = lpmod.solve

from conftest import min_load_dual, random_directed, random_undirected, vector


def _walk_str(walk):
    return ",".join(f"{eid}{'+' if d > 0 else '-'}" for eid, d in walk.steps)


def _te_signature(solve, net):
    try:
        sol = solve(net)
    except InfiniteDemand:
        return "InfiniteDemand"
    flows = " ".join(f"{i}:{_walk_str(walk)}={f}"
                     for i, entries in sol.flows.items() for walk, f in entries)
    return f"{sol.status} {sol.pivots} {sol.objective} {sol.theta} | {flows}"


def _sr_signature(solve, net, mids, max_segments):
    try:
        sol, _ = solve(net, SrConfig(mids, max_segments))
    except InfiniteDemand:
        return "InfiniteDemand"
    flows = " ".join(f"{i}:{','.join(t.middlepoints) or '-'}={f}"
                     for i, entries in sol.flows.items() for t, f in entries)
    return f"{sol.status} {sol.pivots} {sol.objective} {sol.theta} | {flows}"


def _inner_nodes(net):
    ends = {c.source for c in net.commodities} | {c.sink for c in net.commodities}
    return tuple(v for v in net.nodes if v not in ends)


def _signatures(name, net, mids):
    out = {f"{name} te-mf": _te_signature(solve_te_mf, net),
           f"{name} te-lu": _te_signature(solve_te_lu, net)}
    for m in (1, 2):
        out[f"{name} sr-mf M={m}"] = _sr_signature(solve_sr_mf, net, mids, m)
        out[f"{name} sr-lu M={m}"] = _sr_signature(solve_sr_lu, net, mids, m)
    return out


def _builtin_signatures():
    out = {}
    for b in catalog():
        mids = b.middlepoints or _inner_nodes(b.network)
        out.update(_signatures(b.name, b.network, mids))
    return out


def _random_signatures():
    """Small directed and undirected instances, two in three with finite
    demands (directed ones also with lower required amounts), middlepoints a
    random ordered draw of up to three nodes."""
    rng = random.Random(4111)
    out = {}
    for trial in range(30):
        finite = trial % 3 != 0
        if trial % 2:
            net = random_directed(rng, n_commodities=rng.randint(1, 2),
                                  finite_demands=finite, min_demands=finite)
        else:
            net = random_undirected(rng, n_nodes=rng.randint(3, 5),
                                    n_edges=rng.randint(3, 6),
                                    n_commodities=rng.randint(1, 2),
                                    finite_demands=finite)
        mids = tuple(rng.sample(net.nodes, min(3, len(net.nodes))))
        out.update(_signatures(f"random-{trial:02}", net, mids))
    return out


PINNED_BUILTINS = {
    "augmenting-undirected sr-lu M=1": "InfiniteDemand",
    "augmenting-undirected sr-lu M=2": "InfiniteDemand",
    "augmenting-undirected sr-mf M=1": "optimal 3 9 None | 0:-=5 0:u=4",
    "augmenting-undirected sr-mf M=2": "optimal 3 9 None | 0:-=5 0:u=4",
    "augmenting-undirected te-lu": "InfiniteDemand",
    "augmenting-undirected te-mf":
        "optimal 4 9 None | 0:0+,1+,2+,3+=1 0:0+,1+,6+=1 0:7+,2-,6+=1 "
        "0:7+,3+=6",
    "cycle-3 sr-lu M=1": "optimal 2 1 1 | 0:-=1",
    "cycle-3 sr-lu M=2": "optimal 2 1 1 | 0:-=1",
    "cycle-3 sr-mf M=1": "optimal 1 1 None | 0:-=1",
    "cycle-3 sr-mf M=2": "optimal 1 1 None | 0:-=1",
    "cycle-3 te-lu": "optimal 2 1 1 | 0:0+,1+,4+=1",
    "cycle-3 te-mf": "optimal 1 1 None | 0:0+,1+,4+=1",
    "cycle-4 sr-lu M=1": "optimal 2 1 1 | 0:-=1",
    "cycle-4 sr-lu M=2": "optimal 2 1 1 | 0:-=1",
    "cycle-4 sr-mf M=1": "optimal 1 1 None | 0:-=1",
    "cycle-4 sr-mf M=2": "optimal 1 1 None | 0:-=1",
    "cycle-4 te-lu": "optimal 2 1 1 | 0:0+,1+,2+,5+=1",
    "cycle-4 te-mf": "optimal 1 1 None | 0:0+,1+,2+,5+=1",
    "fig8 sr-lu M=1": "optimal 4 3/2 3/2 | 0:-=2 1:-=1 2:-=1",
    "fig8 sr-lu M=2": "optimal 4 3/2 3/2 | 0:-=2 1:-=1 2:-=1",
    "fig8 sr-mf M=1": "optimal 3 3 None | 0:-=1 1:-=1 2:-=1",
    "fig8 sr-mf M=2": "optimal 3 3 None | 0:-=1 1:-=1 2:-=1",
    "fig8 te-lu":
        "optimal 4 3/2 3/2 | 0:0+,1+,2+,3+,4+=2 1:5+,1+,6+=1 2:7+,3+,8+=1",
    "fig8 te-mf":
        "optimal 3 3 None | 0:0+,1+,2+,3+,4+=1 1:5+,1+,6+=1 2:7+,3+,8+=1",
    "fig8-undirected sr-lu M=1": "optimal 4 3/2 3/2 | 0:-=2 1:-=1 2:-=1",
    "fig8-undirected sr-lu M=2": "optimal 4 3/2 3/2 | 0:-=2 1:-=1 2:-=1",
    "fig8-undirected sr-mf M=1": "optimal 3 3 None | 0:-=1 1:-=1 2:-=1",
    "fig8-undirected sr-mf M=2": "optimal 3 3 None | 0:-=1 1:-=1 2:-=1",
    "fig8-undirected te-lu":
        "optimal 4 3/2 3/2 | 0:0+,1+,2+,3+,4+=2 1:5+,1+,6+=1 2:7+,3+,8+=1",
    "fig8-undirected te-mf":
        "optimal 3 3 None | 0:0+,1+,2+,3+,4+=1 1:5+,1+,6+=1 2:7+,3+,8+=1",
    "figadd sr-lu M=1": "optimal 2 1 1 | 0:-=1",
    "figadd sr-lu M=2": "optimal 2 1 1 | 0:-=1",
    "figadd sr-mf M=1": "optimal 1 1 None | 0:-=1",
    "figadd sr-mf M=2": "optimal 1 1 None | 0:-=1",
    "figadd te-lu": "optimal 2 1 1 | 0:2+=1",
    "figadd te-mf": "optimal 1 1 None | 0:2+=1",
    "remarks sr-lu M=1": "InfiniteDemand",
    "remarks sr-lu M=2": "InfiniteDemand",
    "remarks sr-mf M=1": "optimal 2 4 None | 0:-=2 0:u=2",
    "remarks sr-mf M=2": "optimal 2 4 None | 0:-=2 0:u=2",
    "remarks te-lu": "InfiniteDemand",
    "remarks te-mf": "optimal 4 4 None | 0:0+,1+=2 0:3+,2+,6+=2",
    "remarks-unit sr-lu M=1": "InfiniteDemand",
    "remarks-unit sr-lu M=2": "InfiniteDemand",
    "remarks-unit sr-mf M=1": "optimal 2 2 None | 0:-=1 0:u=1",
    "remarks-unit sr-mf M=2": "optimal 2 2 None | 0:-=1 0:u=1",
    "remarks-unit te-lu": "InfiniteDemand",
    "remarks-unit te-mf": "optimal 4 2 None | 0:0+,1+=1 0:3+,2+,6+=1",
    "wst-undirected sr-lu M=1": "InfiniteDemand",
    "wst-undirected sr-lu M=2": "InfiniteDemand",
    "wst-undirected sr-mf M=1": "optimal 1 1 None | 0:-=1",
    "wst-undirected sr-mf M=2": "optimal 1 1 None | 0:-=1",
    "wst-undirected te-lu": "InfiniteDemand",
    "wst-undirected te-mf": "optimal 1 1 None | 0:1+=1",
}

PINNED_RANDOM = {
    "random-00 sr-lu M=1": "InfiniteDemand",
    "random-00 sr-lu M=2": "InfiniteDemand",
    "random-00 sr-mf M=1": "optimal 4 4 None | 0:-=1 0:n4=1 1:-=2",
    "random-00 sr-mf M=2": "optimal 4 4 None | 0:-=1 0:n4=1 1:-=2",
    "random-00 te-lu": "InfiniteDemand",
    "random-00 te-mf":
        "optimal 4 5 None | 0:0+,5-=1 0:1+,2-,4+=1 0:3+=2 1:4-,2+=1",
    "random-01 sr-lu M=1": "optimal 4 1/7 1/7 | 1:-=3/7 1:n1=4/7",
    "random-01 sr-lu M=2": "optimal 4 1/7 1/7 | 1:-=3/7 1:n1=4/7",
    "random-01 sr-mf M=1": "optimal 2 3 None | 0:-=1 1:-=2",
    "random-01 sr-mf M=2": "optimal 2 3 None | 0:-=1 1:-=2",
    "random-01 te-lu": "optimal 5 1/8 1/8 | 1:0+,6+=1/8 1:3+=3/8 1:4+,2+=1/2",
    "random-01 te-mf": "optimal 2 3 None | 0:6+,1+,4+=1 1:3+=2",
    "random-02 sr-lu M=1": "optimal 4 2/3 2/3 | 0:-=1 1:-=8/3 1:n2=1/3",
    "random-02 sr-lu M=2": "optimal 4 2/3 2/3 | 0:-=1 1:-=8/3 1:n2=1/3",
    "random-02 sr-mf M=1": "optimal 2 4 None | 0:-=1 1:-=3",
    "random-02 sr-mf M=2": "optimal 2 4 None | 0:-=1 1:-=3",
    "random-02 te-lu":
        "optimal 6 2/3 2/3 | 0:1+=1/6 0:2-,0+=5/6 1:0+,1-=7/6 1:2+=11/6",
    "random-02 te-mf": "optimal 4 4 None | 0:2-,0+=1 1:0+,1-=2 1:2+=1",
    "random-03 sr-lu M=1": "InfiniteDemand",
    "random-03 sr-lu M=2": "InfiniteDemand",
    "random-03 sr-mf M=1": "optimal 1 1 None | 1:-=1",
    "random-03 sr-mf M=2": "optimal 1 1 None | 1:-=1",
    "random-03 te-lu": "InfiniteDemand",
    "random-03 te-mf": "optimal 1 1 None | 1:2+=1",
    "random-04 sr-lu M=1": "optimal 3 3/2 3/2 | 0:-=3/2 0:n1=3/2",
    "random-04 sr-lu M=2": "optimal 3 3/2 3/2 | 0:-=3/2 0:n1=3/2",
    "random-04 sr-mf M=1": "optimal 2 2 None | 0:-=1 0:n1=1",
    "random-04 sr-mf M=2": "optimal 2 2 None | 0:-=1 0:n1=1",
    "random-04 te-lu": "optimal 3 3/2 3/2 | 0:0+=3/2 0:1+,2+=3/2",
    "random-04 te-mf": "optimal 2 2 None | 0:0+=1 0:1+,2+=1",
    "random-05 sr-lu M=1": "optimal 2 4/3 4/3 | 0:-=4",
    "random-05 sr-lu M=2": "optimal 2 4/3 4/3 | 0:-=4",
    "random-05 sr-mf M=1": "optimal 1 3 None | 0:-=3",
    "random-05 sr-mf M=2": "optimal 1 3 None | 0:-=3",
    "random-05 te-lu": "optimal 2 4/3 4/3 | 0:0+=4",
    "random-05 te-mf": "optimal 1 3 None | 0:0+=3",
    "random-06 sr-lu M=1": "InfiniteDemand",
    "random-06 sr-lu M=2": "InfiniteDemand",
    "random-06 sr-mf M=1":
        "optimal 4 31/4 None | 0:-=1/4 0:n0=5/4 0:n4=9/4 1:-=4",
    "random-06 sr-mf M=2":
        "optimal 4 31/4 None | 0:-=1/4 0:n0=5/4 0:n4=9/4 1:-=4",
    "random-06 te-lu": "InfiniteDemand",
    "random-06 te-mf": "optimal 4 9 None | 0:0+,4-,5+=3 0:2-=2 0:3-,1-=4",
    "random-07 sr-lu M=1": "optimal 1 0 0 | ",
    "random-07 sr-lu M=2": "optimal 1 0 0 | ",
    "random-07 sr-mf M=1": "optimal 2 1 None | 0:-=1",
    "random-07 sr-mf M=2": "optimal 2 1 None | 0:-=1",
    "random-07 te-lu": "optimal 1 0 0 | ",
    "random-07 te-mf": "optimal 2 1 None | 0:3+=1",
    "random-08 sr-lu M=1": "optimal 4 1 1 | 0:-=3 1:-=2 1:n1=1",
    "random-08 sr-lu M=2": "optimal 4 1 1 | 0:-=3 1:-=2 1:n1=1",
    "random-08 sr-mf M=1": "optimal 3 6 None | 0:-=3 1:-=2 1:n1=1",
    "random-08 sr-mf M=2": "optimal 3 6 None | 0:-=3 1:-=2 1:n1=1",
    "random-08 te-lu": "optimal 4 1 1 | 0:1-=3 1:0+=2 1:1+,2+=1",
    "random-08 te-mf": "optimal 3 6 None | 0:1-=3 1:0+=2 1:1+,2+=1",
    "random-09 sr-lu M=1": "InfiniteDemand",
    "random-09 sr-lu M=2": "InfiniteDemand",
    "random-09 sr-mf M=1": "optimal 2 3 None | 0:-=1 1:-=2",
    "random-09 sr-mf M=2": "optimal 2 3 None | 0:-=1 1:-=2",
    "random-09 te-lu": "InfiniteDemand",
    "random-09 te-mf":
        "optimal 4 6 None | 0:0+,1+=1 1:3+,4+,5+=2 1:3+,6+=1 1:7+=2",
    "random-10 sr-lu M=1": "optimal 4 6/7 6/7 | 0:-=2 1:-=24/7 1:n2=4/7",
    "random-10 sr-lu M=2": "optimal 4 6/7 6/7 | 0:-=2 1:-=24/7 1:n2=4/7",
    "random-10 sr-mf M=1": "optimal 3 6 None | 0:-=2 1:-=4",
    "random-10 sr-mf M=2": "optimal 3 6 None | 0:-=2 1:-=4",
    "random-10 te-lu":
        "optimal 6 6/7 6/7 | 0:1-,0+=4/7 0:2+=10/7 1:0+,2-=8/7 1:1+=20/7",
    "random-10 te-mf":
        "optimal 4 6 None | 0:1-,0+=1/2 0:2+=3/2 1:0+,2-=3/2 1:1+=5/2",
    "random-11 sr-lu M=1": "optimal 1 0 0 | ",
    "random-11 sr-lu M=2": "optimal 1 0 0 | ",
    "random-11 sr-mf M=1": "optimal 1 1 None | 0:-=1",
    "random-11 sr-mf M=2": "optimal 1 1 None | 0:-=1",
    "random-11 te-lu": "optimal 1 0 0 | ",
    "random-11 te-mf": "optimal 1 1 None | 0:2+=1",
    "random-12 sr-lu M=1": "InfiniteDemand",
    "random-12 sr-lu M=2": "InfiniteDemand",
    "random-12 sr-mf M=1": "optimal 3 19/3 None | 0:-=8/3 0:n1=2/3 0:n2=3",
    "random-12 sr-mf M=2": "optimal 4 7 None | 0:-=3 0:n2=3 0:n1,n2=1",
    "random-12 te-lu": "InfiniteDemand",
    "random-12 te-mf": "optimal 3 7 None | 0:2+,1+,0+=1 0:3+=3 0:4+,0+=3",
    "random-13 sr-lu M=1": "infeasible 0 None None | ",
    "random-13 sr-lu M=2": "infeasible 0 None None | ",
    "random-13 sr-mf M=1": "optimal 1 1 None | 0:-=1",
    "random-13 sr-mf M=2": "optimal 1 1 None | 0:-=1",
    "random-13 te-lu": "infeasible 0 None None | ",
    "random-13 te-mf": "optimal 1 1 None | 0:1+,0+=1",
    "random-14 sr-lu M=1": "infeasible 0 None None | ",
    "random-14 sr-lu M=2": "infeasible 0 None None | ",
    "random-14 sr-mf M=1": "optimal 0 0 None | ",
    "random-14 sr-mf M=2": "optimal 0 0 None | ",
    "random-14 te-lu": "infeasible 0 None None | ",
    "random-14 te-mf": "optimal 0 0 None | ",
    "random-15 sr-lu M=1": "InfiniteDemand",
    "random-15 sr-lu M=2": "InfiniteDemand",
    "random-15 sr-mf M=1": "optimal 1 3 None | 0:-=3",
    "random-15 sr-mf M=2": "optimal 1 3 None | 0:-=3",
    "random-15 te-lu": "InfiniteDemand",
    "random-15 te-mf": "optimal 1 3 None | 0:0+=3",
    "random-16 sr-lu M=1": "optimal 5 3/2 3/2 | 0:n2=2 1:-=3/2 1:n2=5/2",
    "random-16 sr-lu M=2": "optimal 5 3/2 3/2 | 0:n2=2 1:-=3/2 1:n2=5/2",
    "random-16 sr-mf M=1": "optimal 4 4 None | 0:n2=2 1:-=1 1:n2=1",
    "random-16 sr-mf M=2": "optimal 4 4 None | 0:n2=2 1:-=1 1:n2=1",
    "random-16 te-lu": "optimal 5 3/2 3/2 | 0:1+,2-=2 1:0+=3/2 1:2+,1-=5/2",
    "random-16 te-mf": "optimal 4 4 None | 0:1+,2-=2 1:0+=1 1:2+,1-=1",
    "random-17 sr-lu M=1": "infeasible 0 None None | ",
    "random-17 sr-lu M=2": "infeasible 0 None None | ",
    "random-17 sr-mf M=1": "optimal 0 0 None | ",
    "random-17 sr-mf M=2": "optimal 0 0 None | ",
    "random-17 te-lu": "infeasible 0 None None | ",
    "random-17 te-mf": "optimal 0 0 None | ",
    "random-18 sr-lu M=1": "InfiniteDemand",
    "random-18 sr-lu M=2": "InfiniteDemand",
    "random-18 sr-mf M=1": "optimal 4 6 None | 0:-=3 0:n3=2 1:-=1",
    "random-18 sr-mf M=2": "optimal 4 6 None | 0:-=3 0:n3=2 1:-=1",
    "random-18 te-lu": "InfiniteDemand",
    "random-18 te-mf":
        "optimal 4 7 None | 0:3+,0-,2-=1 0:3+,1-=1 0:5+=4 1:2+,4-=1",
    "random-19 sr-lu M=1": "infeasible 0 None None | ",
    "random-19 sr-lu M=2": "infeasible 0 None None | ",
    "random-19 sr-mf M=1": "optimal 0 0 None | ",
    "random-19 sr-mf M=2": "optimal 0 0 None | ",
    "random-19 te-lu": "infeasible 0 None None | ",
    "random-19 te-mf": "optimal 0 0 None | ",
    "random-20 sr-lu M=1": "optimal 3 1/5 1/5 | 0:-=4/5 0:n1=1/5",
    "random-20 sr-lu M=2": "optimal 3 1/5 1/5 | 0:-=4/5 0:n1=1/5",
    "random-20 sr-mf M=1": "optimal 1 1 None | 0:-=1",
    "random-20 sr-mf M=2": "optimal 1 1 None | 0:-=1",
    "random-20 te-lu": "optimal 3 1/5 1/5 | 0:0+,2+=1/5 0:1+=4/5",
    "random-20 te-mf": "optimal 2 1 None | 0:0+,2+=1",
    "random-21 sr-lu M=1": "InfiniteDemand",
    "random-21 sr-lu M=2": "InfiniteDemand",
    "random-21 sr-mf M=1": "optimal 1 2 None | 0:-=2",
    "random-21 sr-mf M=2": "optimal 1 2 None | 0:-=2",
    "random-21 te-lu": "InfiniteDemand",
    "random-21 te-mf": "optimal 1 2 None | 0:1+,2+=2",
    "random-22 sr-lu M=1": "optimal 3 1 1 | 0:-=2 0:n0=2",
    "random-22 sr-lu M=2": "optimal 3 1 1 | 0:-=2 0:n0=2",
    "random-22 sr-mf M=1": "optimal 2 4 None | 0:-=2 0:n0=2",
    "random-22 sr-mf M=2": "optimal 2 4 None | 0:-=2 0:n0=2",
    "random-22 te-lu": "optimal 3 1 1 | 0:0-,2+=2 0:1+=2",
    "random-22 te-mf": "optimal 2 4 None | 0:0-,2+=2 0:1+=2",
    "random-23 sr-lu M=1": "optimal 3 4/5 4/5 | 0:-=12/5 0:n2=8/5",
    "random-23 sr-lu M=2": "optimal 3 4/5 4/5 | 0:-=12/5 0:n2=8/5",
    "random-23 sr-mf M=1": "optimal 2 4 None | 0:-=3 0:n2=1",
    "random-23 sr-mf M=2": "optimal 2 4 None | 0:-=3 0:n2=1",
    "random-23 te-lu": "optimal 3 4/5 4/5 | 0:3+,4+=8/5 0:5+=12/5",
    "random-23 te-mf": "optimal 2 4 None | 0:3+,4+=2 0:5+=2",
    "random-24 sr-lu M=1": "InfiniteDemand",
    "random-24 sr-lu M=2": "InfiniteDemand",
    "random-24 sr-mf M=1": "optimal 3 16/3 None | 0:-=5/3 0:n2=1 0:n0=8/3",
    "random-24 sr-mf M=2": "optimal 4 6 None | 0:-=2 0:n2=1 0:n0=2 0:n2,n0=1",
    "random-24 te-lu": "InfiniteDemand",
    "random-24 te-mf": "optimal 3 6 None | 0:1-=3 0:2-,0-=1 0:2-,3-,4+=2",
    "random-25 sr-lu M=1": "infeasible 0 None None | ",
    "random-25 sr-lu M=2": "infeasible 0 None None | ",
    "random-25 sr-mf M=1": "optimal 0 0 None | ",
    "random-25 sr-mf M=2": "optimal 0 0 None | ",
    "random-25 te-lu": "infeasible 0 None None | ",
    "random-25 te-mf": "optimal 0 0 None | ",
    "random-26 sr-lu M=1": "optimal 3 4/3 4/3 | 0:-=4 1:-=1",
    "random-26 sr-lu M=2": "optimal 3 4/3 4/3 | 0:-=4 1:-=1",
    "random-26 sr-mf M=1": "optimal 2 4 None | 0:-=3 1:-=1",
    "random-26 sr-mf M=2": "optimal 2 4 None | 0:-=3 1:-=1",
    "random-26 te-lu":
        "optimal 6 5/6 5/6 | 0:2-,0+=3/2 0:5-=5/2 1:3+,1-,4-=5/6 "
        "1:3+,2-=1/6",
    "random-26 te-mf": "optimal 5 5 None | 0:2-,0+=2 0:5-=2 1:3+,1-,4-=1",
    "random-27 sr-lu M=1": "InfiniteDemand",
    "random-27 sr-lu M=2": "InfiniteDemand",
    "random-27 sr-mf M=1": "optimal 0 0 None | ",
    "random-27 sr-mf M=2": "optimal 0 0 None | ",
    "random-27 te-lu": "InfiniteDemand",
    "random-27 te-mf": "optimal 0 0 None | ",
    "random-28 sr-lu M=1": "optimal 4 5/7 5/7 | 0:-=20/7 0:n2=1/7 1:-=2",
    "random-28 sr-lu M=2": "optimal 4 5/7 5/7 | 0:-=20/7 0:n2=1/7 1:-=2",
    "random-28 sr-mf M=1": "optimal 2 5 None | 0:-=3 1:-=2",
    "random-28 sr-mf M=2": "optimal 2 5 None | 0:-=3 1:-=2",
    "random-28 te-lu":
        "optimal 5 5/7 5/7 | 0:0+=3/2 0:1+,2-=3/2 1:1-,0+=19/14 1:2-=9/14",
    "random-28 te-mf": "optimal 3 5 None | 0:0+=2 0:1+,2-=1 1:1-,0+=2",
    "random-29 sr-lu M=1": "infeasible 0 None None | ",
    "random-29 sr-lu M=2": "infeasible 0 None None | ",
    "random-29 sr-mf M=1": "optimal 0 0 None | ",
    "random-29 sr-mf M=2": "optimal 0 0 None | ",
    "random-29 te-lu": "infeasible 0 None None | ",
    "random-29 te-mf": "optimal 0 0 None | ",
}


def test_column_program_pinned_on_builtins():
    assert _builtin_signatures() == PINNED_BUILTINS


def test_column_program_pinned_on_random_instances():
    assert _random_signatures() == PINNED_RANDOM


def test_te_lu_and_sr_lu_agree_on_infinite_demand():
    # Commodity 0 has no route at all, commodity 1 no finite demand: the
    # missing demand is reported before the missing route, by both.
    net = FlowNetwork.build("directed", ["a", "b", "c"],
                            [("a", "b", 1), ("b", "c", 1)],
                            [("c", "a", 1), ("a", "c", None)])
    with pytest.raises(InfiniteDemand):
        solve_te_lu(net)
    with pytest.raises(InfiniteDemand):
        solve_sr_lu(net, SrConfig(("b",), 1))


def _minimal(vectors):
    """The vectors no other one lies below on every edge."""
    return {v for v in vectors
            if not any(u != v and all(a <= b for a, b in zip(u, v))
                       for u in vectors)}


# Min-load edge cases on s -> a -> t (plus a direct s -> t edge in one),
# each pinned for te-lu and for sr-lu through a: (status, theta).
MIN_LOAD_CASES = [
    # every route crosses a zero-capacity edge
    ([("s", "a", 0), ("a", "t", 1)], [("s", "t", 1)], (INFEASIBLE, None)),
    # a zero-capacity route beside a capacity-3 route
    ([("s", "t", 0), ("s", "a", 3), ("a", "t", 3)], [("s", "t", 2)],
     ("optimal", rat(2, 3))),
    # every need 0
    ([("s", "a", 1), ("a", "t", 1)], [("s", "t", 0), ("a", "t", 0)],
     ("optimal", 0)),
    # one need 0 and one need 3
    ([("s", "a", 2), ("a", "t", 2)], [("s", "t", 0), ("s", "t", 3)],
     ("optimal", rat(3, 2))),
    # min_demand 1 with max_demand 5
    ([("s", "a", 1), ("a", "t", 1)], [("s", "t", 5, 1)], ("optimal", 1)),
]


@pytest.mark.parametrize("edges, commodities, expect", MIN_LOAD_CASES)
def test_min_load_edge_cases(edges, commodities, expect):
    net = FlowNetwork.build("directed", ["s", "a", "t"], edges, commodities)
    te = solve_te_lu(net)
    sr, _ = solve_sr_lu(net, SrConfig(("a",), 1))
    assert (te.status, te.theta) == (sr.status, sr.theta) == expect
    if te.status == INFEASIBLE:
        return
    for i, com in enumerate(net.commodities):
        assert te.commodity_value(i) == com.effective_min()
        assert sr.commodity_value(i) == com.effective_min()


def _oracle(net, columns, minimize_load):
    """(status, objective) of the program over every distinct column of
    each commodity, built directly: the max-flow program itself, and for
    min-load the LP dual of the theta program."""
    if minimize_load:
        return min_load_dual(net, columns)
    lp = lpmod.LinearProgram()
    use = [{} for _ in net.edges]
    routes = []
    for i, cols in enumerate(columns):
        names = []
        for j, vec in enumerate(sorted({vector(net, c) for c in cols})):
            names.append(lp.add_variable(f"y_{i}_{j}"))
            for eid, load in enumerate(vec):
                if load:
                    use[eid][names[-1]] = load
        routes.append(names)
    lp.set_objective({n: 1 for names in routes for n in names})
    for e in net.edges:
        lp.add_constraint(use[e.id], lpmod.LE, e.capacity)
    for names, com in zip(routes, net.commodities):
        if com.max_demand is not None:
            lp.add_constraint(dict.fromkeys(names, 1), lpmod.LE, com.max_demand)
    sol = _lp_solve(lp)
    return sol.status, sol.objective


def _assert_pruning_is_exact(net, columns, minimize_load, monkeypatch):
    """solve_columns answers as the program over every distinct column does,
    with one variable per minimal column (its first copy) and flow on
    nothing else; returns the numbers of twin and of dominated columns."""
    widths = []

    def solve(lp):
        widths.append(len(lp.variables))
        return _lp_solve(lp)

    monkeypatch.setattr(lpmod, "solve", solve)
    sol = solve_columns(net, [list(enumerate(cols)) for cols in columns],
                        minimize_load)
    status, objective = sol.status, sol.objective
    assert (status, objective) == _oracle(net, columns, minimize_load)
    vectors = [[vector(net, c) for c in cols] for cols in columns]
    kept = set()
    twins = dominated = 0
    for i, vecs in enumerate(vectors):
        first = {}
        for k, vec in enumerate(vecs):
            first.setdefault(vec, k)
        minimal = _minimal(first)
        kept |= {(i, first[vec]) for vec in minimal}
        twins += len(vecs) - len(first)
        dominated += len(first) - len(minimal)
    # lambda is one more variable; no program is built when a commodity
    # without routes must carry flow.
    routeless = minimize_load and any(
        com.effective_min() > 0 and not cols
        for com, cols in zip(net.commodities, columns))
    assert widths == ([] if routeless else [len(kept) + minimize_load])
    if status != lpmod.OPTIMAL:
        assert sol.flows == {}
        return twins, dominated
    # Every commodity is keyed, its routes nonzero and in route order.
    assert list(sol.flows) == list(range(len(columns)))
    values = [[0] * len(cols) for cols in columns]
    for i, entries in sol.flows.items():
        assert [k for k, _ in entries] == sorted({k for k, _ in entries})
        for k, f in entries:
            assert f != 0
            values[i][k] = f
    carrying = {(i, k) for i, vals in enumerate(values)
                for k, f in enumerate(vals) if f != 0}
    assert carrying <= kept
    # The flows are a solution of the program, at the reported objective.
    theta = objective if minimize_load else 1
    for e in net.edges:
        load = sum(values[i][k] * vectors[i][k][e.id] for i, k in carrying)
        assert load <= e.capacity * theta
    for vals, com in zip(values, net.commodities):
        assert all(f >= 0 for f in vals)
        if minimize_load:
            assert sum(vals) == com.effective_min()
        elif com.max_demand is not None:
            assert sum(vals) <= com.max_demand
    if not minimize_load:
        assert sum(sum(vals) for vals in values) == objective
    return twins, dominated


def _walk_columns(net, w):
    return [[walk.edge_multiplicity()
             for walk in enumerate_paths(net, i, through_any([w])).paths]
            for i in range(len(net.commodities))]


def _check_modes(net, columns, finite, monkeypatch):
    """Both modes when every demand is finite; max-flow only otherwise,
    since min-load needs a finite required amount."""
    counts = _assert_pruning_is_exact(net, columns, False, monkeypatch)
    if not finite:
        with pytest.raises(InfiniteDemand):
            solve_columns(net, columns, True)
        return counts
    more = _assert_pruning_is_exact(net, columns, True, monkeypatch)
    return counts[0] + more[0], counts[1] + more[1]


def test_pruning_is_exact_on_directed_walks(monkeypatch):
    rng = random.Random(7331)
    twins = dominated = 0
    for trial in range(40):
        finite = trial % 2 == 0
        net = random_directed(rng, n_nodes=rng.randint(4, 6),
                              n_edges=rng.randint(7, 11),
                              n_commodities=rng.randint(1, 2),
                              finite_demands=finite, min_demands=finite)
        columns = _walk_columns(net, rng.choice(net.nodes))
        t, d = _check_modes(net, columns, finite, monkeypatch)
        twins, dominated = twins + t, dominated + d
    assert twins > 0 and dominated > 0


def test_pruning_is_exact_on_undirected_walks(monkeypatch):
    rng = random.Random(7333)
    twins = dominated = doubled = 0
    for trial in range(40):
        finite = trial % 2 == 0
        net = random_undirected(rng, n_nodes=rng.randint(4, 5),
                                n_edges=rng.randint(4, 7),
                                n_commodities=rng.randint(1, 2),
                                finite_demands=finite)
        columns = _walk_columns(net, rng.choice(net.nodes))
        doubled += sum(1 for cols in columns for col in cols
                       if 2 in col.values())
        t, d = _check_modes(net, columns, finite, monkeypatch)
        twins, dominated = twins + t, dominated + d
    assert twins > 0 and dominated > 0 and doubled > 0


def test_pruning_is_exact_on_tunnels(monkeypatch):
    rng = random.Random(7332)
    twins = dominated = fractional = 0
    for trial in range(40):
        finite = trial % 4 != 0
        net = random_undirected(rng, n_nodes=rng.randint(5, 7),
                                n_edges=rng.randint(6, 10),
                                n_commodities=rng.randint(1, 3),
                                finite_demands=finite)
        cfg = SrConfig(tuple(rng.sample(net.nodes, 4)), 2)
        tunnels, tables = build_tunnels(net, cfg)
        columns = [[_tunnel_column(t, com, tables) for t in ts]
                   for com, ts in zip(net.commodities, tunnels)]
        fractional += sum(1 for cols in columns for col in cols
                          if any(v.denominator > 1 for v in col.values()))
        t, d = _check_modes(net, columns, finite, monkeypatch)
        twins, dominated = twins + t, dominated + d
    assert twins > 0 and dominated > 0 and fractional > 0
