"""Flow centrality and group flow.

Centrality of a node w aggregates, over all ordered node pairs avoiding w,
how much flow could be forced through w relative to the unconstrained
maximum.  Group flow generalizes the node constraint to a set; the N-group
problem asks for the most valuable set of at most N nodes and is solved both
by exhaustive search and by a greedy heuristic.  A sampling probe documents
that group flow is monotone but not submodular.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .maxflow import max_flow
from .network import Commodity, FlowNetwork, fresh_name
from .rational import ZERO
from .te import max_flow_arc_lp
from .wflow import max_set_flow, max_set_flow_paths

def pair_w_flow(net: FlowNetwork, w, s, t):
    """Node-constrained max flow for the single unbounded pair (s, t)."""
    single = net.with_commodities([Commodity(s, t, None)])
    return max_set_flow(single, (w,)).objective


def pair_max_flow(net: FlowNetwork, s, t):
    """Unconstrained s-t max flow, by the exact Dinic kernel."""
    return max_flow(net, s, t).value


@dataclass(slots=True)
class CentralityReport:
    node: str
    numerator: object
    denominator: object
    ratio: object          # None when no pair carries any flow
    pairs: list = field(default_factory=list)  # (s, t, constrained, unconstrained)


def flow_centrality(net: FlowNetwork, w) -> CentralityReport:
    """All-pairs flow centrality of w: the numerator sums node-constrained
    flow values over all ordered pairs not involving w, the denominator the
    corresponding unconstrained maxima.  Unguarded, and exponential on
    directed networks."""
    net.require(w)
    pairs = [(s, t, forced, free)
             for (s, t), (forced, free) in _pair_values(net, w).items()]
    num = sum((forced for _, _, forced, _ in pairs), ZERO)
    den = sum((free for _, _, _, free in pairs), ZERO)
    ratio = None if den == 0 else num / den
    return CentralityReport(w, num, den, ratio, pairs)


def _pair_values(net: FlowNetwork, w):
    """(s, t) -> (constrained, unconstrained) flow over the ordered pairs
    avoiding w, in permutation order; a pair with no free flow gets
    (0, 0) without a constrained solve.  On an undirected network an s-t
    walk through w reversed is a t-s walk through w, so each unordered pair
    is solved once and its value reported for both orders."""
    values = {}
    # Equal values share one object; callers may keep many reports.
    shared = {}
    others = [v for v in net.nodes if v != w]
    for s, t in itertools.permutations(others, 2):
        if not net.directed and (t, s) in values:
            values[(s, t)] = values[(t, s)]
            continue
        free = pair_max_flow(net, s, t)
        forced = pair_w_flow(net, w, s, t) if free else ZERO
        values[(s, t)] = (shared.setdefault(forced, forced), shared.setdefault(free, free))
    return values


def commodity_centrality(net: FlowNetwork, w) -> CentralityReport:
    """Centrality against the instance's own commodities and demands: the
    node-constrained multicommodity optimum over the unconstrained one.
    Unguarded, and exponential on directed networks."""
    den_sol = max_flow_arc_lp(net)
    den = den_sol.objective
    num = max_set_flow(net, (w,)).objective
    ratio = None if den == 0 else num / den
    return CentralityReport(w, num, den, ratio)


# -- group flow ----------------------------------------------------------------

@dataclass
class GroupFlowResult:
    group: tuple
    value: object
    method: str            # "brute" or "greedy"
    trajectory: list = field(default_factory=list)  # greedy: (node, value) per round


class _GroupFlowCache:
    def __init__(self, net, norepeat=False):
        self.net = net
        self.norepeat = norepeat
        self.values = {}

    def __call__(self, group):
        key = frozenset(group)
        if not key:
            return ZERO
        if key not in self.values:
            if self.norepeat:
                sol = max_set_flow_paths(self.net, tuple(key), single_use=True)
            else:
                sol = max_set_flow(self.net, tuple(key))
            self.values[key] = sol.objective
        return self.values[key]


def n_group_max_flow(net: FlowNetwork, n: int, method="brute") -> GroupFlowResult:
    """Best group of at most n nodes.

    method="brute" enumerates every subset (exponential, exact); "greedy"
    adds one node per round by best marginal gain.  Ties always go to the
    lexicographically smallest candidate, so results are deterministic.
    """
    if n < 1:
        raise ValueError("n must be positive")
    gf = _GroupFlowCache(net)
    nodes = sorted(net.nodes)
    if method == "brute":
        best_group, best_value = (), ZERO
        for size in range(1, min(n, len(nodes)) + 1):
            for combo in itertools.combinations(nodes, size):
                v = gf(combo)
                if v > best_value:
                    best_group, best_value = combo, v
        return GroupFlowResult(best_group, best_value, "brute")
    if method == "greedy":
        chosen = []
        trajectory = []
        current = ZERO
        for _ in range(min(n, len(nodes))):
            pick, pick_value = None, current
            for v in nodes:
                if v in chosen:
                    continue
                val = gf(chosen + [v])
                if val > pick_value:
                    pick, pick_value = v, val
            if pick is None:
                break
            chosen.append(pick)
            current = pick_value
            trajectory.append((pick, current))
        return GroupFlowResult(tuple(sorted(chosen)), current, "greedy", trajectory)
    raise ValueError(f"unknown method {method!r}")


@dataclass
class ProbeReport:
    """monotone/submodular: no sample violated it, which does not prove it."""
    samples: int
    monotonicity_violations: list
    submodularity_violations: list

    @property
    def monotone(self):
        return not self.monotonicity_violations

    @property
    def submodular(self):
        return not self.submodularity_violations


def submodularity_probe(net: FlowNetwork, trials=100, seed=0) -> ProbeReport:
    """Sample nested sets S <= T and a fresh node v; record violations of
    monotonicity (adding v may never lower the value) and of submodularity
    (the marginal gain of v at S at least the one at T).

    Group flow is monotone, and the probe should never find a violation of
    the first kind; it is *not* submodular, and on suitable instances the
    probe finds witnesses of the second kind.

    On undirected networks the probe scores groups over no-repeat paths
    (each edge at most once per path).  Group flow is not submodular under
    the default rule either, where a walk may reuse an edge in opposite
    directions, but fig8-undirected is a counterexample under no-repeat
    only: with reuse, s3 gains 1 at both {s1} and {s1,s2}.
    """
    rng = random.Random(seed)
    gf = _GroupFlowCache(net, norepeat=not net.directed)
    nodes = sorted(net.nodes)
    mono = []
    submod = []
    samples = trials if len(nodes) >= 2 else 0
    for _ in range(samples):
        v = rng.choice(nodes)
        rest = [x for x in nodes if x != v]
        t_size = rng.randint(1, len(rest))
        T = rng.sample(rest, t_size)
        S = [x for x in T if rng.random() < 0.5]
        gS, gT = gf(S), gf(T)
        gSv, gTv = gf(S + [v]), gf(T + [v])
        if gSv < gS or gTv < gT or gT < gS:
            mono.append((tuple(sorted(S)), tuple(sorted(T)), v, gS, gT, gSv, gTv))
        if gSv - gS < gTv - gT:
            submod.append((tuple(sorted(S)), tuple(sorted(T)), v,
                           gSv - gS, gTv - gT))
    return ProbeReport(samples, mono, submod)


def probe_margins(net: FlowNetwork, S, T, v):
    """Marginal gains of v at S and at T under the probe's group semantics
    (no-repeat paths on undirected networks).  Returns (gain_at_S, gain_at_T).
    """
    gf = _GroupFlowCache(net, norepeat=not net.directed)
    return (gf(list(S) + [v]) - gf(list(S)),
            gf(list(T) + [v]) - gf(list(T)))


# -- source/sink closures and the inclusion-exclusion identity ------------------

@dataclass
class HatConstructions:
    base: FlowNetwork
    source_hat: FlowNetwork
    sink_hat: FlowNetwork
    both: FlowNetwork
    s_hat: str
    t_hat: str


def hat_constructions(net: FlowNetwork, s, t) -> HatConstructions:
    """Attach a super-source s_hat -> s (capacity: total capacity out of s)
    and/or a super-sink t -> t_hat (total capacity into t)."""
    taken = set(net.nodes)
    s_hat = fresh_name(f"{s}^", taken)
    t_hat = fresh_name(f"{t}^", taken)
    out_cap = sum((e.capacity for e in net.edges
                   if e.tail == s or (not net.directed and e.head == s)), ZERO)
    in_cap = sum((e.capacity for e in net.edges
                  if e.head == t or (not net.directed and e.tail == t)), ZERO)

    def extend(with_s, with_t):
        nodes = list(net.nodes)
        edges = [(e.tail, e.head, e.capacity, e.length) for e in net.edges]
        if with_s:
            nodes.append(s_hat)
            edges.append((s_hat, s, out_cap, 1))
        if with_t:
            nodes.append(t_hat)
            edges.append((t, t_hat, in_cap, 1))
        return FlowNetwork.build(net.orientation, nodes, edges)

    return HatConstructions(extend(False, False), extend(True, False),
                            extend(False, True), extend(True, True), s_hat, t_hat)


@dataclass
class Eq25Report:
    lhs: object
    terms: dict
    residual: object
    consistent: bool


def check_pair_sum_identity(net: FlowNetwork, w, s, t) -> Eq25Report:
    """The pair value nu^w(s,t) equals an inclusion-exclusion of the four
    pair-sum aggregates S (flow_centrality's numerator) over the hat
    constructions:

        nu^w(s,t) = S(both hats) - S(source hat) - S(sink hat) + S(base),

    halved on undirected networks: all pairs cancel but (s_hat, t_hat),
    worth nu^w(s,t), and (t_hat, s_hat), worth as much there and 0 on a
    directed network, where t_hat reaches nothing.

    Evaluates both sides exactly and reports the residual.  Unguarded, and
    exponential on directed networks.
    """
    net.require(w, s, t)
    hats = hat_constructions(net, s, t)
    lhs = pair_w_flow(net, w, s, t)
    terms = {
        "both": flow_centrality(hats.both, w).numerator,
        "source_hat": flow_centrality(hats.source_hat, w).numerator,
        "sink_hat": flow_centrality(hats.sink_hat, w).numerator,
        "base": flow_centrality(hats.base, w).numerator,
    }
    rhs = terms["both"] - terms["source_hat"] - terms["sink_hat"] + terms["base"]
    if not net.directed:
        rhs /= 2
    return Eq25Report(lhs, terms, lhs - rhs, lhs == rhs)
