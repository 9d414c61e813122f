import itertools
import random
from fractions import Fraction

import pytest

from nodeflow import (EQ, LE, OPTIMAL, UNBOUNDED, LinearProgram,
                      MalformedProgram, rat)
from nodeflow import solve as solve_lp

# Some programs below are drawn with >= rows and a min sense, which the
# solver does not take.  Each is written in the form it solves instead: a
# >= row as the <= row with coefficients and right-hand side negated, and a
# min of c.x as the max of -c.x, whose objective is the min negated.
GE = ">="


def _add_row(lp, coeffs, relation, rhs):
    """Add a drawn row, a >= row negated into a <= row."""
    if relation == GE:
        coeffs, relation, rhs = {k: -c for k, c in coeffs.items()}, LE, -rhs
    lp.add_constraint(coeffs, relation, rhs)


def _set_cost(lp, cost, sense):
    """Set a drawn objective as a max; returns the sign (1 or -1) that turns
    the solver's objective into the drawn sense's."""
    sign = 1 if sense == "max" else -1
    lp.set_objective({k: sign * c for k, c in cost.items()})
    return sign


def test_small_max():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_variable("y")
    lp.set_objective({"x": 1, "y": 1})
    lp.add_constraint({"x": 1, "y": 2}, LE, 4)
    lp.add_constraint({"x": 1}, LE, 3)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == rat(7, 2)
    assert sol.assignment["x"] == 3


def test_min_sense():
    # min -x - 2y subject to -x - y >= -4 and y <= 3, solved as
    # max x + 2y subject to x + y <= 4 and y <= 3.
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_variable("y")
    lp.add_constraint({"x": 1, "y": 1}, LE, 4)
    lp.add_constraint({"y": 1}, LE, 3)
    lp.set_objective({"x": 1, "y": 2})
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert -sol.objective == -7
    assert (sol.assignment["x"], sol.assignment["y"]) == (1, 3)


def test_unbounded():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.set_objective({"x": 1})
    lp.add_constraint({"x": -1}, LE, 1)
    assert solve_lp(lp).status == UNBOUNDED


def test_equality_and_upper_bound():
    # x = y and x + 2y <= 9 allow x = 3; the upper bound stops it at 5/2.
    lp = LinearProgram()
    lp.add_variable("x", upper=rat(5, 2))
    lp.add_variable("y")
    lp.set_objective({"x": 1, "y": 1})
    lp.add_constraint({"x": 1, "y": -1}, EQ, 0)
    lp.add_constraint({"x": 1, "y": 2}, LE, 9)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == 5
    assert sol.assignment == {"x": rat(5, 2), "y": rat(5, 2)}


def test_rows_that_fail_at_the_origin_are_rejected():
    lp = LinearProgram()
    lp.add_variable("x")
    for bad in (lambda: lp.add_constraint({"x": 1}, LE, -1),
                lambda: lp.add_constraint({"x": 1}, EQ, 3),
                lambda: lp.add_constraint({"x": 1}, "<", 1),
                lambda: lp.add_variable("y", upper=-1)):
        with pytest.raises(MalformedProgram):
            bad()
    # There are no >= rows, not even ones that hold at the origin.
    for rhs in (-1, 0, 1):
        with pytest.raises(MalformedProgram, match="bad relation"):
            lp.add_constraint({"x": 1}, ">=", rhs)
    assert lp.variables == ["x"] and not lp.constraints
    # Right-hand side 0 holds at the origin for both relations.
    lp.add_variable("y", upper=0)
    lp.set_objective({"y": 1})
    for coeffs, relation in (({"x": 1, "y": -1}, LE),
                             ({"x": -1, "y": 1}, LE),
                             ({"x": 1, "y": -1}, EQ)):
        lp.add_constraint(coeffs, relation, 0)
    sol = solve_lp(lp)
    assert (sol.status, sol.objective) == (OPTIMAL, 0)


def _beale_program():
    lp = LinearProgram()
    for name in ("x1", "x2", "x3", "x4"):
        lp.add_variable(name)
    lp.set_objective({"x1": rat(3, 4), "x2": -150, "x3": rat(1, 50),
                      "x4": -6})
    lp.add_constraint({"x1": rat(1, 4), "x2": -60, "x3": rat(-1, 25),
                       "x4": 9}, LE, 0)
    lp.add_constraint({"x1": rat(1, 2), "x2": -90, "x3": rat(-1, 50),
                       "x4": 3}, LE, 0)
    lp.add_constraint({"x3": 1}, LE, 1)
    return lp


def test_degenerate_does_not_cycle():
    # Beale's classic cycling example; Bland's rule must terminate.
    sol = solve_lp(_beale_program())
    assert sol.status == OPTIMAL
    assert sol.objective == rat(1, 20)


def _oracle_optimum(ncols, rows, cost):
    """Enumerate basic feasible points of {Ax <= b, x >= 0} exactly.

    rows: list of (coeff vector, rhs).  Returns the maximum of cost @ x, or
    None if infeasible, or "unbounded".  All arithmetic over Fraction.
    """
    # Include nonnegativity as rows, then intersect every ncols-subset.
    full = [(list(r), rhs) for r, rhs in rows]
    for j in range(ncols):
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(-1)
        full.append((vec, Fraction(0)))
    best = None
    for subset in itertools.combinations(range(len(full)), ncols):
        a = [list(full[i][0]) for i in subset]
        b = [full[i][1] for i in subset]
        x = _solve_square(a, b)
        if x is None:
            continue
        if any(xi < 0 for xi in x):
            continue
        if any(sum(c * xi for c, xi in zip(vec, x)) > rhs + 0
               for vec, rhs in rows):
            continue
        val = sum(c * xi for c, xi in zip(cost, x))
        if best is None or val > best:
            best = val
    return best


def _solve_square(a, b):
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def _origin_program_strategy(st):
    """Programs whose rows hold at the origin, as (ncols, rows, upper
    bounds, cost, sense): rows are (relation, coefficient vector, rhs) with
    <= rows at b >= 0, >= rows at b <= 0 and = rows at b = 0.  Coefficients
    and costs are p/q with |p| <= 6 and q <= 3: units, other integers and
    proper fractions, so the solver's tableau mixes int and Fraction entries
    and pivots on elements other than +-1."""
    small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    rhs = {LE: st.integers(0, 6), GE: st.integers(-6, 0), EQ: st.just(0)}

    @st.composite
    def programs(draw):
        ncols = draw(st.integers(1, 3))
        rows = []
        for _ in range(draw(st.integers(1, 4))):
            relation = draw(st.sampled_from([LE, GE, EQ]))
            rows.append((relation, draw(st.lists(small, min_size=ncols,
                                                 max_size=ncols)),
                         Fraction(draw(rhs[relation]))))
        uppers = draw(st.lists(st.none() | st.integers(0, 5),
                               min_size=ncols, max_size=ncols))
        cost = draw(st.lists(small, min_size=ncols, max_size=ncols))
        return ncols, rows, uppers, cost, draw(st.sampled_from(["max", "min"]))

    return programs()


def test_random_lps_match_vertex_enumeration():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=150, deadline=None)
    @given(_origin_program_strategy(st))
    def check(program):
        ncols, rows, uppers, cost, sense = program
        lp = LinearProgram()
        for j in range(ncols):
            lp.add_variable(f"x{j}", upper=uppers[j])
        sign = _set_cost(lp, {f"x{j}": cost[j] for j in range(ncols)}, sense)
        for relation, vec, rhs in rows:
            _add_row(lp, {f"x{j}": vec[j] for j in range(ncols)},
                     relation, rhs)
        # The oracle takes <= rows only: a >= row negated, a = row as two
        # <= rows, each upper bound as a row, and a box of 10 on every
        # variable so that every optimum is attained.
        unit = [[Fraction(int(i == j)) for i in range(ncols)]
                for j in range(ncols)]
        le = []
        for relation, vec, rhs in rows:
            if relation != GE:
                le.append((vec, rhs))
            if relation != LE:
                le.append(([-c for c in vec], -rhs))
        le += [(unit[j], Fraction(ub)) for j, ub in enumerate(uppers)
               if ub is not None]
        for j in range(ncols):
            le.append((unit[j], Fraction(10)))
            lp.add_constraint({f"x{j}": 1}, LE, 10)
        expect = _oracle_optimum(ncols, le, [sign * c for c in cost])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == expect
        # Every value the solver reports is a Fraction, whatever the
        # tableau held.
        assert type(sol.objective) is Fraction
        assert all(type(v) is Fraction for v in sol.assignment.values())
        x = [sol.assignment[f"x{j}"] for j in range(ncols)]
        assert all(sum(c * xi for c, xi in zip(vec, x)) <= rhs
                   for vec, rhs in le)
        assert sum(c * xi for c, xi in zip(cost, x)) == sign * sol.objective

    check()


def test_names_checked_against_declared_variables():
    # A program is built only by its methods, so every name goes through
    # one check.
    with pytest.raises(TypeError):
        LinearProgram(variables=["x", "x"])
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_variable("y", upper=2)
    lp.set_objective({"y": 1})
    assert lp.index == {"x": 0, "y": 1}
    for bad in (lambda: lp.add_variable("x"),
                lambda: lp.add_variable("y"),
                lambda: lp.add_constraint({"z": 1}, LE, 1),
                lambda: lp.set_objective({"z": 1})):
        with pytest.raises(MalformedProgram):
            bad()
    lp.add_constraint({"x": 1, "y": 1}, LE, 3)
    assert solve_lp(lp).objective == 2


# -- the Bland path, pinned ----------------------------------------------------
#
# Exact arithmetic makes the pivot sequence a pure function of the program, so
# any change to the tableau kernel must reproduce these pivot counts and
# assignments value for value.  They were recorded from the dense kernel,
# PINNED_TRANSFORM's pivot count from the start that gives equality rows
# with right-hand side 0 no artificial, and PINNED_ORIGIN from the two-phase
# kernel before phase 1 was removed.

def _path_signature(lp, sol, sign=1):
    """status, pivots, objective (times sign, the drawn sense's) and every
    variable's value, in declaration order, as one comparable string."""
    values = " ".join(str(sol.assignment[name]) for name in lp.variables) \
        if sol.status == OPTIMAL else "-"
    assert sol.status != OPTIMAL or len(sol.assignment) == len(lp.variables)
    objective = None if sol.objective is None else sign * sol.objective
    return f"{sol.status} {sol.pivots} {objective} | {values}"


def _pinned_random_programs():
    """Seeded programs with LE, GE and EQ rows, upper bounds, rational
    coefficients and both senses, each built around a hidden feasible
    point.  Of the 30 drawn, only those in PINNED_RANDOM have every row
    holding at the origin; the others needed phase 1 and are drawn but not
    built, so that these keep their draws.  Returns {position: (program,
    sign)}, sign as from _set_cost."""
    rng = random.Random(1907)
    programs = {}
    for k in range(30):
        nvars = rng.randint(2, 6)
        uppers = []
        point = []
        for j in range(nvars):
            upper = rng.choice([None, None, rng.randint(1, 6),
                                rat(rng.randint(1, 9), 2)])
            uppers.append(upper)
            point.append(min(rat(rng.randint(0, 12), 4), upper or 3))
        rows = []
        for _ in range(rng.randint(2, 6)):
            coeffs = {j: rat(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                      for j in range(nvars) if rng.random() < 0.7}
            at = sum((c * point[j] for j, c in coeffs.items()), rat(0))
            relation = rng.choice([LE, LE, GE, EQ])
            slack = rng.choice([0, 1, rat(5, 2)]) if rng.random() < 0.9 else -1
            rhs = {LE: at + slack, GE: at - slack, EQ: at}[relation]
            rows.append((coeffs, relation, rhs))
        objective = {f"x{j}": rng.randint(-3, 4) for j in range(nvars)}
        sense = rng.choice(["max", "max", "min"])
        if k not in PINNED_RANDOM:
            continue
        lp = LinearProgram()
        for j, upper in enumerate(uppers):
            lp.add_variable(f"x{j}", upper=upper)
        for coeffs, relation, rhs in rows:
            _add_row(lp, {f"x{j}": c for j, c in coeffs.items()},
                     relation, rhs)
        programs[k] = lp, _set_cost(lp, objective, sense)
    return programs


def _origin_programs():
    """Seeded programs whose rows all hold at the origin: LE rows with
    b >= 0, GE rows with b < 0, EQ rows with b = 0, upper bounds (some 0),
    rational coefficients and both senses.  A GE row with b = 0 took an
    artificial in the two-phase kernel, so there are none here and the
    pins read the same from both kernels.  Returns (program, sign) pairs,
    sign as from _set_cost."""
    rng = random.Random(4417)
    programs = []
    for _ in range(30):
        nvars = rng.randint(2, 6)
        lp = LinearProgram()
        for j in range(nvars):
            lp.add_variable(f"x{j}", upper=rng.choice(
                [None, None, rng.randint(0, 6), rat(rng.randint(1, 9), 2)]))
        for _ in range(rng.randint(2, 6)):
            coeffs = {f"x{j}": rat(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                      for j in range(nvars) if rng.random() < 0.6}
            relation = rng.choice([LE, LE, LE, GE, GE, EQ])
            rhs = {LE: rng.choice([0, 1, 3, rat(5, 2), 6, 8]),
                   GE: -rng.choice([1, 2, rat(7, 3)]), EQ: 0}[relation]
            _add_row(lp, coeffs, relation, rhs)
        sign = _set_cost(lp, {f"x{j}": rng.randint(-3, 4) for j in range(nvars)},
                         rng.choice(["max", "max", "min"]))
        programs.append((lp, sign))
    return programs


PINNED_BEALE = 'optimal 6 1/20 | 1/25 0 1 0'

PINNED_RANDOM = {
    21: 'optimal 1 3/2 | 3/2 0',
    23: 'unbounded 1 None | -',
    27: 'optimal 2 131/4 | 0 0 131/16 0 0 0',
}

PINNED_ORIGIN = [
    'optimal 1 2 | 1/2 0 0',
    'unbounded 0 None | -',
    'unbounded 0 None | -',
    'optimal 4 463/48 | 21/16 0 3 7/12',
    'unbounded 1 None | -',
    'optimal 1 2 | 0 0 0 1 0 0',
    'optimal 1 0 | 0 0 0',
    'optimal 1 12 | 0 12',
    'optimal 0 0 | 0 0',
    'optimal 2 -7/3 | 1 2/3',
    'optimal 3 2 | 1/2 0 0 0 0',
    'optimal 1 1 | 0 0 1/4 0',
    'optimal 2 -6 | 2 0 0 0 0',
    'optimal 1 1/4 | 1/4 0',
    'optimal 1 -7/4 | 0 7/12 0',
    'optimal 4 648/205 | 0 144/205 216/205 367/205',
    'optimal 1 9/4 | 0 0 3/4',
    'optimal 2 -6 | 3 0 9/2 0',
    'optimal 0 0 | 0 0 0 0',
    'optimal 3 -45/4 | 0 5 5/8 0 0 0',
    'optimal 1 -2 | 0 2 0 0 0',
    'unbounded 0 None | -',
    'optimal 2 4 | 0 1 0',
    'optimal 1 0 | 0 0',
    'optimal 2 0 | 0 0 0',
    'optimal 1 0 | 0 0 0 0 0',
    'optimal 1 0 | 0 0 0',
    'optimal 0 0 | 0 0 0',
    'optimal 1 4 | 0 1',
    'optimal 3 21/2 | 1 5/2 2',
]

# The undirected transform program for augmenting-undirected through w, in
# its earlier form with a collector, an apex and surrogate-capacity rows:
# 19 variables, 18 declared rows, of which the 7 conservation and
# equal-collector rows have right-hand side 0 and start without artificials.
PINNED_TRANSFORM = 'optimal 12 6 | 0 2 0 2 2 0 1 0 0 0 0 0 2 0 0 1 3 3 6'


def _collector_transform_program(net, w):
    """The single-commodity transform program with collector z0 wired to
    both endpoints, apex z, and a surrogate capacity (total capacity + 1) on
    the three collector and apex arcs, rows in their original order."""
    (com,) = net.commodities
    arcs = []   # (name, tail, head)
    for e in net.edges:
        arcs += [(f"e{e.id}+", e.tail, e.head), (f"e{e.id}-", e.head, e.tail)]
    arcs += [("s0z", com.source, "z0"), ("t0z", com.sink, "z0"), ("z0z", "z0", "z")]
    lp = LinearProgram()
    for name, _, _ in arcs:
        lp.add_variable(name)
    for e in net.edges:
        lp.add_constraint({f"e{e.id}+": 1, f"e{e.id}-": 1}, LE, e.capacity)
    surrogate = net.total_capacity() + 1
    for name in ("s0z", "t0z", "z0z"):
        lp.add_constraint({name: 1}, LE, surrogate)
    for v in (*net.nodes, "z0"):
        if v != w:
            coeffs = {name: 1 for name, _, head in arcs if head == v}
            coeffs.update({name: -1 for name, tail, _ in arcs if tail == v})
            lp.add_constraint(coeffs, EQ, 0)
    lp.add_constraint({"s0z": 1, "t0z": -1}, EQ, 0)
    lp.set_objective({"z0z": 1})
    return lp


def test_bland_path_pinned_on_beale():
    lp = _beale_program()
    assert _path_signature(lp, solve_lp(lp)) == PINNED_BEALE


def test_bland_path_pinned_on_random_programs():
    programs = _pinned_random_programs()
    got = {k: _path_signature(lp, solve_lp(lp), sign)
           for k, (lp, sign) in programs.items()}
    assert got == PINNED_RANDOM


def test_bland_path_pinned_on_origin_programs():
    got = [_path_signature(lp, solve_lp(lp), sign)
           for lp, sign in _origin_programs()]
    assert got == PINNED_ORIGIN


@pytest.mark.parametrize("scale", [2, rat(1, 3)])
def test_bland_path_does_not_depend_on_the_scale_of_the_costs(scale):
    # Scaling the costs by k > 0 scales the reduced-cost row by k, which
    # keeps Bland's entering choice, and the ratio test reads no cost: the
    # same pivots reach the same point, at k times the objective.
    programs = [lp for lp, _ in _origin_programs()]
    programs += [lp for lp, _ in _pinned_random_programs().values()]
    for k, lp in enumerate(programs):
        base = solve_lp(lp)
        lp.set_objective({name: scale * c for name, c in lp.objective.items()})
        scaled = solve_lp(lp)
        assert (scaled.status, scaled.pivots, scaled.assignment) == \
            (base.status, base.pivots, base.assignment), k
        assert scaled.objective == (None if base.objective is None
                                    else scale * base.objective), k


def test_bland_path_pinned_on_transform_program():
    from nodeflow import get_builtin

    lp = _collector_transform_program(
        get_builtin("augmenting-undirected").network, "w")
    assert (len(lp.variables), len(lp.constraints)) == (19, 18)
    assert _path_signature(lp, solve_lp(lp)) == PINNED_TRANSFORM


def test_transform_program_has_only_rows_that_can_bind(monkeypatch):
    # The same question as the pinned program above, in the layer form: the
    # edge arcs and one exit, with no collector, apex or surrogate, on the
    # reduced graph.  u is in series between s and v, so s-u-v merges into
    # the parallel edge s-v (capacity 14); v is then in series between s
    # and w, giving s-w of capacity 2.
    from nodeflow import get_builtin
    from nodeflow import lp as lpmod
    from nodeflow.wflow import build_transform, max_set_flow, solve_transform

    built = []

    def capture(lp):
        built.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(lpmod, "solve", capture)
    net = get_builtin("augmenting-undirected").network
    value = solve_transform(net, build_transform(net, ("w",))).objective
    (lp,) = built
    # 7 arc variables on the 5 edges left, the 10 arcs less the 3 into w,
    # and one exit; 5 edge capacity rows and conservation at s, x and t.
    assert (len(lp.variables), len(lp.constraints)) == (8, 8)
    assert value == max_set_flow(net, ("w",)).objective == 3


# -- equality rows with right-hand side 0 ---------------------------------------
#
# These rows start with no artificial: each is pivoted in on its
# lowest-index nonzero column, and one left all zero is dropped.

def _two_route_flow(duplicate):
    """Max flow from s over s->a->t, s->b->t and a->b, with conservation at
    a and b as EQ rows with right-hand side 0; duplicate repeats a's row."""
    lp = LinearProgram()
    for name in ("sa", "sb", "ab", "at", "bt"):
        lp.add_variable(name)
    for name, cap in (("sa", 3), ("sb", 1), ("ab", 2), ("at", 1), ("bt", 4)):
        lp.add_constraint({name: 1}, LE, cap)
    at_a = {"sa": 1, "ab": -1, "at": -1}
    lp.add_constraint(at_a, EQ, 0)
    if duplicate:
        lp.add_constraint(at_a, EQ, 0)
    lp.add_constraint({"sb": 1, "ab": 1, "bt": -1}, EQ, 0)
    lp.set_objective({"sa": 1, "sb": 1})
    return lp


def test_duplicated_zero_rhs_row_is_dropped():
    plain = solve_lp(_two_route_flow(duplicate=False))
    doubled = solve_lp(_two_route_flow(duplicate=True))
    assert plain.status == doubled.status == OPTIMAL
    assert plain.objective == doubled.objective == 4
    # The copy is all zero once a's row is pivoted in, so it is dropped
    # without a pivot of its own and the path is the same.
    assert doubled.pivots == plain.pivots
    assert doubled.assignment == plain.assignment


def _zero_rhs_dense_programs(seed, count):
    """Programs whose rows are mostly EQ rows with right-hand side 0 (some
    of them sums of earlier ones, so redundant), plus a few LE, GE and EQ
    rows that hold at the origin, upper bounds and both senses, each in the
    max form the solver takes."""
    rng = random.Random(seed)
    programs = []
    for _ in range(count):
        nvars = rng.randint(2, 7)
        lp = LinearProgram()
        for j in range(nvars):
            lp.add_variable(f"x{j}", upper=rng.choice([None, None, rng.randint(1, 5)]))
        zero_rows = []
        for _ in range(rng.randint(1, nvars)):
            if len(zero_rows) > 1 and rng.random() < 0.25:
                a, b = rng.sample(zero_rows, 2)
                coeffs = {k: a.get(k, 0) + b.get(k, 0) for k in {*a, *b}}
            else:
                coeffs = {f"x{j}": rat(rng.choice([-2, -1, -1, 1, 1, 2]),
                                       rng.choice([1, 1, 2]))
                          for j in range(nvars) if rng.random() < 0.6}
            zero_rows.append(coeffs)
            lp.add_constraint(coeffs, EQ, 0)
        for _ in range(rng.randint(0, 3)):
            coeffs = {f"x{j}": rng.randint(-3, 3) for j in range(nvars)
                      if rng.random() < 0.6}
            relation = rng.choice([LE, LE, GE, EQ])
            rhs = {LE: rng.randint(0, 8), GE: rng.randint(-4, 0), EQ: 0}
            _add_row(lp, coeffs, relation, rhs[relation])
        _set_cost(lp, {f"x{j}": rng.randint(-3, 3) for j in range(nvars)},
                  rng.choice(["max", "max", "min"]))
        programs.append(lp)
    return programs


def _all_fraction_solve(lp):
    """The solver's own kernel, _pivot_eq_rows then _bland_optimize, run on
    a tableau built here with every entry a Fraction: the declared rows,
    then each upper bound as a <= row, one slack column per <= row, in the
    solver's row and column order.  Returns (status, pivots, objective,
    assignment)."""
    from nodeflow import lp as lpmod

    n = len(lp.variables)
    specs = [(con.coeffs, con.relation, con.rhs) for con in lp.constraints]
    specs += [({name: 1}, LE, ub) for name, ub in lp.upper_bounds.items()]
    ncols = n + sum(1 for _, relation, _ in specs if relation == LE)
    rows, basis, eq_rows = [], [], []
    scol = n
    for coeffs, relation, rhs in specs:
        row = [Fraction(0)] * (ncols + 1)
        for name, c in coeffs.items():
            row[lp.index[name]] = Fraction(c)
        row[ncols] = Fraction(rhs)
        if relation == EQ:
            eq_rows.append(len(rows))
            basis.append(-1)
        else:
            row[scol] = Fraction(1)
            basis.append(scol)
            scol += 1
        rows.append(row)
    pivots = lpmod._pivot_eq_rows(rows, basis, eq_rows)
    cost = [Fraction(0)] * ncols
    for name, c in lp.objective.items():
        cost[lp.index[name]] = Fraction(c)
    status, more, objective = lpmod._bland_optimize(rows, basis, cost, ncols)
    # Fraction arithmetic is closed, so the tableau is all Fraction to the end.
    assert all(type(x) is Fraction for row in rows for x in row)
    if status != OPTIMAL:
        return status, pivots + more, None, {}
    assignment = dict.fromkeys(lp.variables, Fraction(0))
    for i, b in enumerate(basis):
        if b < n:
            assignment[lp.variables[b]] = rows[i][ncols]
    return status, pivots + more, objective, assignment


def _non_unit_programs(seed, count):
    """Programs whose coefficients and costs lie in {+-2, +-3, +-4, +-6}, so
    that the int tableau pivots on ints other than +-1, which divide some
    entries of their row and not others: <= rows with b >= 0, = rows with
    b = 0, upper bounds and both senses, in the max form the solver takes."""
    rng = random.Random(seed)
    values = (-6, -4, -3, -2, 2, 3, 4, 6)
    programs = []
    for _ in range(count):
        nvars = rng.randint(2, 5)
        lp = LinearProgram()
        for j in range(nvars):
            lp.add_variable(f"x{j}", upper=rng.choice([None, None, rng.randint(1, 7)]))
        for _ in range(rng.randint(1, 5)):
            coeffs = {f"x{j}": rng.choice(values) for j in range(nvars)
                      if rng.random() < 0.7}
            relation = rng.choice([LE, LE, LE, EQ])
            lp.add_constraint(coeffs, relation,
                              rng.randint(0, 12) if relation == LE else 0)
        _set_cost(lp, {f"x{j}": rng.choice(values) for j in range(nvars)},
                  rng.choice(["max", "max", "min"]))
        programs.append(lp)
    return programs


def test_pivot_path_matches_the_kernel_on_an_all_fraction_tableau(monkeypatch):
    # The solver keeps integral entries as ints through every pivot, which
    # must not move the Bland path: on programs with = rows, upper bounds,
    # non-unit and fractional coefficients, solve agrees with the same
    # kernel run on an all-Fraction tableau in status, pivots, objective and
    # assignment.  A spy on _pivot reads off each int pivot row's new
    # entries which branches of the exact division ran: a whole quotient
    # kept an int, and Fraction(x, piv).
    from nodeflow import lp as lpmod

    branches = set()
    pivot = lpmod._pivot

    def spy(rows, basis, r, c, z=None):
        before = list(rows[r])
        pivot(rows, basis, r, c, z)
        if type(before[c]) is int and before[c] not in (1, -1):
            for x, q in zip(before, rows[r]):
                if type(x) is int and x:
                    assert q == Fraction(x, before[c])
                    branches.add(type(q).__name__)

    monkeypatch.setattr(lpmod, "_pivot", spy)
    programs = [lp for lp, _ in _origin_programs()]
    programs += _zero_rhs_dense_programs(6101, 120)
    programs += _non_unit_programs(2713, 80)
    programs.append(_beale_program())
    seen = set()
    for trial, lp in enumerate(programs):
        sol = solve_lp(lp)
        status, pivots, objective, assignment = _all_fraction_solve(lp)
        got = (sol.status, sol.pivots, sol.objective,
               sol.assignment if sol.status == OPTIMAL else {})
        assert got == (status, pivots, objective, assignment), trial
        if status == OPTIMAL:
            assert type(sol.objective) is Fraction, trial
            assert all(type(v) is Fraction
                       for v in sol.assignment.values()), trial
        seen.add(status)
    assert seen == {OPTIMAL, UNBOUNDED}
    assert branches == {"int", "Fraction"}


# (row, pivot column, row after the pivot); zeros stay as they are on
# every path.
PIVOT_ROWS = [
    # An int pivot element other than +-1 divides exactly: a whole quotient
    # of an int stays an int, any other is a Fraction, and a Fraction
    # (the right-hand side here) divides as a Fraction.
    ([2, 4, 3, -6, 0, Fraction(5)], 0,
     [1, 2, Fraction(3, 2), -3, 0, Fraction(5, 2)]),
    ([3, -6, 2, 0, Fraction(1, 2)], 1,
     [Fraction(-1, 2), 1, Fraction(-1, 3), 0, Fraction(-1, 12)]),
    ([Fraction(4, 3), 2, Fraction(6)], 1, [Fraction(2, 3), 1, Fraction(3)]),
    # -1 negates the row, types kept.
    ([-1, 2, 0, Fraction(3, 2), Fraction(4)], 0,
     [1, -2, 0, Fraction(-3, 2), Fraction(-4)]),
    # A Fraction pivot element multiplies by its inverse: every nonzero
    # becomes a Fraction.
    ([Fraction(2, 3), 2, 0, 1, Fraction(4)], 0,
     [Fraction(1), Fraction(3), 0, Fraction(3, 2), Fraction(6)]),
    # 1 leaves the row as it is.
    ([1, 2, Fraction(1, 2), Fraction(3)], 0, [1, 2, Fraction(1, 2), Fraction(3)]),
]


@pytest.mark.parametrize("row, c, want", PIVOT_ROWS)
def test_pivot_scales_the_pivot_row(row, c, want):
    from nodeflow import lp as lpmod

    rows = [list(row)]
    lpmod._pivot(rows, [-1], 0, c)
    assert [(type(x), x) for x in rows[0]] == [(type(x), x) for x in want]


def test_no_float_decides_a_pivot():
    # max x s.t. 3x <= 1 and (3*10**17 + 1)x <= 10**17.  The second bound,
    # 10**17 / (3*10**17 + 1), is below 1/3 by less than a float resolves:
    # the two ratios are the same float, and a tie would leave on the first
    # row and report 1/3.  The ratio test must compare them exactly.
    big = 3 * 10**17 + 1
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_constraint({"x": 3}, LE, 1)
    lp.add_constraint({"x": big}, LE, 10**17)
    lp.set_objective({"x": 1})
    assert 1 / 3 == 10**17 / big
    sol = solve_lp(lp)
    assert (sol.status, sol.pivots) == (OPTIMAL, 1)
    assert sol.objective == Fraction(10**17, big)
    assert type(sol.objective) is Fraction
    assert sol.assignment == {"x": Fraction(10**17, big)}


def _highs(lp):
    """(status, objective) from scipy's HiGHS, as floats.  linprog
    minimizes, so it is given the negated objective."""
    from scipy.optimize import linprog

    col = lp.index
    cost = [0.0] * len(lp.variables)
    for name, c in lp.objective.items():
        cost[col[name]] = -float(c)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in lp.constraints:
        vec = [0.0] * len(lp.variables)
        for name, c in con.coeffs.items():
            vec[col[name]] = float(c)
        if con.relation == EQ:
            a_eq.append(vec)
            b_eq.append(float(con.rhs))
        else:
            a_ub.append(vec)
            b_ub.append(float(con.rhs))
    bounds = [(0, None if lp.upper_bounds.get(name) is None
               else float(lp.upper_bounds[name])) for name in lp.variables]
    res = linprog(cost, A_ub=a_ub or None, b_ub=b_ub or None,
                  A_eq=a_eq or None, b_eq=b_eq or None, bounds=bounds,
                  method="highs")
    status = {0: OPTIMAL, 3: UNBOUNDED}[res.status]
    return status, (-res.fun if status == OPTIMAL else None)


def test_zero_rhs_dense_programs_match_highs():
    pytest.importorskip("scipy")
    seen = set()
    for trial, lp in enumerate(_zero_rhs_dense_programs(6101, 120)):
        sol = solve_lp(lp)
        status, objective = _highs(lp)
        assert sol.status == status, trial
        seen.add(status)
        if status != OPTIMAL:
            continue
        x = sol.assignment
        assert all(x[name] >= 0 for name in lp.variables), trial
        assert all(x[name] <= ub for name, ub in lp.upper_bounds.items()), trial
        for con in lp.constraints:
            lhs = sum((c * x[name] for name, c in con.coeffs.items()), rat(0))
            holds = {LE: lhs <= con.rhs, EQ: lhs == con.rhs}[con.relation]
            assert holds, trial
        assert sol.objective == sum(
            (c * x[name] for name, c in lp.objective.items()), rat(0)), trial
        assert abs(float(sol.objective) - objective) <= 1e-9, trial
    assert seen == {OPTIMAL, UNBOUNDED}
