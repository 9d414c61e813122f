"""Exact rational linear programming via two-phase primal simplex.

Tableau over exact rationals, Bland's anti-cycling rule throughout, so
results are deterministic and free of rounding.  Each row is put in standard
form with a nonnegative right-hand side.  A <= row starts with its slack
basic.  A >= row, and an equality row with a nonzero right-hand side, start
with an artificial basic.  An equality row with right-hand side 0 gets no
artificial: once the tableau is built, each such row, in row order, is
pivoted on its lowest-index nonzero column.  That pivot moves no right-hand
side, so the basis stays feasible; a row left with no nonzero entry is
redundant and dropped.  Phase 1 runs only when there are artificials, and
the arc programs (conservation and capacity rows only) have none.

Rows are stored as full lists, but a pivot touches only what can change: it
scales the pivot row on its nonzeros, then updates in place only the rows
(and the reduced-cost row) with a nonzero in the entering column, and in
those only the columns where the pivot row is nonzero.  The generated
programs are mostly slack columns and 0/+-1 incidence rows, so that is a
small share of the tableau.  This is meant for the small and mid-size
programs this package generates, not as a general-purpose LP code.

Infeasible and unbounded are statuses on the returned solution, never
exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedProgram
from .rational import ZERO, ONE, rat

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, GE, EQ = "<=", ">=", "="


@dataclass
class Constraint:
    coeffs: dict  # var name -> rational
    relation: str
    rhs: object


@dataclass
class LinearProgram:
    """A program over named variables, all implicitly >= 0."""

    sense: str = "max"
    variables: list = field(default_factory=list)
    upper_bounds: dict = field(default_factory=dict)
    objective: dict = field(default_factory=dict)
    constraints: list = field(default_factory=list)
    index: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)  # name -> position in variables

    def __post_init__(self):
        for name in self.variables:
            if name in self.index:
                raise MalformedProgram(f"duplicate variable {name!r}")
            self.index[name] = len(self.index)

    def add_variable(self, name, upper=None, objective=None):
        if name in self.index:
            raise MalformedProgram(f"duplicate variable {name!r}")
        self.index[name] = len(self.variables)
        self.variables.append(name)
        if upper is not None:
            self.upper_bounds[name] = rat(upper)
        if objective is not None:
            self.objective[name] = rat(objective)
        return name

    def add_constraint(self, coeffs, relation, rhs):
        if relation not in (LE, GE, EQ):
            raise MalformedProgram(f"bad relation {relation!r}")
        cleaned = {}
        for name, c in coeffs.items():
            if name not in self.index:
                raise MalformedProgram(f"constraint uses undeclared variable {name!r}")
            c = rat(c)
            if c != 0:
                cleaned[name] = c
        self.constraints.append(Constraint(cleaned, relation, rat(rhs)))

    def set_objective(self, coeffs, sense="max"):
        if sense not in ("max", "min"):
            raise MalformedProgram(f"bad sense {sense!r}")
        for name in coeffs:
            if name not in self.index:
                raise MalformedProgram(f"objective uses undeclared variable {name!r}")
        self.sense = sense
        self.objective = {k: rat(v) for k, v in coeffs.items()}


@dataclass
class LpSolution:
    status: str
    objective: object = None
    assignment: dict = field(default_factory=dict)
    pivots: int = 0

    def value(self, name):
        return self.assignment.get(name, ZERO)


def _pivot(rows, basis, r, c, z=None):
    """Pivot on rows[r][c] in place, eliminating column c from every other
    row and from the reduced-cost row z when given."""
    prow = rows[r]
    piv = prow[c]
    if piv != 1:
        inv = ONE / piv
        for j, x in enumerate(prow):
            if x:
                prow[j] = x * inv
    nz = [(j, x) for j, x in enumerate(prow) if x]
    neg = [(j, -x) for j, x in nz]
    for row in rows if z is None else (*rows, z):
        f = row[c]
        if not f or row is prow:
            continue
        # Most multipliers are +-1 (incidence rows) and about half the
        # targets are 0; both cases skip a rational multiply or subtract.
        if f == 1:
            upd = nz
        elif f == -1:
            upd = neg
        else:
            upd = [(j, f * x) for j, x in nz]
        for j, d in upd:
            v = row[j]
            row[j] = v - d if v else -d
    basis[r] = c


def _bland_optimize(rows, basis, cost, ncols, allowed):
    """Maximize cost over the current tableau.  rows carry [A | b]; the
    objective row is maintained implicitly through reduced costs.

    Returns (status, pivots, objective)."""
    # z-row: reduced costs d_j = c_j - c_B . column_j, tracked explicitly.
    z = list(cost) + [ZERO]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb:
            for j, x in enumerate(rows[i]):
                if x:
                    z[j] -= cb * x
    pivots = 0
    while True:
        enter = -1
        for j in range(ncols):
            if allowed[j] and z[j] > 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL, pivots, -z[ncols]
        leave = -1
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[ncols] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED, pivots, None
        _pivot(rows, basis, leave, enter, z)
        pivots += 1


def _pivot_zero_rows(rows, basis, positions):
    """Give each EQ row with right-hand side 0 a basic column without an
    artificial: pivot the rows at positions, in order, each on its
    lowest-index nonzero column.  Such a pivot adds multiples of a row whose
    right-hand side is 0, so no right-hand side moves and the basis stays
    feasible.  A row left with no nonzero entry is redundant and dropped.

    Returns the number of pivots."""
    pivots = 0
    dropped = 0
    for r in positions:
        r -= dropped
        # The right-hand side stays 0, so any nonzero is a coefficient.
        c = next((j for j, x in enumerate(rows[r]) if x), -1)
        if c < 0:
            del rows[r]
            del basis[r]
            dropped += 1
        else:
            _pivot(rows, basis, r, c)
            pivots += 1
    return pivots


def solve(lp: LinearProgram) -> LpSolution:
    names = list(lp.variables)
    index = lp.index
    n = len(names)

    # Declared constraints plus upper bounds as <= rows, each row built once
    # in standard form: negated when its right-hand side is negative, so b >= 0.
    specs = [(con.coeffs, con.relation, con.rhs) for con in lp.constraints]
    specs += [({name: ONE}, LE, ub) for name, ub in lp.upper_bounds.items()]
    flip = {LE: GE, GE: LE, EQ: EQ}
    rels = [flip[rel] if rhs < 0 else rel for _, rel, rhs in specs]
    nslack = sum(1 for rel in rels if rel in (LE, GE))
    nart = sum(1 for (_, _, rhs), rel in zip(specs, rels)
               if rel == GE or (rel == EQ and rhs != 0))
    first_art = n + nslack
    ncols = first_art + nart
    rows = []
    basis = []
    scol = n
    acol = first_art
    zero_eq = []      # positions of the EQ rows with right-hand side 0
    for (coeffs, _, rhs), rel in zip(specs, rels):
        row = [ZERO] * (ncols + 1)
        neg = rhs < 0
        for name, c in coeffs.items():
            row[index[name]] = -c if neg else c
        row[ncols] = -rhs if neg else rhs
        if rel == LE:
            row[scol] = ONE
            basis.append(scol)
            scol += 1
        elif rel == EQ and rhs == 0:
            zero_eq.append(len(rows))
            basis.append(-1)
        else:
            if rel == GE:
                row[scol] = -ONE
                scol += 1
            row[acol] = ONE
            basis.append(acol)
            acol += 1
        rows.append(row)

    total_pivots = _pivot_zero_rows(rows, basis, zero_eq)
    allowed = [True] * ncols

    if nart:
        # Phase 1: drive artificials to zero.
        p1cost = [ZERO] * first_art + [-ONE] * nart
        status, piv, val = _bland_optimize(rows, basis, p1cost, ncols, allowed)
        total_pivots += piv
        if status != OPTIMAL or val != 0:
            return LpSolution(INFEASIBLE, pivots=total_pivots)
        # Pivot remaining artificials out of the basis where possible;
        # a row with no eligible pivot is redundant and dropped.
        i = 0
        while i < len(rows):
            if basis[i] >= first_art:
                target = next((j for j in range(first_art) if rows[i][j]), -1)
                if target >= 0:
                    _pivot(rows, basis, i, target)
                    total_pivots += 1
                    i += 1
                else:
                    del rows[i]
                    del basis[i]
            else:
                i += 1
        allowed[first_art:] = [False] * nart

    sign = ONE if lp.sense == "max" else -ONE
    cost = [ZERO] * ncols
    for name, c in lp.objective.items():
        cost[index[name]] = sign * c
    status, piv, val = _bland_optimize(rows, basis, cost, ncols, allowed)
    total_pivots += piv
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, pivots=total_pivots)

    assignment = {}
    for i, b in enumerate(basis):
        if b < n:
            assignment[names[b]] = rows[i][ncols]
    for name in names:
        assignment.setdefault(name, ZERO)
    return LpSolution(OPTIMAL, sign * val, assignment, total_pivots)
