"""Exact rational linear programming via the primal simplex.

A program maximizes c.x over x >= 0 subject to <= rows with right-hand side
b >= 0, = rows with b = 0 and upper bounds >= 0: the form both program
builders in te produce.  Anything else raises MalformedProgram when it is
added.  Minimizing c.x is maximizing -c.x, and a >= row is the <= row with
coefficients and right-hand side negated; the caller writes them so.

Tableau over exact rationals, Bland's anti-cycling rule throughout, so
results are deterministic and free of rounding.  Integral data stays Python
ints from the build through every pivot: the zero fill, a row's
declared coefficients and costs whose denominator is 1, and its slack's 1
start as ints.  Int operators on ints give ints, and _pivot divides by an
int pivot element exactly, keeping each whole quotient of an int an int, so
an entry computed from ints alone stays an int while it is whole; the other
entries are Fractions.  The right-hand sides and the objective's entry in the
reduced-cost row are Fractions throughout, so the objective and every
assignment value a solve reports is a Fraction, and the ratio test divides
a Fraction, never int by int, which Python would evaluate as a float.
Python's int and Fraction operators are exact and compare by value, so the
pivots and every comparison are the same as on an all-Fraction tableau.
Int arithmetic on the 0/+-1 incidence coefficients, and a truth test on an
int zero, cost far less than their Fraction forms.  Every program starts
from the origin, where every row holds.  Each <= row starts with its slack
basic.  An equality row gets no slack: once the tableau is built, each one,
in row order, is pivoted on its lowest-index nonzero column.  That pivot
moves no right-hand side, so the basis stays feasible; a row left with no
nonzero entry is redundant and dropped.  There are no artificial columns
and no phase 1, so a solve is either optimal or unbounded.

Rows are stored as full lists, but a pivot touches only what can change: it
scales the pivot row on its nonzeros (negates it when the pivot element is
-1, leaves it when it is 1), then updates in place only the rows (and the
reduced-cost row) with a nonzero in the entering column, and in those only
the columns where the pivot row is nonzero.  A row whose multiplier is +1
subtracts the pivot row and one whose multiplier is -1 adds it, with no
product formed; only other multipliers multiply.  The ratio test divides
only by an entering entry other than 1.  The generated programs are mostly
slack columns and 0/+-1 incidence rows, so that is a small share of the
tableau and most updates take the unit paths.  This is meant for the small
and mid-size programs this package generates, not as a general-purpose LP
code.

Unbounded is a status on the returned solution, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import MalformedProgram
from .rational import ZERO, ONE, rat

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

LE, EQ = "<=", "="


_HOLDS_AT_ORIGIN = {LE: lambda b: b >= 0, EQ: lambda b: b == 0}


def _check_origin(relation, rhs):
    """Raise MalformedProgram unless the row holds at the origin."""
    if relation not in _HOLDS_AT_ORIGIN:
        raise MalformedProgram(f"bad relation {relation!r}")
    if not _HOLDS_AT_ORIGIN[relation](rhs):
        raise MalformedProgram(f"row {relation} {rhs} fails at the origin")


@dataclass
class Constraint:
    coeffs: dict  # var name -> rational
    relation: str
    rhs: object


@dataclass
class LinearProgram:
    """Maximize objective over named variables, all implicitly >= 0.  Built
    empty, then by add_variable, add_constraint and set_objective."""

    variables: list = field(default_factory=list, init=False)
    upper_bounds: dict = field(default_factory=dict, init=False)
    objective: dict = field(default_factory=dict, init=False)
    constraints: list = field(default_factory=list, init=False)
    index: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)  # name -> position in variables

    def add_variable(self, name, upper=None):
        if name in self.index:
            raise MalformedProgram(f"duplicate variable {name!r}")
        if upper is not None:
            upper = rat(upper)
            _check_origin(LE, upper)
            self.upper_bounds[name] = upper
        self.index[name] = len(self.variables)
        self.variables.append(name)
        return name

    def add_constraint(self, coeffs, relation, rhs):
        rhs = rat(rhs)
        _check_origin(relation, rhs)
        cleaned = {}
        for name, c in coeffs.items():
            if name not in self.index:
                raise MalformedProgram(f"constraint uses undeclared variable {name!r}")
            c = rat(c)
            if c != 0:
                cleaned[name] = c
        self.constraints.append(Constraint(cleaned, relation, rhs))

    def set_objective(self, coeffs):
        for name in coeffs:
            if name not in self.index:
                raise MalformedProgram(f"objective uses undeclared variable {name!r}")
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
    row and from the reduced-cost row z when given.

    The pivot row is scaled first: negated when the pivot element is -1,
    left when it is 1.  An int pivot element other than +-1 divides each
    entry exactly: an int entry it divides becomes the int quotient,
    another int entry Fraction(x, piv), and a Fraction entry x / piv.  A
    Fraction pivot element multiplies the row by its inverse."""
    prow = rows[r]
    piv = prow[c]
    if piv == -1:
        for j, x in enumerate(prow):
            if x:
                prow[j] = -x
    elif piv != 1:
        if type(piv) is int:
            # x / piv on two ints would be a float, so ints divide apart.
            for j, x in enumerate(prow):
                if x:
                    if type(x) is not int:
                        prow[j] = x / piv
                    elif x % piv:
                        prow[j] = Fraction(x, piv)
                    else:
                        prow[j] = x // piv
        else:
            inv = ONE / piv
            for j, x in enumerate(prow):
                if x:
                    prow[j] = x * inv
    nz = [(j, x) for j, x in enumerate(prow) if x]
    for row in rows if z is None else (*rows, z):
        f = row[c]
        if not f or row is prow:
            continue
        # Most multipliers are +-1 (incidence rows) and about half the
        # targets are 0.  Multiplier +1 subtracts the pivot row and -1 adds
        # it, with no product; a zero target under -1 takes the pivot-row
        # entry itself (ints and Fractions are immutable, so sharing it is
        # safe).
        if f == 1:
            for j, x in nz:
                v = row[j]
                row[j] = v - x if v else -x
        elif f == -1:
            for j, x in nz:
                v = row[j]
                row[j] = v + x if v else x
        else:
            for j, x in nz:
                d = f * x
                v = row[j]
                row[j] = v - d if v else -d
    basis[r] = c


def _bland_optimize(rows, basis, cost, ncols):
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
        enter = next((j for j in range(ncols) if z[j] > 0), -1)
        if enter < 0:
            return OPTIMAL, pivots, -z[ncols]
        leave = -1
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[ncols] if a == 1 else row[ncols] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED, pivots, None
        _pivot(rows, basis, leave, enter, z)
        pivots += 1


def _pivot_eq_rows(rows, basis, positions):
    """Give each EQ row a basic column: pivot the rows at positions, in
    order, each on its lowest-index nonzero column.  An EQ row's right-hand
    side is 0, so such a pivot moves no right-hand side and the basis stays
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
    names = lp.variables
    index = lp.index
    n = len(names)

    # Declared constraints plus upper bounds as <= rows, each row built once
    # with a slack basic in every <= row.
    specs = [(con.coeffs, con.relation, con.rhs) for con in lp.constraints]
    specs += [({name: ONE}, LE, ub) for name, ub in lp.upper_bounds.items()]
    ncols = n + sum(1 for _, rel, _ in specs if rel != EQ)
    rows = []
    basis = []
    scol = n
    eq_rows = []      # positions of the EQ rows
    for coeffs, rel, rhs in specs:
        row = [0] * (ncols + 1)
        for name, c in coeffs.items():
            row[index[name]] = c.numerator if c.denominator == 1 else c
        row[ncols] = rhs
        if rel == EQ:
            eq_rows.append(len(rows))
            basis.append(-1)
        else:
            row[scol] = 1
            basis.append(scol)
            scol += 1
        rows.append(row)

    pivots = _pivot_eq_rows(rows, basis, eq_rows)
    cost = [0] * ncols
    for name, c in lp.objective.items():
        cost[index[name]] = c.numerator if c.denominator == 1 else c
    status, piv, val = _bland_optimize(rows, basis, cost, ncols)
    pivots += piv
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, pivots=pivots)

    assignment = dict.fromkeys(names, ZERO)
    for i, b in enumerate(basis):
        if b < n:
            assignment[names[b]] = rows[i][ncols]
    return LpSolution(OPTIMAL, val, assignment, pivots)
