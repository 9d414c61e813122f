"""Exact rational linear programming via two-phase primal simplex.

Tableau over exact rationals, Bland's anti-cycling rule throughout, so
results are deterministic and free of rounding.  Rows are stored as full
lists, but a pivot touches only what can change: it scales the pivot row on
its nonzeros, then updates in place only the rows (and the reduced-cost row)
with a nonzero in the entering column, and in those only the columns where
the pivot row is nonzero.  The generated programs are mostly slack and
artificial columns and 0/+-1 incidence rows, so that is a small share of the
tableau.  This is meant for the small and mid-size programs this package
generates, not as a general-purpose LP code.

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
    nart = sum(1 for rel in rels if rel in (GE, EQ))
    ncols = n + nslack + nart
    rows = []
    basis = []
    scol = n
    acol = n + nslack
    art_cols = []
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
        elif rel == GE:
            row[scol] = -ONE
            scol += 1
            row[acol] = ONE
            basis.append(acol)
            art_cols.append(acol)
            acol += 1
        else:
            row[acol] = ONE
            basis.append(acol)
            art_cols.append(acol)
            acol += 1
        rows.append(row)

    allowed = [True] * ncols
    total_pivots = 0

    if art_cols:
        # Phase 1: drive artificials to zero.
        p1cost = [ZERO] * ncols
        for c in art_cols:
            p1cost[c] = -ONE
        status, piv, val = _bland_optimize(rows, basis, p1cost, ncols, allowed)
        total_pivots += piv
        if status != OPTIMAL or val != 0:
            return LpSolution(INFEASIBLE, pivots=total_pivots)
        # Pivot remaining artificials out of the basis where possible;
        # a row with no eligible pivot is redundant and dropped.
        art_set = set(art_cols)
        i = 0
        while i < len(rows):
            if basis[i] in art_set:
                target = -1
                for j in range(ncols):
                    if j not in art_set and rows[i][j] != 0:
                        target = j
                        break
                if target >= 0:
                    _pivot(rows, basis, i, target)
                    total_pivots += 1
                    i += 1
                else:
                    del rows[i]
                    del basis[i]
            else:
                i += 1
        for c in art_set:
            allowed[c] = False

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


def export_lp_text(lp: LinearProgram) -> str:
    """Render as CPLEX LP text for cross-checking against an external solver.

    Rationals are written exactly when integral and as high-precision
    decimals otherwise (the export is a debugging aid; exact results come
    from solve()).
    """

    def num(v):
        v = rat(v)
        if v.denominator == 1:
            return str(v.numerator)
        return repr(v.numerator / v.denominator)

    def terms(coeffs):
        parts = []
        for name in lp.variables:
            if name not in coeffs:
                continue
            c = coeffs[name]
            sign = "+" if c >= 0 else "-"
            parts.append(f"{sign} {num(abs(c))} {name}")
        text = " ".join(parts) if parts else "0 zero__"
        return text.lstrip("+ ")

    out = ["Maximize" if lp.sense == "max" else "Minimize"]
    out.append(f" obj: {terms(lp.objective)}")
    out.append("Subject To")
    for k, con in enumerate(lp.constraints):
        out.append(f" c{k}: {terms(con.coeffs)} {con.relation} {num(con.rhs)}")
    out.append("Bounds")
    for name in lp.variables:
        ub = lp.upper_bounds.get(name)
        if ub is None:
            out.append(f" 0 <= {name}")
        else:
            out.append(f" 0 <= {name} <= {num(ub)}")
    out.append("End")
    return "\n".join(out) + "\n"
