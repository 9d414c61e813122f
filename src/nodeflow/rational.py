"""Exact rational arithmetic used everywhere a flow value or capacity lives.

All solver code in this package works over exact rationals, never floats.
gmpy2's mpq is used when available, fractions.Fraction otherwise.  mpq is
expected to be faster inside the simplex pivot loop, but that speedup has not
been measured for this package: every timing recorded in this repository ran
on Fraction.  Both types interoperate, so callers may pass either -- values
are normalized at the package boundary via rat().
"""

from __future__ import annotations

import numbers
from fractions import Fraction

try:
    from gmpy2 import mpq as _make

    _rational_types = (type(_make(1)), Fraction)
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _make = Fraction
    _rational_types = (Fraction,)

ZERO = _make(0)
ONE = _make(1)


def rat(value, den=None):
    """Coerce value to an exact rational.

    Accepts ints, existing rationals, and strings of the form "p" or "p/q".
    Floats are rejected deliberately: a float capacity is almost always a
    formatting accident and silently snapping it to a nearby rational would
    defeat the point of an exact solver.
    """
    if den is not None:
        return _make(rat(value)) / _make(rat(den))
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, _rational_types):
        return _make(value)
    if isinstance(value, int):
        return _make(value)
    if isinstance(value, float):
        raise TypeError(f"float {value!r} rejected; use an int or 'p/q' string")
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, _, d = text.partition("/")
                return _make(int(num)) / _make(int(d))
            return _make(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    if isinstance(value, numbers.Rational):
        return _make(value.numerator) / _make(value.denominator)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def format_rational(value) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    q = rat(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_decimal(value, digits: int = 6) -> str:
    """Decimal rendering for display next to the exact value."""
    q = rat(value)
    return f"{q.numerator / q.denominator:.{digits}g}"
