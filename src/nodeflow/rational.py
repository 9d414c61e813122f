"""Exact rational arithmetic used everywhere a flow value or capacity lives.

All solver code in this package works over exact rationals, never floats:
every value the package reports is a fractions.Fraction, normalized at the
package boundary via rat().  Inside a solve, the simplex tableau holds
integral constraint coefficients as Python ints (see lp).
"""

from __future__ import annotations

import decimal
import sys
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# Six significant digits at any exponent, for values outside float range.
_DISPLAY = decimal.Context(prec=6, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def rat(value, den=None):
    """Coerce value to an exact rational.

    Accepts ints, Fractions, and strings of the form "p" or "p/q".  A
    Fraction is returned as it is, not copied: Fractions are immutable.
    Floats are rejected deliberately: a float capacity is almost always a
    formatting accident and silently snapping it to a nearby rational would
    defeat the point of an exact solver.
    """
    if den is not None:
        return rat(value) / rat(den)
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"float {value!r} rejected; use an int or 'p/q' string")
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, _, d = text.partition("/")
                return Fraction(int(num), int(d))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def format_rational(value) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    q = rat(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_decimal(value) -> str:
    """Decimal rendering to six significant digits, for display next to the
    exact value.  A value beyond float range, or a nonzero one below the
    smallest normal float, is rounded from the exact value instead of a
    float that would overflow or lose its digits."""
    q = rat(value)
    try:
        approx = q.numerator / q.denominator
        if not q or abs(approx) >= sys.float_info.min:
            return f"{approx:.6g}"
    except OverflowError:
        pass
    exact = _DISPLAY.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))
    return f"{exact.normalize(_DISPLAY):.6g}"
