from fractions import Fraction

import pytest

from nodeflow import as_decimal, format_rational, rat


def test_int_and_pair():
    assert rat(3) == 3
    assert rat(3, 2) == Fraction(3, 2)
    assert rat(-7, 14) == Fraction(-1, 2)


def test_string_forms():
    assert rat("5") == 5
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2/6") == Fraction(-1, 3)


def test_fraction_passthrough():
    assert rat(Fraction(22, 7)) == Fraction(22, 7)


def test_fraction_is_returned_not_copied():
    q = Fraction(22, 7)
    assert rat(q) is q
    # Everything else still converts to a new Fraction.
    for value, want in ((3, 3), ("-3/6", Fraction(-1, 2)), (" 4 ", 4)):
        got = rat(value)
        assert type(got) is Fraction and got == want


def test_floats_rejected():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(3.0)


def test_bools_rejected():
    with pytest.raises(TypeError, match="bool"):
        rat(True)
    with pytest.raises(TypeError, match="bool"):
        rat(False)


def test_exactness():
    third = rat(1, 3)
    assert third + third + third == 1
    assert rat(1, 10) * 10 == 1


def test_format_rational():
    assert format_rational(rat(4)) == "4"
    assert format_rational(rat(3, 2)) == "3/2"


def test_as_decimal():
    assert as_decimal(rat(3, 2)) == "1.5"
    assert as_decimal(rat(1, 3)).startswith("0.3333")


def test_as_decimal_beyond_float_range():
    # Exact rounding where a float would overflow or underflow; the float
    # rendering everywhere in between.
    assert as_decimal(10 ** 400) == "1e+400"
    assert as_decimal(rat(-3 * 10 ** 400, 7)) == "-4.28571e+399"
    assert as_decimal(rat(1, 10 ** 400)) == "1e-400"
    assert as_decimal(rat(123456789, 10 ** 330)) == "1.23457e-322"
    assert as_decimal(10 ** 300) == "1e+300"
    assert as_decimal(rat(2, 10 ** 300)) == "2e-300"
    assert as_decimal(0) == "0"
