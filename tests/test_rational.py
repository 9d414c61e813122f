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


def test_floats_rejected():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(3.0)


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
