"""Exact arithmetic substrate tests."""

import math
from fractions import Fraction

import pytest

from fuzzsphere.algebra import (
    HalfInt,
    binomial,
    factorial,
    parity_sign,
    radical,
)


def test_factorial_basics():
    assert factorial(0) == 1
    assert factorial(5) == 120


def test_factorial_20_against_iterative_oracle():
    product = 1
    for i in range(2, 21):
        product *= i
    assert factorial(20) == product == 2432902008176640000


def test_factorial_negative_rejected():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_basics():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(7, -1) == 0


def test_binomial_pascal_triangle_oracle():
    # Build Pascal's triangle independently and compare row 10.
    row = [1]
    for _ in range(10):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    assert [binomial(10, k) for k in range(11)] == row
    assert binomial(10, 5) == 252


def test_binomial_negative_upper_continuation():
    # C(-2, 3) = (-2)(-3)(-4)/6 = -4 by the falling-factorial definition.
    def falling(n, k):
        num = 1
        for i in range(k):
            num *= n - i
        return num // math.factorial(k)

    for n in range(-5, 0):
        for k in range(0, 6):
            assert binomial(n, k) == falling(n, k)


def test_parity_sign_negative_exponents_stay_int():
    assert parity_sign(-3) == -1
    assert parity_sign(-4) == 1
    assert isinstance(parity_sign(-7), int)


def test_radical_mul_examples():
    r2 = radical(1, 2)
    assert r2 * r2 == radical(2, 1)
    assert radical(Fraction(1, 3), 3) * radical(1, 3) == radical(1, 1)
    sq = radical(Fraction(-1, 3), 3) * radical(Fraction(-1, 3), 3)
    assert sq == radical(Fraction(1, 3), 1)
    # float cross-check of the squared value
    assert abs(sq.to_float() - radical(Fraction(-1, 3), 3).to_float() ** 2) < 1e-15


def test_radical_square_float_consistency():
    cases = [
        radical(Fraction(3, 7), Fraction(5, 2)),
        radical(Fraction(-11, 4), 45),
        radical(Fraction(2, 9), Fraction(49, 18)),
    ]
    for x in cases:
        lhs = x.to_float() ** 2
        rhs = (x * x).to_float()
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))


def test_radical_normalization_canonical():
    # Square factors fold into the coefficient; denominators rationalize.
    assert radical(1, 8) == radical(2, 2)
    assert radical(1, Fraction(1, 2)) == radical(Fraction(1, 2), 2)
    assert radical(0, 17) == radical(0, 1)
    z = radical(5, 0)
    assert z.is_zero() and z.radicand == 1


def test_radical_negative_radicand_rejected():
    with pytest.raises(ValueError):
        radical(1, -2)


def test_radical_str_format():
    assert str(radical(Fraction(-1, 3), 3)) == "-(1/3)·√3"
    assert str(radical(2, 1)) == "2"
    assert str(radical(0, 1)) == "0"
    assert str(radical(1, 5)) == "√5"


def test_halfint_arithmetic_exhaustive():
    vals = [HalfInt(t) for t in range(-8, 9)]
    for a in vals:
        for b in vals:
            assert (a + b).twice == (b + a).twice
            assert (a - b).twice == -(b - a).twice
            for c in vals:
                assert ((a + b) + c).twice == (a + (b + c)).twice


def test_halfint_properties():
    assert HalfInt(4).is_integer
    assert not HalfInt(3).is_integer
    assert float(HalfInt(3)) == 1.5
    assert str(HalfInt(3)) == "3/2"
    assert str(HalfInt(-4)) == "-2"
    assert HalfInt.projections(HalfInt(3)) == [
        HalfInt(-3), HalfInt(-1), HalfInt(1), HalfInt(3),
    ]
