"""Exact arithmetic substrate tests."""

import math
import random
from fractions import Fraction

import pytest

from fuzzsphere.algebra import (
    HalfInt,
    binomial,
    factorial,
    factorial_radical,
    parity_sign,
    radical,
    radical_to_float,
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


def test_radical_cofactor_past_trial_division():
    # 100003 and 100019 are the first primes past the trial-division bound.
    p, q = 100003, 100019
    with pytest.raises(ValueError, match=str(p * p * q)):
        radical(1, p * p * q)
    assert radical(1, 2**61 - 1).radicand == 2**61 - 1  # a Mersenne prime
    assert radical(1, p * q).radicand == p * q
    assert radical(1, p * p) == radical(p, 1)


def test_radical_str_format():
    assert str(radical(Fraction(-1, 3), 3)) == "-(1/3)·√3"
    assert str(radical(2, 1)) == "2"
    assert str(radical(0, 1)) == "0"
    assert str(radical(1, 5)) == "√5"


def test_factorial_radical_matches_trial_division():
    rng = random.Random(5)
    for _ in range(300):
        top = [rng.randrange(0, 60) for _ in range(rng.randrange(0, 10))]
        bottom = rng.randrange(0, 70)
        num = rng.randrange(-10**6, 10**6)
        den = rng.randrange(1, 10**6)
        ratio = Fraction(math.prod(math.factorial(n) for n in top), math.factorial(bottom))
        assert factorial_radical(num, den, top, bottom) == radical(Fraction(num, den), ratio)
    assert factorial_radical(0, 7, (5, 3), 4) == radical(0, 1)


def test_scaled_and_product_equal_trial_division_radical():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    small = st.integers(-60, 60)
    positive = st.integers(1, 60)
    # radicands of products of small integers, so trial division is exact
    radicands = st.lists(st.integers(0, 40), max_size=6).map(math.prod)
    radicals = st.builds(
        lambda p, q, a, b: radical(Fraction(p, q), Fraction(a, b)),
        small, positive, radicands, radicands.filter(bool),
    )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(radicals, radicals, small, positive)
    def check(x, y, p, q):
        k = Fraction(p, q)
        assert x.scaled(k) == radical(x.coeff * k, x.radicand)
        assert x.scaled(p) == radical(x.coeff * p, x.radicand)
        assert x * y == radical(x.coeff * y.coeff, x.radicand * y.radicand)

    check()


def test_to_float_is_the_plain_quotient_in_range():
    # In float range, to_float is the correctly rounded quotient times the
    # rounded root, bit for bit.
    rng = random.Random(11)
    for _ in range(500):
        x = factorial_radical(
            rng.randrange(-10**30, 10**30), rng.randrange(1, 10**30),
            [rng.randrange(0, 80) for _ in range(rng.randrange(0, 9))], rng.randrange(0, 90),
        )
        c, r = x.coeff, x.radicand
        assert x.to_float() == c.numerator / c.denominator * math.sqrt(r.numerator / r.denominator)


def test_radical_to_float_scales_past_float_range():
    # quotient below the normal range, exact result
    assert radical_to_float(3, 2**1100, 2**200) == 3 * 2.0**-1000
    assert radical_to_float(-3, 2**1100, 2**200) == -3 * 2.0**-1000
    # radicand past 2^1024, exact result
    assert radical_to_float(5, 2**700, 2**1200) == 5 * 2.0**-100
    # neither exact: next to the value the float expression gives
    got = radical_to_float(7, 10**400, 3 * 10**500)
    want = 7 * math.sqrt(3) * 1e-150
    assert abs(got - want) <= 2 * math.ulp(want)
    assert radical_to_float(0, 10**400, 3 * 10**500) == 0.0
    # past the float range either way
    with pytest.raises(OverflowError):
        radical_to_float(10**400, 1, 1)
    with pytest.raises(OverflowError):
        radical_to_float(1, 1, 10**700)
    assert radical_to_float(1, 10**400, 1) == 0.0


def test_exact_radical_has_no_instance_dict():
    r = radical(Fraction(1, 3), 3)
    assert not hasattr(r, "__dict__")
    with pytest.raises(AttributeError):
        r.coeff = Fraction(2)


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
