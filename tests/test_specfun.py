"""Jacobi polynomial tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fuzzsphere.algebra import binomial
from fuzzsphere.specfun import JacobiParams, jacobi, jacobi_sum


def series_oracle(n: int, alpha: int, beta: int, x: Fraction) -> Fraction:
    """Term-by-term rational evaluation of the binomial sum."""
    total = Fraction(0)
    for s in range(n + 1):
        c = binomial(n + alpha, n - s) * binomial(n + beta, s)
        total += c * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (n - s)
    return total


def test_degree_zero_is_one():
    for alpha, beta in [(0, 0), (2, -1), (-3, 4), (-1, -1)]:
        assert jacobi(JacobiParams(0, alpha, beta), 0.37) == 1.0


def test_degree_one_legendre():
    for x in (-0.9, 0.0, 0.31, 1.0):
        assert jacobi(JacobiParams(1, 0, 0), x) == pytest.approx(x, abs=1e-15)


def test_against_series_oracle():
    x = Fraction(3, 10)
    exact = series_oracle(3, 2, -1, x)
    assert abs(jacobi(JacobiParams(3, 2, -1), 0.3) - float(exact)) < 1e-13
    for n in range(0, 7):
        for alpha in range(-3, 4):
            for beta in range(-3, 4):
                got = jacobi(JacobiParams(n, alpha, beta), 0.3)
                want = float(series_oracle(n, alpha, beta, x))
                assert abs(got - want) < 1e-13, (n, alpha, beta)


def test_reflection_matches_direct_sum():
    # The negative-upper-index route must agree with the plain binomial sum.
    for n in range(1, 7):
        for ell in range(1, n + 1):
            for beta in range(-2, 4):
                for x in (-0.7, 0.2, 0.9):
                    assert jacobi(JacobiParams(n, -ell, beta), x) == pytest.approx(
                        jacobi_sum(n, -ell, beta, x), abs=1e-13
                    )


def test_three_term_recurrence_residual():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 11))
        alpha = int(rng.integers(-3, 4))
        beta = int(rng.integers(-3, 4))
        # avoid degenerate recurrence denominators
        if n + alpha + beta <= 0 or 2 * n + alpha + beta - 2 <= 0:
            continue
        x = float(rng.uniform(-1, 1))
        pn = jacobi(JacobiParams(n, alpha, beta), x)
        pn1 = jacobi(JacobiParams(n - 1, alpha, beta), x)
        pn2 = jacobi(JacobiParams(n - 2, alpha, beta), x)
        h = 2 * n + alpha + beta
        lhs = 2 * n * (n + alpha + beta) * (h - 2) * pn
        rhs = (h - 1) * ((h - 2) * h * x + alpha**2 - beta**2) * pn1 - 2 * (
            n + alpha - 1
        ) * (n + beta - 1) * h * pn2
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs)), (n, alpha, beta, x)
        checked += 1


def assoc_legendre(j: int, m: int, z: float) -> float:
    """P_j^m(z), m >= 0, with the Condon-Shortley phase, by the upward
    recurrence in the degree: an oracle independent of the Jacobi sum."""
    root = math.sqrt(1.0 - z * z)
    p = 1.0
    for k in range(1, m + 1):
        p *= -(2 * k - 1) * root
    if j == m:
        return p
    p1 = (2 * m + 1) * z * p
    for deg in range(m + 2, j + 1):
        p, p1 = p1, ((2 * deg - 1) * z * p1 - (deg + m - 1) * p) / (deg - m)
    return p1


def test_assoc_legendre_jacobi_consistency():
    # P_{j-m}^{(m,m)} carries P_j^m up to the stated closed-form factor.
    for j in range(0, 6):
        for m in range(0, j + 1):
            for z in (-0.75, -0.2, 0.3, 0.8):
                lhs = jacobi(JacobiParams(j - m, m, m), z)
                rhs = (
                    (-1) ** m
                    * 2**m
                    * (1 - z * z) ** (-m / 2.0)
                    * math.factorial(j)
                    / math.factorial(j + m)
                    * assoc_legendre(j, m, z)
                )
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs)), (j, m, z)


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        JacobiParams(-1, 0, 0)
