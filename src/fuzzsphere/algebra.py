"""Exact arithmetic substrate: half-integers, rationals, and radicals.

Spins and projections are stored as twice-values (the integer 2j), so
half-integer bookkeeping is exact.  Radical numbers sign * (p/q) * sqrt(r/s)
with arbitrary-precision parts are the value class of the exact angular
coupling coefficients.  Square roots of factorial ratios are split into
square and square-free parts from a memoized table of the prime exponents
of n!, so no large integer is ever factored by trial division.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "HalfInt",
    "ExactRadical",
    "factorial",
    "factorial_radical",
    "binomial",
]


def factorial(n: int) -> int:
    """n! as an arbitrary-precision integer; rejects negative input."""
    if n < 0:
        raise ValueError(f"factorial of negative integer {n}")
    return math.factorial(n)


def parity_sign(e: int) -> int:
    """(-1)**e as an exact int for any integer e, negative included."""
    return -1 if e % 2 else 1


def binomial(n: int, k: int) -> int:
    """Generalized binomial coefficient for integer arguments.

    Returns 0 for k < 0, and for 0 <= n < k.  Negative n follows the
    polynomial continuation C(n, k) = (-1)^k C(k - n - 1, k).
    """
    if k < 0:
        return 0
    if n >= 0:
        if k > n:
            return 0
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


@dataclass(frozen=True, order=True)
class HalfInt:
    """Integer or half-integer, stored exactly as its doubled value."""

    twice: int

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice - other.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __float__(self) -> float:
        return self.twice / 2.0

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    @staticmethod
    def projections(j: "HalfInt") -> list["HalfInt"]:
        """All mu with -j <= mu <= j in integer steps, ascending."""
        return [HalfInt(t) for t in range(-j.twice, j.twice + 1, 2)]


# Trial-division bound for square-free normalization.  Radicands arising
# from factorial ratios are smooth, so this fully factors them.
_SMALL_PRIME_BOUND = 100_000


def _square_free_split(n: int) -> tuple[int, int]:
    """Split n > 0 as s*s*f with f square-free (best effort past the bound)."""
    s, f = 1, 1
    d = 2
    while d <= _SMALL_PRIME_BOUND and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    if n > 1:
        r = math.isqrt(n)
        if r * r == n:
            s *= r
        else:
            f *= n
    return s, f


@dataclass(frozen=True, slots=True)
class ExactRadical:
    """Number of the form coeff * sqrt(radicand), both exact rationals.

    Always normalized: square factors of the radicand are folded into the
    coefficient, zero is (0, 1), and the radicand is a positive integer
    (denominators are rationalized away).  Use :func:`radical` or
    :func:`factorial_radical` to build one.
    """

    coeff: Fraction
    radicand: Fraction

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __neg__(self) -> "ExactRadical":
        return ExactRadical(-self.coeff, self.radicand)

    def __mul__(self, other: "ExactRadical") -> "ExactRadical":
        return radical(
            self.coeff * other.coeff, self.radicand * other.radicand
        )

    def scaled(self, q: Fraction | int) -> "ExactRadical":
        return radical(self.coeff * q, self.radicand)

    def squared(self) -> Fraction:
        """Exact rational value of the square."""
        return self.coeff * self.coeff * self.radicand

    def signed_square(self) -> Fraction:
        """sign(value) * value^2, exact; orders like the value itself."""
        sq = self.squared()
        return sq if self.coeff >= 0 else -sq

    def to_float(self) -> float:
        # n / d is float(Fraction(n, d)), without the generic __float__.
        c, r = self.coeff, self.radicand
        return c.numerator / c.denominator * math.sqrt(r.numerator / r.denominator)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        c = self.coeff
        sign = "-" if c < 0 else ""
        c = abs(c)
        if c.denominator == 1:
            coeff_s = str(c.numerator)
        else:
            coeff_s = f"({c.numerator}/{c.denominator})"
        r = self.radicand
        if r == 1:
            return sign + coeff_s
        if r.denominator == 1:
            rad_s = f"√{r.numerator}"
        else:
            rad_s = f"√({r.numerator}/{r.denominator})"
        if c == 1:
            return sign + rad_s
        return f"{sign}{coeff_s}·{rad_s}"


def radical(coeff: Fraction | int, radicand: Fraction | int) -> ExactRadical:
    """Normalized coeff * sqrt(radicand); radicand must be nonnegative."""
    coeff = Fraction(coeff)
    radicand = Fraction(radicand)
    if radicand < 0:
        raise ValueError(f"negative radicand {radicand}")
    if coeff == 0 or radicand == 0:
        return ExactRadical(Fraction(0), Fraction(1))
    # sqrt(p/q) = sqrt(p*q)/q rationalizes the denominator.
    p, q = radicand.numerator, radicand.denominator
    s, f = _square_free_split(p * q)
    return ExactRadical(coeff * Fraction(s, q), Fraction(f))


RADICAL_ZERO = ExactRadical(Fraction(0), Fraction(1))


# Entry n holds the exponents of the primes 2, 3, 5, ... <= n in n!, in the
# order of _PRIMES.  Both lists only grow, under the lock; a prime is
# appended before the first entry that uses it, so readers need no lock.
_PRIMES: list[int] = []
_FACTORIAL_EXPONENTS: list[tuple[int, ...]] = [(), ()]
_FACTORIAL_LOCK = threading.Lock()


def _factorial_exponents(n: int) -> tuple[int, ...]:
    """Prime exponents of n!, memoized; entry k extends entry k-1 by the
    factorization of k over the primes found so far."""
    table = _FACTORIAL_EXPONENTS
    if n < len(table):
        return table[n]
    with _FACTORIAL_LOCK:
        while len(table) <= n:
            k = len(table)
            exps = list(table[-1])
            rest = k
            for i, p in enumerate(_PRIMES):
                while rest % p == 0:
                    rest //= p
                    exps[i] += 1
                if rest == 1:
                    break
            if rest > 1:  # no smaller prime divides k
                _PRIMES.append(k)
                exps.append(1)
            table.append(tuple(exps))
    return table[n]


def factorial_radical(
    num: int, den: int, top: Sequence[int], bottom: int
) -> ExactRadical:
    """Normalized (num/den) * sqrt(prod(n! for n in top) / bottom!).

    The radicand's exponent e of each prime p comes from the factorial
    table; p^(e//2) joins the coefficient and p^(e%2) stays under the root,
    which is the same normalization :func:`radical` reaches by trial
    division.
    """
    if num == 0:
        return RADICAL_ZERO
    exps = [-e for e in _factorial_exponents(bottom)]
    for n in top:
        row = _factorial_exponents(n)
        if len(row) > len(exps):
            exps += [0] * (len(row) - len(exps))
        for i, e in enumerate(row):
            exps[i] += e
    square_num, square_den, free = 1, 1, 1
    for p, e in zip(_PRIMES, exps):
        if e > 0:
            square_num *= p ** (e >> 1)
        elif e < 0:
            square_den *= p ** ((1 - e) >> 1)
        if e & 1:
            free *= p
    return ExactRadical(
        Fraction(num * square_num, den * square_den), Fraction(free)
    )
