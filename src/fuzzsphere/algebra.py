"""Exact arithmetic substrate: half-integers, rationals, and radicals.

Spins and projections are stored as twice-values (the integer 2j), so
half-integer bookkeeping is exact.  Radical numbers sign * (p/q) * sqrt(r/s)
with arbitrary-precision parts are the value class of the exact angular
coupling coefficients.  Square roots of factorial ratios are split into
square and square-free parts from a memoized table of the parity bitmasks
of the prime exponents of n!, so no large integer is ever factored by trial
division.  Such a split (num/den) * sqrt(free) has one float finisher,
:func:`radical_to_float`, which ``ExactRadical.to_float`` also uses.
"""

from __future__ import annotations

import math
import sys
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

# Miller-Rabin with the first 13 primes as bases is exact below 3.3e24
# (Sorenson & Webster, Math. Comp. 86 (2017) 985).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_certified_prime(n: int) -> bool:
    """True when the odd n > 41 is prime and below _MR_LIMIT."""
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^r, d odd
    d = (n - 1) >> r
    return n < _MR_LIMIT and all(
        pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(r))
        for a in _MR_BASES
    )


def _square_free_split(n: int) -> tuple[int, int]:
    """Split n > 0 as s*s*f with f square-free.

    A cofactor left past the trial-division bound stays under the root only
    where it is provably square-free: below 10^15 it has at most two prime
    factors (100003^3 is larger), or it is a certified prime.  Otherwise
    ValueError names it.
    """
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
        elif n < 10**15 or _is_certified_prime(n):
            f *= n
        else:
            raise ValueError(f"cannot find the square part of the cofactor {n}")
    return s, f


@dataclass(frozen=True, slots=True)
class ExactRadical:
    """Number of the form coeff * sqrt(radicand): an exact rational times
    the root of a square-free positive integer.

    Always normalized: square factors of the radicand are folded into the
    coefficient, zero is (0, 1), and denominators under the root are
    rationalized away.  Use :func:`radical` or
    :func:`factorial_radical` to build one.
    """

    coeff: Fraction
    radicand: int

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __neg__(self) -> "ExactRadical":
        return ExactRadical(-self.coeff, self.radicand)

    def __mul__(self, other: "ExactRadical") -> "ExactRadical":
        # sqrt(a) sqrt(b) = g sqrt((a/g)(b/g)) for g = gcd(a, b); the
        # cofactors of two square-free radicands are coprime and square-free.
        a, b = self.radicand, other.radicand
        g = math.gcd(a, b)
        coeff = self.coeff * other.coeff * g
        if coeff == 0:
            return RADICAL_ZERO
        return ExactRadical(coeff, (a // g) * (b // g))

    def scaled(self, q: Fraction | int) -> "ExactRadical":
        coeff = self.coeff * q
        if coeff == 0:
            return RADICAL_ZERO
        return ExactRadical(coeff, self.radicand)

    def squared(self) -> Fraction:
        """Exact rational value of the square."""
        return self.coeff * self.coeff * self.radicand

    def signed_square(self) -> Fraction:
        """sign(value) * value^2, exact; orders like the value itself."""
        sq = self.squared()
        return sq if self.coeff >= 0 else -sq

    def to_float(self) -> float:
        c = self.coeff
        return radical_to_float(c.numerator, c.denominator, self.radicand)

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
        if self.radicand == 1:
            return sign + coeff_s
        rad_s = f"√{self.radicand}"
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
        return RADICAL_ZERO
    # sqrt(p/q) = sqrt(p*q)/q rationalizes the denominator.
    p, q = radicand.numerator, radicand.denominator
    s, f = _square_free_split(p * q)
    return ExactRadical(coeff * Fraction(s, q), f)


RADICAL_ZERO = ExactRadical(Fraction(0), 1)


# Bit i of entry n is set when the prime _PRIMES[i] divides n! an odd number
# of times.  Both lists only grow, under the lock; a prime is appended before
# the first entry that uses it, so readers need no lock.
_PRIMES: list[int] = []
_FACTORIAL_PARITY: list[int] = [0, 0]
_FACTORIAL_LOCK = threading.Lock()


def _factorial_parity(n: int) -> list[int]:
    """The parity table, grown to hold n!: entry k is entry k-1 XOR the
    odd-exponent primes of k, found among the primes so far."""
    table = _FACTORIAL_PARITY
    if n < len(table):
        return table
    with _FACTORIAL_LOCK:
        while len(table) <= n:
            k = len(table)
            mask = table[-1]
            rest = k
            for i, p in enumerate(_PRIMES):
                while rest % p == 0:
                    rest //= p
                    mask ^= 1 << i
                if rest == 1:
                    break
            if rest > 1:  # no smaller prime divides k
                mask ^= 1 << len(_PRIMES)
                _PRIMES.append(k)
            table.append(mask)
    return table


def factorial_sqrt(top: Sequence[int], bottom: int) -> tuple[int, int, int]:
    """(a, b, free) with sqrt(prod(n! for n in top) / bottom!) = (a/b) sqrt(free)
    and free square-free.

    free is the product of the primes whose exponents in the ratio are odd,
    the XOR of the factorials' parity masks.  With T the numerator and B the
    denominator, T B free is a perfect square, so sqrt(T/B) = sqrt(free)
    isqrt(T B free) / (B free) is exact; a/b is not reduced.
    """
    parity = _factorial_parity(max(bottom, *top) if top else bottom)
    mask = parity[bottom]
    t = 1
    for n in top:
        mask ^= parity[n]
        t *= math.factorial(n)
    free = 1
    while mask:
        low = mask & -mask
        free *= _PRIMES[low.bit_length() - 1]
        mask ^= low
    b = math.factorial(bottom) * free
    return math.isqrt(t * b), b, free


def factorial_radical(
    num: int, den: int, top: Sequence[int], bottom: int
) -> ExactRadical:
    """Normalized (num/den) * sqrt(prod(n! for n in top) / bottom!).

    The square-free part of the radicand comes from the parity masks of the
    factorials (:func:`factorial_sqrt`), which is the same normalization
    :func:`radical` reaches by trial division.
    """
    if num == 0:
        return RADICAL_ZERO
    a, b, free = factorial_sqrt(top, bottom)
    return ExactRadical(Fraction(num * a, den * b), free)


_TINY = sys.float_info.min


def radical_to_float(num: int, den: int, free: int) -> float:
    """(num/den) * sqrt(free) as a float, for den > 0 and free >= 1.

    int / int is correctly rounded, so the float depends on the value of
    num/den alone, not on its representation.  Where that quotient or free
    is out of float range, or the quotient is subnormal, the value is
    scaled in integers instead (:func:`_scaled_radical_float`).
    """
    try:
        coeff = num / den
        value = coeff * math.sqrt(free)
    except OverflowError:
        return _scaled_radical_float(num, den, free)
    if num and (abs(coeff) < _TINY or math.isinf(value)):
        return _scaled_radical_float(num, den, free)
    return value


def _scaled_radical_float(num: int, den: int, free: int) -> float:
    """(num/den) * sqrt(free) to within one ulp, from the integer square root
    of its square scaled by 4^k to 2^126 or more; raises OverflowError past
    the float range.  num/den is reduced first, so the result depends on the
    value alone."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    top, bottom = num * num * free, den * den
    k = (128 - top.bit_length() + bottom.bit_length()) // 2
    if k >= 0:
        q = (top << 2 * k) // bottom
    else:
        q = top // (bottom << -2 * k)
    value = math.ldexp(math.isqrt(q), -k)
    return -value if num < 0 else value
