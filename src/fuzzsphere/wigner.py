"""Exact 3j-symbols and SU(2) representation matrices, Talman convention.

Every representation matrix element, column or matrix comes from one
memoized eigenbasis of the generator Lambda_1 per 2j (:func:`wigner_D`),
measured up to ``D_MATRIX_MAX_TWO_J``; the explicit alternating sum
(:func:`wigner_D_sum`) is kept only as the small-j oracle.

The 3j value is an exact radical: the alternating sum over the single
summation index is a rational, and the triangle/projection factorials stay
under the square root.  Symmetry relations and orthogonality sums therefore
hold exactly, not just numerically.

One integer kernel (:func:`_three_j_parts`) sums the Racah series as one
integer over a common denominator and splits the square root through the
parity bitmasks of the factorials' prime exponents
(:func:`fuzzsphere.algebra.factorial_sqrt`), in the manner of Johansson and
Forssen, SIAM J. Sci. Comput. 38 (2016) A376.  It returns (num, den, free)
with the symbol equal to (num/den) sqrt(free); the exact route finishes it,
and the fuzzy-sphere constant :func:`fuzzsphere.fuzzy.c_of_ell_closed` folds
its parts into one radical.  The float tables below share its square-root
splitting but not its series.

Exact lookups take twice-valued plain ints (:func:`three_j_twice`; the keyed
:func:`three_j` delegates to it) and memoize each symbol under its six ints
as given, filled from the kernel on the columns in that order; the memo
counts its hits and misses (:func:`three_j_cache_info`).  Column images of
a symbol are separate entries, each summed on its own columns, so the
symmetry relations between them test the kernel.

The closed-form quantization reads whole bands of symbols: the family
(j j l; -mu, mu-m, m) at fixed (2j, l) is closed under the swap of its first
two columns and under m-negation, so one memoized float table per (2j, l)
(:func:`_three_j_band`) is computed on its canonical quarter only, as for
precomputed 3j tables (Rasch and Yu, SIAM J. Sci. Comput. 25 (2003) 1416),
and filled through those symmetries.  Along each row the symbols follow the
three-term recurrence in mu of the J^2 eigenvalue equation (Schulten and
Gordon, J. Math. Phys. 16 (1975) 1961), run here in exact integers from the
stretched closed form at the start of each row, with square roots of
factorials memoized per 2j.  Its symbols go straight to
:func:`fuzzsphere.algebra.radical_to_float`, outside the exact cache, and
each entry is bit for bit the float of its own exact symbol.
:func:`three_j_cache_clear` empties the tables and that memo too.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .algebra import (
    RADICAL_ZERO,
    ExactRadical,
    HalfInt,
    factorial,
    factorial_sqrt,
    parity_sign,
    radical_to_float,
)

__all__ = [
    "Su2Element",
    "ThreeJKey",
    "ThreeJCacheInfo",
    "three_j",
    "three_j_twice",
    "three_j_cache_info",
    "three_j_cache_clear",
    "D_MATRIX_MAX_TWO_J",
    "wigner_D",
    "wigner_D_columns",
    "wigner_D_matrix",
    "wigner_D_sum",
    "su2_from_rotation",
    "so3_matrix",
    "rodrigues_matrix",
]


@dataclass(frozen=True)
class Su2Element:
    """Group element in bicomplex angular coordinates (omega, psi1, psi2).

    The corresponding matrix is
        [[cos(omega) e^{i psi1},  i sin(omega) e^{i psi2}],
         [i sin(omega) e^{-i psi2},  cos(omega) e^{-i psi1}]].
    """

    omega: float
    psi1: float
    psi2: float

    def matrix(self) -> np.ndarray:
        a = math.cos(self.omega) * cmath.exp(1j * self.psi1)
        b = 1j * math.sin(self.omega) * cmath.exp(1j * self.psi2)
        return np.array([[a, b], [-b.conjugate(), a.conjugate()]])

    @staticmethod
    def identity() -> "Su2Element":
        return Su2Element(0.0, 0.0, 0.0)

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Su2Element":
        a = complex(m[0, 0])
        b = complex(m[0, 1])
        omega = math.atan2(abs(b), abs(a))
        psi1 = cmath.phase(a) % (2 * math.pi) if abs(a) > 1e-300 else 0.0
        psi2 = cmath.phase(-1j * b) % (2 * math.pi) if abs(b) > 1e-300 else 0.0
        return Su2Element(omega, psi1, psi2)

    def __mul__(self, other: "Su2Element") -> "Su2Element":
        return Su2Element.from_matrix(self.matrix() @ other.matrix())

    def conjugate_element(self) -> "Su2Element":
        """Element with the entrywise-conjugated matrix (xy-mirror twin)."""
        return Su2Element.from_matrix(self.matrix().conj())


@dataclass(frozen=True)
class ThreeJKey:
    """Arguments of a 3j-symbol; projection parity is enforced on build."""

    j1: HalfInt
    j2: HalfInt
    j3: HalfInt
    m1: HalfInt
    m2: HalfInt
    m3: HalfInt

    def __post_init__(self) -> None:
        for j, m in ((self.j1, self.m1), (self.j2, self.m2), (self.j3, self.m3)):
            if (j.twice - m.twice) % 2 != 0:
                raise ValueError(f"projection {m} has wrong parity for spin {j}")

    @staticmethod
    def from_twice(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> "ThreeJKey":
        return ThreeJKey(
            HalfInt(tj1), HalfInt(tj2), HalfInt(tj3),
            HalfInt(tm1), HalfInt(tm2), HalfInt(tm3),
        )

    def columns(self) -> tuple[tuple[int, int], ...]:
        return (
            (self.j1.twice, self.m1.twice),
            (self.j2.twice, self.m2.twice),
            (self.j3.twice, self.m3.twice),
        )


# Keyed by (tj1, tj2, tj3, tm1, tm2, tm3) as passed to three_j_twice.
_CACHE: dict[tuple[int, ...], ExactRadical] = {}
# Lookups that found their symbol cached, and lookups that did not.
_COUNTS = {"hits": 0, "misses": 0}


class ThreeJCacheInfo(NamedTuple):
    """Entries in the 3j cache and the lookups it served or missed."""

    entries: int
    hits: int
    misses: int


def three_j_cache_info() -> ThreeJCacheInfo:
    """Size of the 3j cache and its hit and miss counts since the last
    :func:`three_j_cache_clear`.  The counts are exact for one thread;
    concurrent lookups may lose increments."""
    return ThreeJCacheInfo(len(_CACHE), _COUNTS["hits"], _COUNTS["misses"])


def three_j_cache_clear() -> None:
    """Empty the 3j cache, the band tables and their factorial roots, and
    reset the cache's counters."""
    _CACHE.clear()
    _COUNTS["hits"] = _COUNTS["misses"] = 0
    _three_j_band.cache_clear()
    _factorial_pair_roots.cache_clear()


def _three_j_parts(cols: tuple[tuple[int, int], ...]) -> tuple[int, int, int]:
    """(num, den, free) with the symbol of the twice-valued columns equal to
    (num/den) sqrt(free), free square-free; the columns must pass the
    selection rules of :func:`three_j_twice`, in any order.

    The Racah series is summed as one integer over the common denominator
    s_hi! (c2-s_lo)! (c3-s_lo)! (c4+s_hi)! (c5+s_hi)! (c6-s_lo)!: each term
    is that denominator over its own, and consecutive terms differ by a
    ratio of three linear factors.  The square root of the triangle and
    projection factorials is split by :func:`fuzzsphere.algebra.factorial_sqrt`.
    """
    (tj1, tm1), (tj2, tm2), (tj3, tm3) = cols
    a1 = (tj1 + tj2 - tj3) // 2
    a2 = (tj1 - tj2 + tj3) // 2
    a3 = (-tj1 + tj2 + tj3) // 2
    c2 = (tj2 + tm2) // 2
    c3 = (tj1 - tm1) // 2
    c4 = (tj3 - tj2 + tm1) // 2
    c5 = (tj3 - tj1 - tm2) // 2
    c6 = a1
    s_lo = max(0, -c4, -c5)
    s_hi = min(c2, c3, c6)
    span = s_hi - s_lo
    term = math.perm(s_hi, span) * math.perm(c4 + s_hi, span) * math.perm(c5 + s_hi, span)
    total = 0
    for s in range(s_lo, s_hi + 1):
        total += -term if s % 2 else term
        term = term * (c2 - s) * (c3 - s) * (c6 - s) // ((s + 1) * (c4 + s + 1) * (c5 + s + 1))
    if total == 0:
        return 0, 1, 1
    fact = math.factorial
    common = (
        fact(s_hi) * fact(c2 - s_lo) * fact(c3 - s_lo)
        * fact(c4 + s_hi) * fact(c5 + s_hi) * fact(c6 - s_lo)
    )
    a, b, free = factorial_sqrt(
        (
            a1, a2, a3,
            (tj1 + tm1) // 2, (tj1 - tm1) // 2,
            (tj2 + tm2) // 2, (tj2 - tm2) // 2,
            (tj3 + tm3) // 2, (tj3 - tm3) // 2,
        ),
        (tj1 + tj2 + tj3) // 2 + 1,
    )
    sign = parity_sign((tj1 - tj2 - tm3) // 2)
    return sign * total * a, common * b, free


def _three_j_raw(cols: tuple[tuple[int, int], ...]) -> ExactRadical:
    """Exact symbol of the twice-valued columns, from :func:`_three_j_parts`."""
    num, den, free = _three_j_parts(cols)
    if num == 0:
        return RADICAL_ZERO
    return ExactRadical(Fraction(num, den), free)


def three_j_twice(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> ExactRadical:
    """Exact 3j-symbol (j1 j2 j3; m1 m2 m3) from twice-valued arguments.

    Returns exact zero when the projections do not sum to zero, the
    triangle inequality fails, the total spin is not an integer, or a
    projection lies outside its spin's range.  Negative spins and a
    projection of the wrong parity for its spin are domain errors.

    Values are memoized under the six ints as given, each computed by
    :func:`_three_j_parts` on the columns in that order; see
    :func:`three_j_cache_info`.  Concurrent callers may compute one entry
    twice, with identical values.
    """
    if (tj1 - tm1) % 2 or (tj2 - tm2) % 2 or (tj3 - tm3) % 2:
        for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
            if (tj - tm) % 2:
                raise ValueError(
                    f"projection {HalfInt(tm)} has wrong parity for spin {HalfInt(tj)}"
                )
    if tj1 < 0 or tj2 < 0 or tj3 < 0:
        raise ValueError(f"negative spin in {((tj1, tm1), (tj2, tm2), (tj3, tm3))}")
    if (
        tm1 + tm2 + tm3 != 0
        or (tj1 + tj2 + tj3) % 2
        or not abs(tj1 - tj2) <= tj3 <= tj1 + tj2
        or abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3
    ):
        return RADICAL_ZERO

    key = (tj1, tj2, tj3, tm1, tm2, tm3)
    value = _CACHE.get(key)
    if value is None:
        _COUNTS["misses"] += 1
        value = _CACHE[key] = _three_j_raw(((tj1, tm1), (tj2, tm2), (tj3, tm3)))
    else:
        _COUNTS["hits"] += 1
    return value


# 2j+1 pairs of ints per 2j, 0.4 MB at 2j = 1000; a sweep cycles through a
# few spins, so the bound sits above one such pass.
@functools.lru_cache(maxsize=8)
def _factorial_pair_roots(two_j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(alpha, phi) with sqrt(k! (2j-k)!) = alpha[k] / sqrt(phi[k]) and
    phi[k] square-free, for 0 <= k <= 2j, from
    :func:`fuzzsphere.algebra.factorial_sqrt`; both are symmetric in k."""
    # over 0! = 1, factorial_sqrt's (a, b, free) has b = free
    half = [factorial_sqrt((k, two_j - k), 0)[::2] for k in range(two_j // 2 + 1)]
    half += reversed(half[: (two_j + 1) // 2])
    alpha, phi = zip(*half)
    return alpha, phi


def _root_of_product(a: int, b: int, c: int) -> tuple[int, int]:
    """(g, free) with sqrt(a b c) = g sqrt(free), for square-free a, b, c."""
    u = math.gcd(a, b)
    x = (a // u) * (b // u)
    w = math.gcd(x, c)
    return u * w, (x // w) * (c // w)


# (2l+1) x (2j+1) floats per (2j, l), at most 32 B per distinct symbol: a
# sweep over every l at 2j = 24, 32 and 40 holds 99 tables (0.96 MB), so
# the bound sits well above one such cyclic pass.  The bound counts tables,
# not bytes: one table at (2j, l) = (1000, 1000) holds 16 MB, and a sweep
# over l at 2j = 1000 would keep GBs resident (ROADMAP item 6).
@functools.lru_cache(maxsize=256)
def _three_j_band(two_j: int, ell: int) -> np.ndarray:
    """Read-only float table of (-1)^r (j j l; -mu, mu-m, m), mu = -j + r,
    at row l + m and column r, for 0 <= l <= 2j.

    Row m >= 0 is computed only for r <= m+2j-r; the column swap
    mu -> m - mu fills the rest of the row, and m-negation gives row -m as
    row m reversed, both with the sign (-1)^(2j+l).  Along the row the
    symbol is f(r) = K T(r) / sqrt(P(r)), with P(r) = r! (2j-r)! (r-m)!
    (2j-r+m)!, K constant and T(r) the symbol's Racah sum times
    (2j-l)! P(r), an integer: each term becomes a binomial times falling
    factorials.  The J^2 eigenvalue equation gives, with m1 = j - r and
    m2 = r - j - m (Schulten and Gordon, J. Math. Phys. 16 (1975) 1961),

        (2j-r)(2j-r+m) T(r+1) + [2j(j+1) - l(l+1) + 2 m1 m2] T(r)
            + r(r-m) T(r-1) = 0,

    so each step is one exact integer division.  At r = m (m2 = -j) the
    Racah sum has one term, T(m) = (2j-m)! (2j)! / ((l-m)! l!), and the
    stretched symbol gives the closed form

        K = (-1)^m l! sqrt((l+m)! (l-m)!) / sqrt((2j+l+1)! (2j-l)!),

    one :func:`fuzzsphere.algebra.factorial_sqrt` of four factorials;
    sqrt(P(r)) comes from the memoized roots of k! (2j-k)!
    (:func:`_factorial_pair_roots`).  Each entry is the float of its own
    exact symbol, bit for bit: the float finisher rounds the value of
    num/den, whatever its representation, and negating an exact radical
    negates its float.  A vanishing symbol reads +0.0 before the (-1)^r is
    folded in, as ``three_j_twice(...).to_float()`` gives it.  No entry
    enters the exact cache.
    """
    dim = two_j + 1
    table = np.zeros((2 * ell + 1, dim))
    sign = parity_sign(two_j + ell)
    alpha, phi = _factorial_pair_roots(two_j)
    fact = math.factorial
    casimir = two_j * (two_j + 2) - 2 * ell * (ell + 1)  # twice [2j(j+1) - l(l+1)]
    for m in range(ell + 1):
        row = table[ell + m]
        t_prev, t = 0, fact(two_j - m) * fact(two_j) // (fact(ell - m) * fact(ell))
        # K = (kn / kd) sqrt(kappa), the stretched closed form above
        a, b, kappa = factorial_sqrt((ell + m, ell - m, two_j - ell), two_j + ell + 1)
        kn, kd = parity_sign(m) * fact(ell) * a, b * fact(two_j - ell)
        g = math.gcd(kn, kd)
        kn, kd = kn // g, kd // g
        last = (m + two_j) // 2
        values = []
        for r in range(m, last + 1):
            if t:
                g, f = _root_of_product(kappa, phi[r], phi[r - m])
                values.append(radical_to_float(kn * t * g, kd * alpha[r] * alpha[r - m], f))
            else:
                values.append(0.0)
            if r == last:
                break
            tm1 = two_j - 2 * r
            c = (casimir - tm1 * (tm1 + 2 * m)) // 2
            t_prev, t = t, -(c * t + r * (r - m) * t_prev) // ((two_j - r) * (two_j - r + m))
        values = np.array(values)
        # the swapped half first: at r = (m + 2j)/2 the two halves meet
        row[m + two_j - last :] = sign * values[::-1]
        row[m : last + 1] = values
        if m:
            table[ell - m] = sign * row[::-1]
    table += 0.0  # -0.0 -> +0.0
    table[:, 1::2] *= -1.0
    table.flags.writeable = False
    return table


def three_j(key: ThreeJKey) -> ExactRadical:
    """Exact 3j-symbol of a keyed argument set; see :func:`three_j_twice`."""
    return three_j_twice(
        key.j1.twice, key.j2.twice, key.j3.twice,
        key.m1.twice, key.m2.twice, key.m3.twice,
    )


# Largest 2j the kernel is measured at: there wigner_D_matrix is unitary to
# 3.5e-15, the harmonic sum rule holds to 1.3e-15 of its value, and 200
# sampled entries match 50-digit Jacobi values to 8e-15.
D_MATRIX_MAX_TWO_J = 1000


# dim^2 floats per 2j (8 MB at the top of the range), hence a bounded cache.
@functools.lru_cache(maxsize=16)
def _lambda1_eigenbasis(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only orthogonal O with Lambda_1 = O diag(m) O^T, and 2m, for
    m = -j, ..., j: ``eigh`` of the real tridiagonal Lambda_1, whose simple
    spectrum comes out ascending.  Spins past D_MATRIX_MAX_TWO_J raise."""
    if not 0 <= two_j <= D_MATRIX_MAX_TWO_J:
        raise ValueError(f"SU(2) matrix elements need 2j <= {D_MATRIX_MAX_TWO_J}, got {two_j}")
    from .ssh import SshParams, lambda_plus  # ssh builds on this module

    raising = lambda_plus(SshParams(two_j, two_j % 2)).entries.real
    vectors = np.linalg.eigh((raising + raising.T) / 2.0)[1]
    twice_m = np.arange(-two_j, two_j + 1, 2)
    vectors.flags.writeable = twice_m.flags.writeable = False
    return vectors, twice_m


def _index(two_j: int, two_m: int) -> int:
    if (two_j - two_m) % 2:
        raise ValueError("projection parity does not match the spin")
    if abs(two_m) > two_j:
        raise ValueError("projection out of range")
    return (two_j + two_m) // 2


def wigner_D(two_j: int, two_m1: int, two_m2: int, xi: Su2Element) -> complex:
    """Representation matrix element D^j_{m1 m2}(xi).

    D(xi) = diag(e^{-i m (psi1 + psi2)}) exp(-2 i omega Lambda_1)
    diag(e^{-i m (psi1 - psi2)}), the middle factor in the memoized real
    eigenbasis of Lambda_1 (Feng, Wang, Yang and Jin, Phys. Rev. E 92 (2015)
    043307) and exactly the identity at omega = 0.  One entry is one O(2j)
    contraction of two eigenbasis rows (:func:`_d_entry`); the columns and
    the matrix take the batched product.  2j above D_MATRIX_MAX_TWO_J raises
    ValueError, as do the columns and the matrix.
    """
    _index(two_j, two_m1)
    _index(two_j, two_m2)
    return _d_entry(two_j, two_m1, two_m2, xi.omega, xi.psi1, xi.psi2)


def _d_entry(
    two_j: int, two_m1: int, two_m2: int, omega: float, psi1: float, psi2: float
) -> complex:
    """D^j_{m1 m2}(omega, psi1, psi2) for projections already checked: row
    m1 times row m2 of the eigenbasis against the phases
    e^{-i omega 2m}, exactly the identity entry at omega = 0."""
    o, twice_m = _lambda1_eigenbasis(two_j)
    if omega == 0.0:
        middle = complex(two_m1 == two_m2)
    else:
        weights = o[(two_j + two_m1) // 2] * o[(two_j + two_m2) // 2]
        middle = complex(weights @ np.exp(-1j * omega * twice_m))
    return middle * cmath.exp(-0.5j * ((psi1 + psi2) * two_m1 + two_m2 * (psi1 - psi2)))


def wigner_D_columns(
    two_j: int, two_m2: int, omegas, psi1: float = 0.0, psi2: float = 0.0
) -> np.ndarray:
    """Column m2 of D^j(omega_n, psi1, psi2) for every omega_n of an array,
    shape (n, 2j+1) with m1 ascending along a row.

    One real product against the memoized eigenbasis serves all n rows
    (O(n (2j)^2) work); a row with omega_n = 0 is exactly the identity
    column times its psi phases.
    """
    c = _index(two_j, two_m2)
    o, twice_m = _lambda1_eigenbasis(two_j)
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    right = o[c] * np.exp(-1j * omegas[:, None] * twice_m)
    middle = right.real @ o.T + 1j * (right.imag @ o.T)
    pole = omegas == 0.0
    if pole.any():
        middle[pole] = 0.0
        middle[pole, c] = 1.0
    return middle * np.exp(-0.5j * ((psi1 + psi2) * twice_m + two_m2 * (psi1 - psi2)))


def wigner_D_matrix(two_j: int, xi: Su2Element) -> np.ndarray:
    """Full (2j+1) x (2j+1) matrix, rows and columns in ascending m."""
    o, twice_m = _lambda1_eigenbasis(two_j)
    if xi.omega == 0.0:
        middle = np.eye(two_j + 1, dtype=complex)
    else:
        left = o * np.exp(-1j * xi.omega * twice_m)
        middle = left.real @ o.T + 1j * (left.imag @ o.T)
    rows = np.exp(-0.5j * (xi.psi1 + xi.psi2) * twice_m)
    return rows[:, None] * middle * np.exp(-0.5j * (xi.psi1 - xi.psi2) * twice_m)


def wigner_D_sum(
    two_j: int, two_m1: int, two_m2: int, xi: Su2Element
) -> complex | np.ndarray:
    """D^j_{m1 m2}(xi) by the explicit alternating sum, the small-j oracle.

    xi.omega may also be an array of angles, with psi1 and psi2 scalar: the
    result is then the array of entries, each summed in the same term
    order, and the factorial prefactor is computed once.  A scalar omega
    gives a complex.

    Regular at both poles and for every element, but its terms cancel as 2j
    grows: the harmonic sum rule is off by up to 2.6e-12 at 2j=40 and 3e-3
    at 2j=100, where the factorial prefactor also overflows for |m| near j.
    """
    if (two_j - two_m1) % 2 or (two_j - two_m2) % 2:
        raise ValueError("projection parity does not match the spin")
    if abs(two_m1) > two_j or abs(two_m2) > two_j:
        raise ValueError("projection out of range")
    omega = np.asarray(xi.omega, dtype=float)
    co = np.cos(omega)
    si = np.sin(omega)
    a = co * cmath.exp(1j * xi.psi1)
    abar = co * cmath.exp(-1j * xi.psi1)
    c = 1j * si * cmath.exp(1j * xi.psi2)
    cbar = 1j * si * cmath.exp(-1j * xi.psi2)
    jm2 = (two_j - two_m2) // 2
    jp1 = (two_j + two_m1) // 2
    dm = (two_m1 - two_m2) // 2
    pref = parity_sign(dm) * math.sqrt(
        factorial(jp1) * factorial((two_j - two_m1) // 2)
        * factorial((two_j + two_m2) // 2) * factorial(jm2)
    )
    total = np.zeros(omega.shape, dtype=complex)
    for t in range(max(0, dm), min(jm2, jp1) + 1):
        total += (
            a ** (jm2 - t) / factorial(jm2 - t)
            * abar ** (jp1 - t) / factorial(jp1 - t)
            * c ** (t - dm) / factorial(t - dm)
            * cbar**t / factorial(t)
        )
    out = pref * total
    return complex(out) if out.ndim == 0 else out


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def su2_from_rotation(axis, angle: float) -> Su2Element:
    """SU(2) element whose adjoint action is the rotation (axis, angle).

    The sign branch is fixed by xi_0 >= 0, ties broken toward xi_3 >= 0.
    """
    ax = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(ax))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"axis norm {norm} is not 1 within 1e-12")
    half = angle / 2.0
    co, si = math.cos(half), math.sin(half)
    m = co * np.eye(2, dtype=complex) - 1j * si * (
        ax[0] * _PAULI[0] + ax[1] * _PAULI[1] + ax[2] * _PAULI[2]
    )
    xi0 = m[0, 0].real
    xi3 = m[0, 0].imag
    if xi0 < -1e-12 or (abs(xi0) <= 1e-12 and xi3 < 0):
        m = -m
    return Su2Element.from_matrix(m)


def so3_matrix(xi: Su2Element) -> np.ndarray:
    """Rotation matrix of the adjoint action of xi."""
    u = xi.matrix()
    out = np.empty((3, 3))
    for k in range(3):
        conj = u @ _PAULI[k] @ u.conj().T
        for a in range(3):
            out[a, k] = 0.5 * np.trace(_PAULI[a] @ conj).real
    return out


def rodrigues_matrix(axis, angle: float) -> np.ndarray:
    """Axis-angle rotation matrix, the independent oracle for so3_matrix."""
    ax = np.asarray(axis, dtype=float)
    k = np.array(
        [[0, -ax[2], ax[1]], [ax[2], 0, -ax[0]], [-ax[1], ax[0], 0]]
    )
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
