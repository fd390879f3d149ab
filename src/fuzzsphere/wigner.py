"""Exact 3j-symbols and SU(2) representation matrices, Talman convention.

Every representation matrix element, column or matrix comes from one
memoized eigenbasis of the generator Lambda_1 per 2j (:func:`wigner_D`),
measured up to ``D_MATRIX_MAX_TWO_J``; the explicit alternating sum
(:func:`wigner_D_sum`) is kept only as the small-j oracle.

The 3j value is an exact radical: the alternating sum over the single
summation index is a rational, and the triangle/projection factorials stay
under the square root.  Symmetry relations and orthogonality sums therefore
hold exactly, not just numerically.

Lookups take twice-valued plain ints (:func:`three_j_twice`; the keyed
:func:`three_j` delegates to it) and map the symbol to a canonical cache key
by sorting its columns, with the permutation's parity giving the sign.  A
cache miss sums the Racah series as one integer over a common denominator
and splits the square root through the prime exponents of the factorials
(:func:`fuzzsphere.algebra.factorial_radical`), in the manner of Johansson
and Forssen, SIAM J. Sci. Comput. 38 (2016) A376.  The cache is safe for
concurrent use and counts its hits and misses (:func:`three_j_cache_info`).
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (
    RADICAL_ZERO,
    ExactRadical,
    HalfInt,
    factorial,
    factorial_radical,
    parity_sign,
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
    "wigner_D_column",
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

    def inverse(self) -> "Su2Element":
        return Su2Element.from_matrix(self.matrix().conj().T)

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


_CACHE: dict[tuple[tuple[int, int], ...], ExactRadical] = {}
_CACHE_LOCK = threading.Lock()
# Lookups that found their canonical key cached, and lookups that did not;
# both are counted under _CACHE_LOCK.
_COUNTS = {"hits": 0, "misses": 0}


class ThreeJCacheInfo(NamedTuple):
    """Entries in the 3j cache and the lookups it served or missed."""

    entries: int
    hits: int
    misses: int


def three_j_cache_info() -> ThreeJCacheInfo:
    """Size of the 3j cache and its hit and miss counts since the last
    :func:`three_j_cache_clear`."""
    with _CACHE_LOCK:
        return ThreeJCacheInfo(len(_CACHE), _COUNTS["hits"], _COUNTS["misses"])


def three_j_cache_clear() -> None:
    """Empty the 3j cache and reset its counters."""
    with _CACHE_LOCK:
        _CACHE.clear()
        _COUNTS["hits"] = _COUNTS["misses"] = 0


def _three_j_raw(cols: tuple[tuple[int, int], ...]) -> ExactRadical:
    """Direct evaluation of the single-sum formula on twice-valued columns.

    The Racah series is summed as one integer over the common denominator
    s_hi! (c2-s_lo)! (c3-s_lo)! (c4+s_hi)! (c5+s_hi)! (c6-s_lo)!: each term
    is that denominator over its own, and consecutive terms differ by a
    ratio of three linear factors.
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
    common = (
        factorial(s_hi) * factorial(c2 - s_lo) * factorial(c3 - s_lo)
        * factorial(c4 + s_hi) * factorial(c5 + s_hi) * factorial(c6 - s_lo)
    )
    sign = parity_sign((tj1 - tj2 - tm3) // 2)
    return factorial_radical(
        sign * total,
        common,
        (
            a1, a2, a3,
            (tj1 + tm1) // 2, (tj1 - tm1) // 2,
            (tj2 + tm2) // 2, (tj2 - tm2) // 2,
            (tj3 + tm3) // 2, (tj3 - tm3) // 2,
        ),
        (tj1 + tj2 + tj3) // 2 + 1,
    )


def _sort3(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]):
    """The three columns in ascending order, and whether the sorting
    permutation is odd.  With two equal columns it is taken as even, since
    an extra swap of the equal pair changes nothing."""
    odd = False
    if a > b:
        a, b, odd = b, a, not odd
    if b > c:
        b, c, odd = c, b, not odd
    if a > b:
        a, b, odd = b, a, not odd
    if a == b or b == c:
        odd = False
    return (a, b, c), odd


def _canonical(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int):
    """Cache key of a symbol and whether the symbol is minus the key's."""
    key, odd = _sort3((tj1, tm1), (tj2, tm2), (tj3, tm3))
    negated, negated_odd = _sort3((tj1, -tm1), (tj2, -tm2), (tj3, -tm3))
    if negated < key:
        key, odd = negated, not negated_odd
    return key, odd and (tj1 + tj2 + tj3) % 4 == 2


def three_j_twice(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> ExactRadical:
    """Exact 3j-symbol (j1 j2 j3; m1 m2 m3) from twice-valued arguments.

    Returns exact zero when the projections do not sum to zero, the
    triangle inequality fails, the total spin is not an integer, or a
    projection lies outside its spin's range.  Negative spins and a
    projection of the wrong parity for its spin are domain errors.

    Values are cached under the canonical image of the column symmetries,
    the smaller of the sorted columns and the sorted m-negated columns;
    odd column permutations and m-negation each contribute (-1)^(j1+j2+j3).
    When two columns coincide the permutation's parity is ambiguous, but
    then the symbol has the same sign either way or vanishes.  The cache
    is safe for concurrent use; see :func:`three_j_cache_info`.
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

    key, flip = _canonical(tj1, tj2, tj3, tm1, tm2, tm3)
    with _CACHE_LOCK:
        value = _CACHE.get(key)
        _COUNTS["misses" if value is None else "hits"] += 1
    if value is None:
        value = _three_j_raw(key)
        with _CACHE_LOCK:
            _CACHE[key] = value
    return -value if flip else value


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
    """Representation matrix element D^j_{m1 m2}(xi) in O(2j) work.

    D(xi) = diag(e^{-i m (psi1 + psi2)}) exp(-2 i omega Lambda_1)
    diag(e^{-i m (psi1 - psi2)}), the middle factor in the memoized real
    eigenbasis of Lambda_1 (Feng, Wang, Yang and Jin, Phys. Rev. E 92 (2015)
    043307) and exactly the identity at omega = 0.  2j above
    D_MATRIX_MAX_TWO_J raises ValueError, as do the column and the matrix.
    """
    r, c = _index(two_j, two_m1), _index(two_j, two_m2)
    o, twice_m = _lambda1_eigenbasis(two_j)
    if xi.omega == 0.0:
        middle = complex(r == c)
    else:
        # A plain loop, still O(2j): at the small 2j of quadrature sampling
        # it costs less than the numpy calls would.
        middle = 0j
        for a, b, tm in zip(o[r].tolist(), o[c].tolist(), twice_m.tolist()):
            middle += a * b * cmath.exp(-1j * xi.omega * tm)
    phase = two_m1 * (xi.psi1 + xi.psi2) + two_m2 * (xi.psi1 - xi.psi2)
    return cmath.exp(-0.5j * phase) * middle


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


def wigner_D_column(two_j: int, two_m2: int, xi: Su2Element) -> np.ndarray:
    """Column m2 of D^j(xi), m1 ascending: the one-element case of
    :func:`wigner_D_columns`."""
    return wigner_D_columns(two_j, two_m2, (xi.omega,), xi.psi1, xi.psi2)[0]


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


def wigner_D_sum(two_j: int, two_m1: int, two_m2: int, xi: Su2Element) -> complex:
    """D^j_{m1 m2}(xi) by the explicit alternating sum, the small-j oracle.

    Regular at both poles and for every element, but its terms cancel as 2j
    grows: the harmonic sum rule is off by up to 2.6e-12 at 2j=40 and 3e-3
    at 2j=100, where the factorial prefactor also overflows for |m| near j.
    """
    if (two_j - two_m1) % 2 or (two_j - two_m2) % 2:
        raise ValueError("projection parity does not match the spin")
    if abs(two_m1) > two_j or abs(two_m2) > two_j:
        raise ValueError("projection out of range")
    co = math.cos(xi.omega)
    si = math.sin(xi.omega)
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
    total = 0j
    for t in range(max(0, dm), min(jm2, jp1) + 1):
        total += (
            a ** (jm2 - t) / factorial(jm2 - t)
            * abar ** (jp1 - t) / factorial(jp1 - t)
            * c ** (t - dm) / factorial(t - dm)
            * cbar**t / factorial(t)
        )
    return pref * total


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
