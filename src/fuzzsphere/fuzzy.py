"""Madore-style fuzzy sphere on the spin-j space.

Coordinates are replaced by kappa-scaled generators, polynomials by
symmetrized operator monomials truncated at degree 2j, and the resulting
hatted harmonics are compared against the coherent-state quantized ones
through the single ell-dependent constant that relates them (Madore,
Class. Quantum Grav. 9 (1992) 69).

Harmonics are written in Racah's solid-harmonic form,

    r^l Y_lm = sqrt((2l+1)/(4 pi)) sqrt((l+m)! (l-m)!)
               sum_{p-q=m, p+q+s=l} (-x+/2)^p (x-/2)^q x3^s / (p! q! s!),

with x+- = x1 +- i x2.  Symmetrization is multilinear, and summing every
ordering of L+^p L-^q L3^s over p - q = m is band m of one matrix power:

    hat(Y_lm) = sqrt((2l+1)/(4 pi)) kappa^l sqrt((l+m)! (l-m)!) / l!
                band_m(M^l),   M = L3 + (L- - L+)/2.

With S = diag(s_r), s_(r+1) = s_r sqrt(f(r)) and f(r) = (2j - r)(r + 1),
S^-1 (2M) S is an integer tridiagonal matrix, so :func:`hat_ylm` reads each
entry from exact integers and needs no symmetrized monomial;
:func:`ylm_as_polynomial` expands the same sum into Cartesian monomials.

The generic :func:`hat_map` of an arbitrary polynomial symmetrizes
Cartesian monomials from the first-factor recurrence
T(a,b,c) = L1 T(a-1,b,c) + L2 T(a,b-1,c) + L3 T(a,b,c-1), T(0,0,0) = 1,
with Sym(L1^a L2^b L3^c) = a! b! c! / n! T(a,b,c) for n = a+b+c.  It is run
in that normalized form, n Sym(a,b,c) = a L1 Sym(a-1,b,c) + b L2 Sym(a,b-1,c)
+ c L3 Sym(a,b,c-1), so entries stay of order j^n.  Sym(a,b,c) needs every
exponent triple of its box (a+1)(b+1)(c+1), filled in lexicographic order.
:func:`sym_monomials` fills the union of the boxes asked for into one dict
per call and keeps nothing; :func:`sym_product` runs the same fill for
arbitrary factors.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import factorial, factorial_sqrt, parity_sign, radical_to_float
from .csquant import cartesian_factor, normalization_constant, quantize_ylm_closed
from .ssh import OperatorMatrix, SshParams, lambda_matrices, ssh_rings
from .wigner import _three_j_parts

__all__ = [
    "HAT_MAP_MAX_TWO_J",
    "HAT_YLM_MAX_TWO_J",
    "Monomial3",
    "FuzzyParams",
    "HatResult",
    "sym_product",
    "sym_monomials",
    "hat_map",
    "ylm_as_polynomial",
    "hat_ylm",
    "c_of_ell_closed",
    "empirical_ratios",
    "classical_limit_report",
    "apply_orbital_generator",
]


@dataclass(frozen=True)
class Monomial3:
    """coefficient * (x1)^alpha (x2)^beta (x3)^gamma."""

    alpha: int
    beta: int
    gamma: int
    coefficient: complex

    @property
    def degree(self) -> int:
        return self.alpha + self.beta + self.gamma


@dataclass(frozen=True)
class FuzzyParams:
    """Fuzzy-sphere labels: spin family plus the sphere radius."""

    two_j: int
    two_sigma: int
    radius: float = 1.0

    def __post_init__(self) -> None:
        SshParams(self.two_j, self.two_sigma)
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.two_j == 0:
            raise ValueError("fuzzy construction needs 2j >= 1")

    @property
    def kappa(self) -> float:
        """radius / sqrt(j (j+1)): the coordinate-operator scale."""
        return 2.0 * self.radius / math.sqrt(self.two_j * (self.two_j + 2))

    def ssh_params(self) -> SshParams:
        return SshParams(self.two_j, self.two_sigma)


@dataclass(frozen=True)
class HatResult:
    """Hatted operator plus the degree-truncated monomials, as data."""

    matrix: OperatorMatrix
    truncated: tuple[Monomial3, ...]


def _sym_step(
    factors: Sequence[np.ndarray], counts: tuple[int, ...], lower: dict
) -> np.ndarray:
    """One step of the first-factor recurrence.

    Splitting the orderings of a multiset by their first factor gives
    n Sym(counts) = sum_i counts_i F_i Sym(counts - e_i), where n is the
    total count; ``lower`` holds Sym of every vector with one factor fewer.
    """
    n = sum(counts)
    acc = None
    for i, c in enumerate(counts):
        if c == 0:
            continue
        prev = counts[:i] + (c - 1,) + counts[i + 1 :]
        term = (c / n) * (factors[i] @ lower[prev])
        acc = term if acc is None else acc + term
    return acc


def _sym_fill(factors: Sequence[np.ndarray], counts: tuple, memo: dict) -> np.ndarray:
    """Sym(counts), after filling every vector of the box below it that the
    memo (count vector -> read-only array, seeded with the zero vector)
    lacks.  Lexicographic order reaches each vector after those one factor
    below it, with no recursion.  A vector is stored after its whole box,
    so a stored one returns at once."""
    if counts in memo:
        return memo[counts]
    for key in itertools.product(*(range(c + 1) for c in counts)):
        if key not in memo:
            arr = _sym_step(factors, key, memo)
            arr.setflags(write=False)
            memo[key] = arr
    return memo[counts]


def sym_product(operators: list[OperatorMatrix]) -> OperatorMatrix:
    """Symmetrized product: the average over all orderings of the factors.

    Factors with equal entries are grouped into one count vector, and the
    first-factor recurrence runs over every vector below it, so k distinct
    factors with counts c_i cost prod(c_i + 1) steps instead of n!
    orderings.  The result is a fresh array; nothing is memoized.
    """
    if not operators:
        raise ValueError("empty operator list")
    two_j = operators[0].two_j
    for op in operators[1:]:
        if op.two_j != two_j:
            raise ValueError("operators act on different spaces")
    factors: list[np.ndarray] = []
    counts: list[int] = []
    for op in operators:
        for i, f in enumerate(factors):
            if np.array_equal(f, op.entries):
                counts[i] += 1
                break
        else:
            factors.append(op.entries)
            counts.append(1)
    memo = {(0,) * len(counts): np.eye(two_j + 1, dtype=complex)}
    return OperatorMatrix(two_j, _sym_fill(factors, tuple(counts), memo).copy())


def sym_monomials(
    two_j: int, exponents: Iterable[tuple[int, int, int]]
) -> dict[tuple[int, int, int], OperatorMatrix]:
    """Sym(L1^a L2^b L3^c) on the spin-j space for each exponent triple,
    keyed by the triple, from one fill of the union of their boxes; the
    entries are read-only arrays, and nothing is kept after the call."""
    wanted = [tuple(e) for e in exponents]
    for e in wanted:
        if len(e) != 3 or min(e) < 0:
            raise ValueError(f"exponents must be three non-negative ints, got {e}")
    lams = [lam.entries for lam in lambda_matrices(SshParams(two_j, two_j % 2))]
    eye = np.eye(two_j + 1, dtype=complex)
    eye.setflags(write=False)
    memo = {(0, 0, 0): eye}
    return {e: OperatorMatrix(two_j, _sym_fill(lams, e, memo)) for e in wanted}


# Largest 2j at which the generic hat_map still agrees with the exact band
# form of hat_ylm to within an absolute 1e-9: symmetrized Cartesian
# monomials cancel, and the worst m-spread of the quantized/hatted
# ratio over all ell through hat_map is 8.0e-10 at 2j=28 (2 sigma = 2), but
# 1.1e-9 at 2j=29 (2 sigma = 1), 3.1e-9 at 30 and 3.8e-9 at 31, growing about
# tenfold per 4 in 2j.
HAT_MAP_MAX_TWO_J = 28


def hat_map(params: FuzzyParams, poly: list[Monomial3]) -> HatResult:
    """Polynomial observable to operator: coordinates become kappa-scaled
    generators inside symmetrized monomials; degree > 2j terms are dropped
    into the truncation log.

    The working range is 2j <= HAT_MAP_MAX_TWO_J (28); beyond it the
    symmetrized monomials cancel past an absolute 1e-9, so a larger 2j
    raises ValueError before any symmetrized monomial is built.
    """
    if params.two_j > HAT_MAP_MAX_TWO_J:
        raise ValueError(
            f"hat_map works up to 2j={HAT_MAP_MAX_TWO_J}; got 2j={params.two_j}"
        )
    kappa = params.kappa
    kept = [mono for mono in poly if mono.degree <= params.two_j]
    dropped = tuple(mono for mono in poly if mono.degree > params.two_j)
    syms = sym_monomials(params.two_j, [(m.alpha, m.beta, m.gamma) for m in kept])
    total = OperatorMatrix.zeros(params.two_j)
    for mono in kept:
        term = syms[mono.alpha, mono.beta, mono.gamma]
        total = total + term.scaled(mono.coefficient * kappa**mono.degree)
    return HatResult(total, dropped)


def ylm_as_polynomial(ell: int, m: int) -> list[Monomial3]:
    """Harmonic homogeneous degree-ell polynomial equal to Y_lm on the sphere.

    Built exactly from Racah's solid-harmonic sum (module docstring) with
    x+- = x1 +- i x2 expanded binomially, so every coefficient is a rational
    times a power of i; a single irrational normalization scales all
    monomials at the end.
    """
    if ell < 0 or abs(m) > ell:
        raise ValueError(f"invalid harmonic index (ell={ell}, m={m})")
    mm = abs(m)
    # Y_lm = norm * sum of the rationals below times i^b x1^a x2^b x3^s,
    # with the Condon-Shortley (-1)^m kept in front for m >= 0.
    front = parity_sign(m) if m >= 0 else 1
    acc: dict[tuple[int, int, int], int] = {}
    for q in range(max(0, -m), (ell - m) // 2 + 1):
        p, s = q + m, ell - m - 2 * q
        # (-x+/2)^p (x-/2)^q x3^s / (p! q! s!) times 2^ell ell!, an integer
        # as p + q + s = ell
        multinomial = factorial(ell) // (factorial(p) * factorial(q) * factorial(s))
        c = front * parity_sign(p) * 2**s * multinomial
        # x+^p x-^q = sum C(p, u) C(q, v) (-1)^v i^(u+v) x1^(p+q-u-v) x2^(u+v)
        for u in range(p + 1):
            for v in range(q + 1):
                key = (p + q - u - v, u + v, s)
                term = c * parity_sign(v) * math.comb(p, u) * math.comb(q, v)
                acc[key] = acc.get(key, 0) + term
    # back from 2^ell ell! to the scale (ell + |m|)! of the rationals
    scale = Fraction(factorial(ell + mm), 2**ell * factorial(ell))

    norm = math.sqrt(
        (2 * ell + 1) * factorial(ell - mm) / factorial(ell + mm)
    ) / (2.0 * math.sqrt(math.pi))
    out: list[Monomial3] = []
    for (a, b, g), coeff in sorted(acc.items()):
        if coeff == 0:
            continue
        part = float(parity_sign(b // 2) * coeff * scale)
        value = complex(0.0, part) if b % 2 else complex(part, 0.0)
        out.append(Monomial3(a, b, g, front * norm * value))
    return out


# (2j+1)^3 exact integers per 2j, whose size grows with 2j: one spin's powers
# raised the peak resident set of a fresh process by 2.4 MB at 2j = 40,
# 11 MB at 60, 30 MB at 80, 66 MB at 100 and 128 MB at 120, and a process
# building them at 2j = 400 was killed for lack of memory.  Hence a bounded
# cache, and hat_ylm stops at HAT_YLM_MAX_TWO_J, where four cached spins
# hold under 300 MB.
HAT_YLM_MAX_TWO_J = 100


@functools.lru_cache(maxsize=4)
def _ladder_powers(two_j: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """A^0, ..., A^(2j) of the integer tridiagonal A = S^-1 (2M) S, and the
    prefix products F[r] = f(0) ... f(r-1), as read-only arrays of Python
    ints.

    A[r, r] = 2r - 2j, A[r+1, r] = -1 and A[r, r+1] = f(r) with
    f(r) = (2j - r)(r + 1); S = diag(sqrt(F)).
    """
    dim = two_j + 1
    f = [(two_j - r) * (r + 1) for r in range(two_j)]
    diag = np.array([2 * r - two_j for r in range(dim)], dtype=object)
    upper = np.array(f, dtype=object)
    powers = [np.eye(dim, dtype=object)]
    for _ in range(two_j):
        # right multiplication by A, one column shift per off-diagonal
        prev = powers[-1]
        nxt = prev * diag
        nxt[:, 1:] += prev[:, :-1] * upper
        nxt[:, :-1] -= prev[:, 1:]
        powers.append(nxt)
    prefix = np.array([math.prod(f[:r]) for r in range(dim)], dtype=object)
    for arr in (*powers, prefix):
        arr.flags.writeable = False
    return tuple(powers), prefix


def hat_ylm(params: FuzzyParams, ell: int, m: int) -> HatResult:
    """Hat-map of the harmonic polynomial, read off band m of one exact
    integer matrix power (module docstring); beyond the band limit the
    result is the zero matrix with the whole polynomial in the truncation
    log.

    Entry (r + m, r) is sign(a) sqrt((2 ell + 1) / (4 pi)) sqrt(Q) for
    a = A^ell[r + m, r] and the exact rational
    Q = (ell+m)! (ell-m)! a^2 F[r+m] p^(2 ell) / ((2j (2j+2))^ell ell!^2
    F[r] q^(2 ell)), with radius = p / q exactly (``float.as_integer_ratio``).
    Q is rounded once to a float, and nothing cancels after that: at radius
    1 every nonzero Q lies in [2^-283, 1] for 2j <= 100.  A nonzero Q
    outside the normal float range (an entry past about 1e154 or below
    1e-154, from a radius far from 1 at large ell) raises ValueError, and
    so does 2j above HAT_YLM_MAX_TWO_J (100), where the memoized integer
    powers outgrow memory.
    """
    if ell < 0 or abs(m) > ell:
        raise ValueError(f"invalid harmonic index (ell={ell}, m={m})")
    tj = params.two_j
    if tj > HAT_YLM_MAX_TWO_J:
        raise ValueError(f"hat_ylm works up to 2j={HAT_YLM_MAX_TWO_J}; got 2j={tj}")
    if ell > tj:
        return HatResult(OperatorMatrix.zeros(tj), tuple(ylm_as_polynomial(ell, m)))
    powers, prefix = _ladder_powers(tj)
    a = np.diagonal(powers[ell], -m)
    # F[r + m] and F[r] along the band, r ascending like a
    rows = prefix[max(m, 0) :][: len(a)]
    cols = prefix[max(-m, 0) :][: len(a)]
    rad_num, rad_den = float(params.radius).as_integer_ratio()
    num = factorial(ell + m) * factorial(ell - m) * rad_num ** (2 * ell) * rows * a * a
    den = (tj * (tj + 2) * rad_den**2) ** ell * factorial(ell) ** 2 * cols
    try:
        square = (num / den).astype(float)
    except OverflowError:
        square = None
    # A nonzero Q is at least its value at radius 1, 2^-283 or more, unless
    # the radius is below 1: only then can one fall under the float range.
    if square is None or (
        rad_num < rad_den and ((square < sys.float_info.min) & (a != 0)).any()
    ):
        raise ValueError(
            f"hat_ylm entries at 2j={tj}, ell={ell}, m={m}, "
            f"radius={params.radius!r} are outside the float range"
        )
    scale = math.sqrt((2 * ell + 1) / (4 * math.pi))
    band = np.where(a < 0, -scale, scale) * np.sqrt(square)
    return HatResult(OperatorMatrix(tj, np.diag(band, -m)), ())


def c_of_ell_closed(params: FuzzyParams, ell: int) -> float:
    """Closed form of the constant relating quantized to hatted harmonics,
    c(l) = (-1)^(j + sigma - l) (2j+1) (2/kappa)^l sqrt((2j-l)! / (2j+l+1)!)
    (j j l; -sigma sigma 0).

    The sign was validated against the empirical entrywise ratio (the
    printed source formula carries (-1)^(j + sigma - 2 l), which flips
    odd-l values).  As (2/kappa)^2 = P / radius^2 with P = 2j (2j+2) and
    radius = p / q exactly, c(l) is one exact radical, rounded once: within
    1.5e-16 of the empirical ratio at 2j = 60, 100 and 150, and finite
    through 2j = 1000 at radius 1.  A nonzero value outside the normal
    float range raises ValueError.
    """
    tj, ts = params.two_j, params.two_sigma
    if ts == 0:
        raise ValueError(
            "sigma = 0 quantizes the cartesian sector to zero; the "
            "fuzzy/quantized comparison is degenerate there"
        )
    if not 0 <= ell <= tj:
        raise ValueError(f"ell={ell} outside the band limit 2j={tj}")
    sign = parity_sign((tj + ts) // 2 - ell)
    a, b, f1 = factorial_sqrt((tj - ell,), tj + ell + 1)
    num, den, f2 = _three_j_parts(((tj, -ts), (tj, ts), (2 * ell, 0)))
    p = tj * (tj + 2)
    rad_num, rad_den = float(params.radius).as_integer_ratio()
    try:
        value = radical_to_float(
            sign * (tj + 1) * num * a * p ** (ell // 2) * rad_den**ell,
            den * b * rad_num**ell,
            f1 * f2 * p ** (ell % 2),
        )
    except OverflowError:
        value = math.inf
    if num and not sys.float_info.min <= abs(value) < math.inf:
        raise ValueError(
            f"c(ell) at 2j={tj}, ell={ell}, radius={params.radius!r} "
            "is outside the float range"
        )
    return value


def empirical_ratios(params: FuzzyParams, ell: int) -> list[complex]:
    """Per-m ratio of quantized to hatted harmonic on the largest entry."""
    sp = params.ssh_params()
    out: list[complex] = []
    for m in range(-ell, ell + 1):
        tilde = quantize_ylm_closed(sp, ell, m)
        hat = hat_ylm(params, ell, m).matrix
        idx = np.unravel_index(np.argmax(np.abs(hat.entries)), hat.entries.shape)
        out.append(complex(tilde.entries[idx] / hat.entries[idx]))
    return out


def apply_orbital_generator(axis: int, poly: list[Monomial3]) -> list[Monomial3]:
    """Symbolic action of the orbital rotation generator on a polynomial.

    Along axis 3: each monomial maps to -i (beta * x1^(a+1) x2^(b-1) x3^g
    - alpha * x1^(a-1) x2^(b+1) x3^g); axes 1 and 2 act cyclically.
    """
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2, or 3, got {axis}")
    # axis a: f -> -i (x_b d_c - x_c d_b) f for (a, b, c) cyclic.
    b = axis % 3
    c = (axis + 1) % 3
    out: dict[tuple[int, int, int], complex] = {}

    def add(key: tuple[int, int, int], val: complex) -> None:
        if key in out:
            out[key] += val
        else:
            out[key] = val

    for mono in poly:
        expo = [mono.alpha, mono.beta, mono.gamma]
        if expo[c] > 0:
            key = list(expo)
            key[b] += 1
            key[c] -= 1
            add(tuple(key), -1j * expo[c] * mono.coefficient)
        if expo[b] > 0:
            key = list(expo)
            key[c] += 1
            key[b] -= 1
            add(tuple(key), 1j * expo[b] * mono.coefficient)
    return [
        Monomial3(a, bb, g, v)
        for (a, bb, g), v in sorted(out.items())
        if v != 0
    ]


def classical_limit_report(
    sigma_offset_twice: int, two_j_list: list[int], radius: float = 1.0
) -> list[dict]:
    """Commutator-decay table along the family sigma = j - offset.

    Each row reports the coordinate commutator norm ||[x1hat, x2hat]||
    (equal to kappa^2 j = r^2/(j+1)), its ratio to the previous row, and
    the worst-case gap between the symbol of the quantized third coordinate
    and (sigma/(j+1)) cos(theta).
    """
    if sigma_offset_twice % 2:
        raise ValueError("sigma offset must be an integer (even twice-value)")
    rows: list[dict] = []
    prev_norm: float | None = None
    for tj in two_j_list:
        ts = tj - sigma_offset_twice
        if ts == 0 or abs(ts) > tj:
            raise ValueError(
                f"offset {sigma_offset_twice / 2} gives inadmissible sigma for 2j={tj}"
            )
        fp = FuzzyParams(tj, ts, radius)
        sp = fp.ssh_params()
        l1, l2, _ = lambda_matrices(sp)
        x1 = l1.scaled(fp.kappa)
        x2 = l2.scaled(fp.kappa)
        comm_norm = x1.commutator(x2).operator_norm()
        # Symbol of x3~ = K Lambda_3 at (theta, 0): K sum_mu mu |Y_mu|^2 / N,
        # one ring sample per theta.
        thetas = np.linspace(0.0, math.pi, 181)
        weights = np.abs(ssh_rings(sp, thetas)) ** 2 / normalization_constant(sp)
        symbols = cartesian_factor(sp) * (weights @ (np.array(sp.projections()) / 2.0))
        target_scale = (ts / 2.0) / (tj / 2.0 + 1.0)
        dev = float(np.max(np.abs(symbols - target_scale * np.cos(thetas))))
        rows.append(
            {
                "two_j": tj,
                "two_sigma": ts,
                "kappa": fp.kappa,
                "commutator_norm": comm_norm,
                "commutator_closed": radius**2 / (tj / 2.0 + 1.0),
                "ratio_to_previous": None if prev_norm is None else comm_norm / prev_norm,
                "symbol_deviation": dev,
            }
        )
        prev_norm = comm_norm
    return rows
