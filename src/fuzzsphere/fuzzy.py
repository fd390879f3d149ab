"""Madore-style fuzzy sphere on the spin-j space.

Coordinates are replaced by kappa-scaled generators, polynomials by
symmetrized operator monomials truncated at degree 2j, and the resulting
hatted harmonics are compared against the coherent-state quantized ones
through the single ell-dependent constant that relates them (Madore,
Class. Quantum Grav. 9 (1992) 69).

Symmetrized monomials come from the first-factor recurrence
T(a,b,c) = L1 T(a-1,b,c) + L2 T(a,b-1,c) + L3 T(a,b,c-1), T(0,0,0) = 1,
with Sym(L1^a L2^b L3^c) = a! b! c! / n! T(a,b,c) for n = a+b+c.  It is run
in that normalized form, n Sym(a,b,c) = a L1 Sym(a-1,b,c) + b L2 Sym(a,b-1,c)
+ c L3 Sym(a,b,c-1), so entries stay of order j^n.  Every monomial up to
degree n costs O(n^3) matrix products.  The generators depend on 2j alone,
so one table per 2j, extended to the highest degree requested so far and
kept for a few spins, serves every sigma and harmonic.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import factorial, parity_sign
from .csquant import cartesian_factor, normalization_constant, quantize_ylm_closed
from .ssh import OperatorMatrix, SshParams, lambda_matrices, ssh_rings

__all__ = [
    "HAT_MAP_MAX_TWO_J",
    "Monomial3",
    "FuzzyParams",
    "HatResult",
    "sym_product",
    "sym_monomial",
    "hat_map",
    "ylm_as_polynomial",
    "hat_ylm",
    "c_of_ell_closed",
    "empirical_ratios",
    "symmetrization_commutator_check",
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
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
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
    sym = {(0,) * len(counts): np.eye(two_j + 1, dtype=complex)}
    # Lexicographic order reaches every vector after those one factor below it.
    for key in itertools.product(*(range(c + 1) for c in counts)):
        if key not in sym:
            sym[key] = _sym_step(factors, key, sym)
    return OperatorMatrix(two_j, sym[tuple(counts)])


class _GeneratorTable:
    """Sym(L1^a L2^b L3^c) on one spin-j space for every exponent triple up
    to the highest degree requested so far, extended one degree at a time.

    Entries are read-only because OperatorMatrix does not copy its array;
    the lock makes extension safe for concurrent callers.
    """

    def __init__(self, two_j: int):
        params = SshParams(two_j, two_j % 2)
        self.lams = tuple(lam.entries for lam in lambda_matrices(params))
        eye = np.eye(two_j + 1, dtype=complex)
        eye.setflags(write=False)
        self.sym: dict[tuple[int, int, int], np.ndarray] = {(0, 0, 0): eye}
        self.degree = 0
        self.lock = threading.Lock()

    def get(self, exponents: tuple[int, int, int]) -> np.ndarray:
        with self.lock:
            while self.degree < sum(exponents):
                d = self.degree + 1
                for a in range(d, -1, -1):
                    for b in range(d - a, -1, -1):
                        key = (a, b, d - a - b)
                        arr = _sym_step(self.lams, key, self.sym)
                        arr.setflags(write=False)
                        self.sym[key] = arr
                self.degree = d
            return self.sym[exponents]


# The generators depend on 2j alone, so one table serves every sigma and
# harmonic; it holds C(n+3, 3) matrices up to degree n (about 12 MB at
# 2j = n = 20), hence only a few spins are kept.
@functools.lru_cache(maxsize=4)
def _generator_table(two_j: int) -> _GeneratorTable:
    return _GeneratorTable(two_j)


def sym_monomial(two_j: int, exponents: tuple[int, int, int]) -> OperatorMatrix:
    """Sym(L1^a L2^b L3^c) on the spin-j space, read from the memoized
    per-2j table; the entries are a shared read-only array."""
    exponents = tuple(exponents)
    if len(exponents) != 3 or min(exponents) < 0:
        raise ValueError(f"exponents must be three non-negative ints, got {exponents}")
    return OperatorMatrix(two_j, _generator_table(two_j).get(exponents))


# Largest 2j at which hatted and quantized harmonics still agree through
# one constant per ell to within the comparison's 1e-9: the worst m-spread
# of their ratio over all ell is 8.0e-10 at 2j=28 (2 sigma = 2), but 1.1e-9
# at 2j=29 (2 sigma = 1), 3.1e-9 at 30 and 3.8e-9 at 31, growing about
# tenfold per 4 in 2j.  The generator table also takes 114 MB at 2j=32.
HAT_MAP_MAX_TWO_J = 28


def hat_map(params: FuzzyParams, poly: list[Monomial3]) -> HatResult:
    """Polynomial observable to operator: coordinates become kappa-scaled
    generators inside symmetrized monomials; degree > 2j terms are dropped
    into the truncation log.

    The working range is 2j <= HAT_MAP_MAX_TWO_J (28); beyond it the
    symmetrized monomials lose the accuracy the fuzzy comparison needs, so
    a larger 2j raises ValueError before any generator table is built.
    """
    if params.two_j > HAT_MAP_MAX_TWO_J:
        raise ValueError(
            f"hat_map works up to 2j={HAT_MAP_MAX_TWO_J}; got 2j={params.two_j}"
        )
    kappa = params.kappa
    total = OperatorMatrix.zeros(params.two_j)
    dropped: list[Monomial3] = []
    for mono in poly:
        if mono.degree > params.two_j:
            dropped.append(mono)
            continue
        term = sym_monomial(params.two_j, (mono.alpha, mono.beta, mono.gamma))
        total = total + term.scaled(mono.coefficient * kappa**mono.degree)
    return HatResult(total, tuple(dropped))


def _legendre_coefficients(ell: int) -> list[Fraction]:
    """coeffs[p] of z^p in the Legendre polynomial of degree ell, exact."""
    coeffs = [Fraction(0)] * (ell + 1)
    for k in range(ell // 2 + 1):
        p = ell - 2 * k
        coeffs[p] = Fraction(
            (-1) ** k * math.comb(ell, k) * math.comb(2 * ell - 2 * k, ell),
            2**ell,
        )
    return coeffs


_I_POWERS = (
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(-1)),
)


def ylm_as_polynomial(ell: int, m: int) -> list[Monomial3]:
    """Harmonic homogeneous degree-ell polynomial equal to Y_lm on the sphere.

    Built exactly: rational Legendre-derivative coefficients, the binomial
    expansion of (x1 + i x2)^m, and multinomial padding by powers of
    (x1^2 + x2^2 + x3^2); a single irrational normalization scales all
    monomials at the end.  The build is memoized per (ell, m); each call
    returns a fresh list of the shared frozen monomials.
    """
    if ell < 0 or abs(m) > ell:
        raise ValueError(f"invalid harmonic index (ell={ell}, m={m})")
    return list(_ylm_monomials(ell, m))


# Depends on (ell, m) alone; the bound holds every (ell, m) with ell <= 21.
@functools.lru_cache(maxsize=512)
def _ylm_monomials(ell: int, m: int) -> tuple[Monomial3, ...]:
    mm = abs(m)
    leg = _legendre_coefficients(ell)
    # m-th derivative of the Legendre polynomial, exact rationals.
    deriv: dict[int, Fraction] = {}
    for p in range(mm, ell + 1):
        if leg[p] == 0:
            continue
        fall = Fraction(1)
        for i in range(mm):
            fall *= p - i
        deriv[p - mm] = leg[p] * fall

    acc: dict[tuple[int, int, int], list[Fraction]] = {}
    for p, cp in deriv.items():
        pad = (ell - mm - p) // 2
        for t in range(mm + 1):
            # (x1 + i x2)^mm term: C(mm, t) x1^t (i x2)^(mm - t)
            re_i, im_i = _I_POWERS[(mm - t) % 4]
            base = cp * math.comb(mm, t)
            for q1 in range(pad + 1):
                for q2 in range(pad - q1 + 1):
                    q3 = pad - q1 - q2
                    mult = base * Fraction(
                        factorial(pad), factorial(q1) * factorial(q2) * factorial(q3)
                    )
                    key = (t + 2 * q1, (mm - t) + 2 * q2, p + 2 * q3)
                    slot = acc.setdefault(key, [Fraction(0), Fraction(0)])
                    slot[0] += mult * re_i
                    slot[1] += mult * im_i

    # Normalization sqrt((2l+1) (l-m)! / (l+m)!) / (2 sqrt(pi)) and the
    # Condon-Shortley (-1)^m from the associated Legendre function.
    norm = math.sqrt(
        (2 * ell + 1) * factorial(ell - mm) / factorial(ell + mm)
    ) / (2.0 * math.sqrt(math.pi))
    sign = (-1) ** mm
    out: list[Monomial3] = []
    for (a, b, g), (re, im) in sorted(acc.items()):
        if re == 0 and im == 0:
            continue
        coeff = complex(float(re), float(im))
        if m < 0:
            # Conjugation relation: the (-1)^m there cancels the
            # Condon-Shortley sign, leaving the bare conjugate.
            out.append(Monomial3(a, b, g, norm * coeff.conjugate()))
        else:
            out.append(Monomial3(a, b, g, sign * norm * coeff))
    return tuple(out)


def hat_ylm(params: FuzzyParams, ell: int, m: int) -> HatResult:
    """Hat-map of the harmonic polynomial; beyond the band limit the result
    is the zero matrix with the whole polynomial in the truncation log."""
    poly = ylm_as_polynomial(ell, m)
    if ell > params.two_j:
        return HatResult(OperatorMatrix.zeros(params.two_j), tuple(poly))
    return hat_map(params, poly)


def c_of_ell_closed(params: FuzzyParams, ell: int) -> float:
    """Closed form of the constant relating quantized to hatted harmonics.

    The overall sign is (-1)^(j + sigma - ell), validated against the
    empirical entrywise ratio (the printed source formula carries
    (-1)^(j + sigma - 2 ell), which flips odd-ell values).
    """
    tj, ts = params.two_j, params.two_sigma
    if ts == 0:
        raise ValueError(
            "sigma = 0 quantizes the cartesian sector to zero; the "
            "fuzzy/quantized comparison is degenerate there"
        )
    if not 0 <= ell <= tj:
        raise ValueError(f"ell={ell} outside the band limit 2j={tj}")
    from .wigner import three_j_twice

    sign = parity_sign((tj + ts) // 2 - ell)
    root = math.sqrt(factorial(tj - ell) / factorial(tj + ell + 1))
    coupling = three_j_twice(tj, tj, 2 * ell, -ts, ts, 0).to_float()
    return 2.0**ell * sign * (tj + 1) / params.kappa**ell * root * coupling


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


_EPS = {(1, 2): 3, (2, 3): 1, (3, 1): 2, (2, 1): -3, (3, 2): -1, (1, 3): -2}


def symmetrization_commutator_check(
    two_j_rep: int, exponents: tuple[int, int, int], axis: int = 3
) -> float:
    """Frobenius residual between symmetrize-then-commute and
    commute-then-symmetrize for one generator monomial."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2, or 3, got {axis}")
    lams = lambda_matrices(SshParams(two_j_rep, two_j_rep % 2))
    # Commuting one factor through swaps it to the third axis with a factor
    # of +-i; symmetrizing the expansion groups into two shifted monomials.
    dim = two_j_rep + 1
    lhs = np.zeros((dim, dim), dtype=complex)
    for b in (1, 2, 3):
        if b == axis or exponents[b - 1] == 0:
            continue
        c = _EPS[(axis, b)]
        sgn = 1 if c > 0 else -1
        c = abs(c)
        shifted = list(exponents)
        shifted[b - 1] -= 1
        shifted[c - 1] += 1
        lhs += exponents[b - 1] * (1j * sgn) * sym_monomial(two_j_rep, shifted).entries
    rhs = lams[axis - 1].commutator(sym_monomial(two_j_rep, exponents)).entries
    return float(np.linalg.norm(lhs - rhs))


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
