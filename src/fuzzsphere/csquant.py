"""Coherent states on the sphere and the quantization map.

Classical observables become operators through two independent pipelines:
numerical quadrature of the frame integral, and the exact closed form built
from pairs of 3j-symbols.  Their entrywise agreement is the central
correctness gate of the package.

All frame integrals carry the measure sin(theta) dtheta dphi of total mass
4 pi (half-weighted on the double cover), which is what makes the harmonic
basis orthonormal and the identity resolve exactly; the normalized grids of
:mod:`fuzzsphere.quad` are rescaled accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import factorial, parity_sign
from .quad import PlaneGrid, SphereGrid, SpherePoint, integrate_plane, weighted_gram
from .ssh import OperatorMatrix, SshParams, lambda_matrices, ssh_column, ssh_eval

__all__ = [
    "MEASURE_MASS",
    "CoherentState",
    "HarmonicExpansion",
    "ExpansionResult",
    "FockDemoSpace",
    "normalization_constant",
    "coherent_state",
    "reproducing_kernel",
    "quantize_quadrature",
    "quantize_ylm_closed",
    "quantize_expansion",
    "quantize_ssh_general",
    "cartesian_factor",
    "lower_symbol",
    "superop_action",
    "fock_demo",
]

FOUR_PI = 4 * math.pi

# Total mass of the frame measure; the normalized sphere grids average, so
# quantization integrals multiply by this constant (both covers).
MEASURE_MASS = FOUR_PI


def normalization_constant(
    params: SshParams, check_at: SpherePoint | None = None
) -> float:
    """N(x) = (2j+1)/(4 pi), constant over the sphere.

    Passing a probe point recomputes the sum rule there and raises if the
    evaluated harmonics have drifted from the hardcoded constant.
    """
    value = (params.two_j + 1) / FOUR_PI
    if check_at is not None:
        total = float(np.sum(np.abs(ssh_column(params, check_at)) ** 2))
        if abs(total - value) > 1e-10:
            raise ArithmeticError(
                f"sum-rule drift at {check_at}: {total} != {value}"
            )
    return value


@dataclass(frozen=True)
class CoherentState:
    """Normalized frame vector attached to a point of the sphere."""

    params: SshParams
    point: SpherePoint
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "CoherentState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def coherent_state(params: SshParams, x: SpherePoint) -> CoherentState:
    """Unit vector with components conj(Y_mu(x)) / sqrt(N(x))."""
    root_n = math.sqrt(normalization_constant(params))
    amps = ssh_column(params, x).conj() / root_n
    return CoherentState(params, x, amps)


def reproducing_kernel(params: SshParams, x: SpherePoint, xp: SpherePoint) -> complex:
    """K(x, x') = sqrt(N N') <x|x'> = sum_mu Y_mu(x) conj(Y_mu(x'))."""
    return complex(np.vdot(ssh_column(params, xp), ssh_column(params, x)))


def _default_grid(params: SshParams, ell_max: int | None = None) -> SphereGrid:
    band = params.two_j if ell_max is None else ell_max
    return SphereGrid.auto(params.two_j, band, params.phi_period)


def quantize_quadrature(
    params: SshParams,
    f: Callable[[SpherePoint], complex],
    grid: SphereGrid | None = None,
    hermitize: bool = True,
) -> OperatorMatrix:
    """Frame quantization of f by quadrature.

    Entries are the mass-4pi integrals of conj(Y_mu) f Y_nu.  When f is real
    on every node the result is symmetrized and flagged Hermitian (the raw
    asymmetry is quadrature noise); pass hermitize=False to inspect the raw
    matrix.

    f is sampled once per node of the (cached) grid.  The harmonics are
    sampled separably: on the product grid Y_mu(theta_k, phi_i) =
    Y_mu(theta_k, 0) exp(i mu phi_i), so each ring takes one D-matrix
    column (:func:`fuzzsphere.ssh.ssh_column`).  Every entry is then one
    exact float sum of its weighted terms
    (:func:`fuzzsphere.quad.weighted_gram`), bit-reproducible and
    independent of BLAS.  No 3j-symbol enters, which keeps this route an
    independent check of the closed form.
    """
    if grid is None:
        grid = _default_grid(params)
    points, weights = grid.nodes_and_weights()
    fvals = np.empty(len(points), dtype=complex)
    f_is_real = True
    for idx, x in enumerate(points):
        v = complex(f(x))
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(
                f"non-finite sample {v} at node {idx} "
                f"(theta={x.theta!r}, phi={x.phi!r})"
            )
        fvals[idx] = v
        if abs(v.imag) > 1e-14 * max(1.0, abs(v.real)):
            f_is_real = False

    # Nodes run ring by ring: n_phi consecutive nodes share one theta.
    n_phi = grid.n_phi
    rings = np.array([ssh_column(params, SpherePoint(x.theta, 0.0)) for x in points[::n_phi]])
    phis = np.array([x.phi for x in points[:n_phi]])
    mus = np.array(params.projections()) / 2.0
    phases = np.exp(1j * np.outer(phis, mus))
    basis = (rings[:, None, :] * phases[None, :, :]).reshape(len(points), params.dim)

    entries = MEASURE_MASS * weighted_gram(basis, np.array(weights) * fvals)
    out = OperatorMatrix(params.two_j, entries)
    if hermitize and f_is_real:
        return out.hermitized()
    return out


def quantize_ylm_closed(params: SshParams, ell: int, m: int) -> OperatorMatrix:
    """Quantized spherical harmonic from the exact double-3j closed form.

    Only the entries with nu = mu - m couple, so the loop runs over that
    band of dim - |m| entries.  Returns the zero matrix when ell exceeds
    the 2j band limit.
    """
    from .wigner import three_j_twice

    if abs(m) > ell:
        raise ValueError(f"|m|={abs(m)} exceeds ell={ell}")
    tj, ts = params.two_j, params.two_sigma
    if ell > tj:
        return OperatorMatrix.zeros(tj)
    spin_factor = three_j_twice(tj, tj, 2 * ell, -ts, ts, 0).to_float()
    scale = (tj + 1) * math.sqrt((2 * ell + 1) / FOUR_PI) * spin_factor
    dim = params.dim
    entries = np.zeros((dim, dim), dtype=complex)
    # Row r holds mu = -j + r, so nu = mu - m sits in column r - m.
    for r in range(max(0, m), min(dim, dim + m)):
        tmu = 2 * r - tj
        sign = parity_sign((ts - tmu) // 2)
        coupling = three_j_twice(tj, tj, 2 * ell, -tmu, tmu - 2 * m, 2 * m).to_float()
        entries[r, r - m] = sign * scale * coupling
    return OperatorMatrix(tj, entries, hermitian=(m == 0))


@dataclass(frozen=True)
class HarmonicExpansion:
    """Finite expansion of a classical observable over spherical harmonics."""

    terms: dict[tuple[int, int], complex]

    def __post_init__(self) -> None:
        for ell, m in self.terms:
            if ell < 0 or abs(m) > ell:
                raise ValueError(f"invalid harmonic index (ell={ell}, m={m})")

    def evaluate(self, x: SpherePoint) -> complex:
        total = 0j
        for (ell, m), coeff in sorted(self.terms.items()):
            total += coeff * ssh_eval(SshParams(2 * ell, 0), 2 * m, x)
        return total

    @staticmethod
    def builtin(name: str) -> "HarmonicExpansion":
        """Cartesian coordinate observables expanded over degree-1 harmonics."""
        c = math.sqrt(2 * math.pi / 3)
        table: dict[str, dict[tuple[int, int], complex]] = {
            "x1": {(1, -1): c, (1, 1): -c},
            "x2": {(1, -1): 1j * c, (1, 1): 1j * c},
            "x3": {(1, 0): math.sqrt(4 * math.pi / 3)},
        }
        table["cos_theta"] = table["x3"]
        if name not in table:
            raise ValueError(f"unknown builtin observable {name!r}")
        return HarmonicExpansion(table[name])


@dataclass(frozen=True)
class ExpansionResult:
    """Quantized expansion plus the dropped beyond-band terms, as data."""

    matrix: OperatorMatrix
    truncated: tuple[tuple[int, int, complex], ...]


def quantize_expansion(params: SshParams, f: HarmonicExpansion) -> ExpansionResult:
    """Sum of closed-form quantized harmonics; ell > 2j terms are logged."""
    total = OperatorMatrix.zeros(params.two_j)
    dropped: list[tuple[int, int, complex]] = []
    for (ell, m), coeff in sorted(f.terms.items()):
        if 2 * ell > params.two_j:
            dropped.append((ell, m, coeff))
            continue
        total = total + quantize_ylm_closed(params, ell, m).scaled(coeff)
    return ExpansionResult(total, tuple(dropped))


def quantize_ssh_general(
    params: SshParams,
    two_nu: int,
    two_k: int,
    two_n: int,
    grid: SphereGrid | None = None,
) -> OperatorMatrix:
    """Quadrature quantization of a spin-nu harmonic observable.

    No closed form applies for nu != 0, and the result is generally not
    Hermitian.  Domain violations of (nu, k, n) raise.
    """
    spin_params = SshParams(two_k, two_nu)
    if abs(two_n) > two_k or (two_n - two_k) % 2:
        raise ValueError(f"invalid projection 2n={two_n} for 2k={two_k}")
    if grid is None:
        period = 4 * math.pi if (params.two_j % 2 or two_k % 2) else 2 * math.pi
        grid = SphereGrid.auto(params.two_j, two_k, period)
    return quantize_quadrature(
        params, lambda x: ssh_eval(spin_params, two_n, x), grid, hermitize=False
    )


def cartesian_factor(params: SshParams) -> float:
    """Proportionality sigma / (j (j+1)) between quantized coordinates and
    the generators; zero exactly when sigma = 0."""
    tj, ts = params.two_j, params.two_sigma
    if tj == 0:
        return 0.0
    return 2.0 * ts / (tj * (tj + 2))


def lower_symbol(params: SshParams, op: OperatorMatrix, x: SpherePoint) -> complex:
    """Expectation <x| op |x> in the coherent state at x."""
    if op.two_j != params.two_j:
        raise ValueError(
            f"operator dimension 2j={op.two_j} does not match params 2j={params.two_j}"
        )
    c = coherent_state(params, x).amplitudes
    return complex(np.vdot(c, op.entries @ c))


def superop_action(params: SshParams, axis: int, op: OperatorMatrix) -> OperatorMatrix:
    """Adjoint action of the generator along the given axis: [Lambda_a, op]."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2, or 3, got {axis}")
    lam = lambda_matrices(params)[axis - 1]
    return lam.commutator(op)


@dataclass(frozen=True)
class FockDemoSpace:
    """Truncated oscillator space with the canonical operator set."""

    n_max: int
    lowering: np.ndarray
    raising: np.ndarray
    position: np.ndarray
    momentum: np.ndarray
    number: np.ndarray


def fock_demo(n_max: int, grid: PlaneGrid | None = None) -> tuple[FockDemoSpace, dict]:
    """Quantization demo on the truncated Fock space.

    Builds the lowering operator both algebraically and by Gaussian
    quadrature of the frame integral of z, and reports the deviation plus
    the canonical-commutator structure (identity block, truncation corner).
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if grid is None:
        grid = PlaneGrid(n_max + 3, 2 * n_max + 5)

    dim = n_max + 1
    a_alg = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a_alg[n - 1, n] = math.sqrt(n)

    roots = [math.sqrt(factorial(n)) for n in range(dim)]
    a_quad = np.empty((dim, dim), dtype=complex)
    for mrow in range(dim):
        for ncol in range(dim):
            val = integrate_plane(
                lambda z: z * z**mrow * z.conjugate() ** ncol, grid
            )
            a_quad[mrow, ncol] = val / (roots[mrow] * roots[ncol])

    adag = a_alg.conj().T
    q = (a_alg + adag) / math.sqrt(2)
    p = (a_alg - adag) / (1j * math.sqrt(2))
    number = adag @ a_alg
    comm = q @ p - p @ q

    block = comm[:n_max, :n_max] - 1j * np.eye(n_max)
    report = {
        "a_quadrature_max_dev": float(np.max(np.abs(a_quad - a_alg))),
        "qp_block_max_dev": float(np.max(np.abs(block))),
        "qp_corner": complex(comm[n_max, n_max]),
        "lowering_exact": all(
            a_alg[n - 1, n] == math.sqrt(n) for n in range(1, dim)
        ),
    }
    space = FockDemoSpace(n_max, a_alg, adag, q, p, number)
    return space, report
