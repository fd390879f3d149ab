"""Coherent states on the sphere and the quantization map.

Classical observables become operators through two independent pipelines:
numerical quadrature of the frame integral, and the exact closed form built
from pairs of 3j-symbols.  Their entrywise agreement is the central
correctness gate of the package.  The closed form of Y_lm is band m of the
memoized 3j band table of (2j, l) times one spin factor read from the same
table, written in one stride; its entries are bit for bit those of one
exact 3j lookup per entry, and it makes no exact lookup.

All frame integrals carry the measure sin(theta) dtheta dphi of total mass
4 pi (half-weighted on the double cover), which is what makes the harmonic
basis orthonormal and the identity resolve exactly; the normalized grids of
:mod:`fuzzsphere.quad` are rescaled accordingly.

Quadrature runs ring by ring.  The observable is one array-valued call on
the whole product grid, f(theta[:, None], phi[None, :]); the harmonics are
sampled once per ring of constant theta (:func:`fuzzsphere.ssh.ssh_rings`),
memoized per (family, grid) so every observable of a family shares them;
and the Gram sum splits exactly into a phi transform per ring and a sum
over rings (:func:`fuzzsphere.quad.ring_gram`), both fixed-order float sums
with the same bytes across runs and processes for a given numpy build.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import factorial, parity_sign
from .quad import PlaneGrid, SphereGrid, SpherePoint, ring_gram, weighted_gram
from .ssh import OperatorMatrix, SshParams, lambda_matrices, ssh_column, ssh_rings
from .wigner import _three_j_band

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


def normalization_constant(params: SshParams) -> float:
    """N(x) = (2j+1)/(4 pi), constant over the sphere (the sum rule that
    ``verify``'s ``ssh_sum_rule`` checks)."""
    return (params.two_j + 1) / FOUR_PI


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


def _default_grid(params: SshParams) -> SphereGrid:
    return SphereGrid.auto(params.two_j, params.two_j, params.phi_period)


# One (n_theta, dim) array per entry: 84 x 41 complex (55 kB) at 2j = 40 on
# its default grid.
@functools.lru_cache(maxsize=16)
def _ring_basis(params: SshParams, grid: SphereGrid) -> np.ndarray:
    """Read-only harmonics of the family on every ring of the grid, at phi = 0."""
    basis = ssh_rings(params, grid.rings().theta)
    basis.flags.writeable = False
    return basis


def quantize_quadrature(
    params: SshParams,
    f: Callable[[np.ndarray, np.ndarray], object],
    grid: SphereGrid | None = None,
    hermitize: bool = True,
) -> OperatorMatrix:
    """Frame quantization of f by quadrature.

    Entries are the mass-4pi integrals of conj(Y_mu) f Y_nu.  f is called
    once, as f(theta[:, None], phi[None, :]) with the grid's ring angles and
    azimuths, and its result is broadcast to (n_theta, n_phi); a scalar
    stands for a constant.  A non-finite sample raises ValueError naming its
    node (ring-major order, as in :meth:`SphereGrid.nodes_and_weights`) and
    its angles.  When f is real on every node the result is symmetrized and
    flagged Hermitian (the raw asymmetry is quadrature noise); pass
    hermitize=False to inspect the raw matrix.

    On the product grid Y_mu(theta_k, phi_i) = Y_mu(theta_k, 0)
    exp(i mu phi_i), so the harmonics are one memoized array per (family,
    grid) and the sum over nodes runs ring by ring
    (:func:`fuzzsphere.quad.ring_gram`) in a fixed order, bit-reproducible
    for a given numpy build but not correctly rounded.  No 3j-symbol
    enters, which keeps this route an independent check of the closed form.
    """
    if grid is None:
        grid = _default_grid(params)
    rings = grid.rings()
    shape = (grid.n_theta, grid.n_phi)
    fvals = np.broadcast_to(
        np.asarray(f(rings.theta[:, None], rings.phi[None, :]), dtype=complex), shape
    )
    finite = np.isfinite(fvals)
    if not finite.all():
        idx = int(np.flatnonzero(~finite)[0])
        k, i = divmod(idx, grid.n_phi)
        raise ValueError(
            f"non-finite sample {complex(fvals[k, i])} at node {idx} "
            f"(theta={float(rings.theta[k])!r}, phi={float(rings.phi[i])!r})"
        )
    f_is_real = not np.any(np.abs(fvals.imag) > 1e-14 * np.maximum(1.0, np.abs(fvals.real)))

    entries = MEASURE_MASS * ring_gram(_ring_basis(params, grid), fvals, rings)
    out = OperatorMatrix(params.two_j, entries)
    if hermitize and f_is_real:
        return out.hermitized()
    return out


def quantize_ylm_closed(params: SshParams, ell: int, m: int) -> OperatorMatrix:
    """Quantized spherical harmonic from the exact double-3j closed form.

    Only the entries with nu = mu - m couple: that band is row l + m of the
    memoized 3j band table of (2j, l) (:func:`fuzzsphere.wigner._three_j_band`)
    times the spin factor (j j l; -sigma sigma 0), read from the same table,
    bit for bit what one exact 3j lookup per entry gives.  Returns the zero
    matrix when ell exceeds the 2j band limit.
    """
    if abs(m) > ell:
        raise ValueError(f"|m|={abs(m)} exceeds ell={ell}")
    tj, ts = params.two_j, params.two_sigma
    if ell > tj:
        return OperatorMatrix.zeros(tj)
    table = _three_j_band(tj, ell)
    # Column r holds mu = sigma; its (-1)^r is undone, and a zero reads +0.0.
    r = (tj + ts) // 2
    spin_factor = parity_sign(r) * float(table[ell, r])
    scale = (tj + 1) * math.sqrt((2 * ell + 1) / FOUR_PI) * spin_factor
    dim = params.dim
    entries = np.zeros((dim, dim), dtype=complex)
    # Row r holds mu = -j + r, so nu = mu - m sits in column r - m: flat
    # index r (dim + 1) - m, one stride of dim + 1 along the band.
    lo, hi = max(0, m), min(dim, dim + m)
    band = table[ell + m, lo:hi]
    start = lo * (dim + 1) - m
    entries.reshape(-1)[start : start + (hi - lo) * (dim + 1) : dim + 1] = (
        parity_sign(r) * scale * band
    )
    return OperatorMatrix(tj, entries)


@dataclass(frozen=True)
class HarmonicExpansion:
    """Finite expansion of a classical observable over spherical harmonics."""

    terms: dict[tuple[int, int], complex]

    def __post_init__(self) -> None:
        for ell, m in self.terms:
            if ell < 0 or abs(m) > ell:
                raise ValueError(f"invalid harmonic index (ell={ell}, m={m})")

    def evaluate(self, theta, phi) -> np.ndarray:
        """Value at polar and azimuthal angles, arrays broadcast together.

        Each degree ell takes one :func:`fuzzsphere.ssh.ssh_rings` call over
        all polar angles; Y_ell_m(theta, phi) = Y_ell_m(theta, 0) exp(i m phi).
        """
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        total = np.zeros(np.broadcast_shapes(theta.shape, phi.shape), dtype=complex)
        rings: dict[int, np.ndarray] = {}
        for (ell, m), coeff in sorted(self.terms.items()):
            if ell not in rings:
                rings[ell] = ssh_rings(SshParams(2 * ell, 0), theta).reshape(
                    theta.shape + (2 * ell + 1,)
                )
            total = total + coeff * rings[ell][..., m + ell] * np.exp(1j * m * phi)
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
        if ell > params.two_j:
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
    column = (two_n + two_k) // 2

    def harmonic(theta, phi):
        ring = ssh_rings(spin_params, theta)[:, column].reshape(theta.shape)
        return ring * np.exp(0.5j * two_n * phi)

    return quantize_quadrature(params, harmonic, grid, hermitize=False)


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

    # a[r, c] = integral of z z^r conj(z)^c / sqrt(r! c!): one Gram matrix of
    # the basis conj(z)^c / sqrt(c!) under the weights w z.
    points, weights = grid.nodes_and_weights()
    z = np.array(points)
    roots = np.array([math.sqrt(factorial(n)) for n in range(dim)])
    basis = z.conj()[:, None] ** np.arange(dim) / roots
    a_quad = weighted_gram(basis, np.array(weights) * z)

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
