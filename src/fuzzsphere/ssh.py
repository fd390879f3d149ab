"""Spin spherical harmonics, their generator matrices, and rotations.

The harmonics are entries of the SU(2) representation matrices (see
:func:`ssh_eval`), so they share the one eigenbasis kernel of
:mod:`fuzzsphere.wigner`, its exact north pole and its working range
``D_MATRIX_MAX_TWO_J``.  Every mu at a point is one D column (:func:`ssh_column`),
and every mu on an array of polar angles at phi = 0 is one batched product
(:func:`ssh_rings`), the ring samples of quadrature quantization.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .quad import SpherePoint
from .wigner import Su2Element, su2_from_rotation, wigner_D_columns, wigner_D_matrix

__all__ = [
    "SshParams",
    "SpherePoint",
    "OperatorMatrix",
    "ssh_eval",
    "ssh_column",
    "ssh_rings",
    "lambda_matrices",
    "lambda_plus",
    "lambda_minus",
    "rotation_operator",
    "family_rotation_element",
]

FOUR_PI = 4 * math.pi

# i**t for twice-valued exponents: realizes (-1)**x exactly at x = t/2.
_QUARTER_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


def half_power_of_minus_one(twice: int) -> complex:
    """exp(i pi x) for x = twice/2, exact on the unit circle."""
    return _QUARTER_PHASES[twice % 4]


@dataclass(frozen=True)
class SshParams:
    """Spin family labels (2j, 2sigma) plus the free phase angle psi."""

    two_j: int
    two_sigma: int
    psi: float = 0.0

    def __post_init__(self) -> None:
        if self.two_j < 0:
            raise ValueError(f"negative spin 2j={self.two_j}")
        if abs(self.two_sigma) > self.two_j:
            raise ValueError(
                f"|2sigma|={abs(self.two_sigma)} exceeds 2j={self.two_j}"
            )
        if (self.two_j - self.two_sigma) % 2:
            raise ValueError(
                f"2sigma={self.two_sigma} parity differs from 2j={self.two_j}"
            )

    @property
    def is_half_integer(self) -> bool:
        return self.two_j % 2 == 1

    @property
    def dim(self) -> int:
        return self.two_j + 1

    @property
    def phi_period(self) -> float:
        return 4 * math.pi if self.is_half_integer else 2 * math.pi

    def projections(self) -> range:
        """Twice-values of mu from -j to j, ascending."""
        return range(-self.two_j, self.two_j + 1, 2)


class OperatorMatrix:
    """Dense complex operator on the (2j+1)-dimensional spin space.

    Rows and columns are indexed by the magnetic number in ascending order;
    row index = (2mu + 2j)/2.  Instances are treated as immutable values.
    """

    __slots__ = ("two_j", "entries")

    def __init__(self, two_j: int, entries: np.ndarray):
        dim = two_j + 1
        entries = np.asarray(entries, dtype=complex)
        if entries.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}, got {entries.shape}")
        self.two_j = two_j
        self.entries = entries

    @staticmethod
    def zeros(two_j: int) -> "OperatorMatrix":
        return OperatorMatrix(two_j, np.zeros((two_j + 1, two_j + 1), dtype=complex))

    @staticmethod
    def identity(two_j: int) -> "OperatorMatrix":
        return OperatorMatrix(two_j, np.eye(two_j + 1, dtype=complex))

    def _wrap(self, arr: np.ndarray) -> "OperatorMatrix":
        return OperatorMatrix(self.two_j, arr)

    def _check(self, other: "OperatorMatrix") -> None:
        if self.two_j != other.two_j:
            raise ValueError(
                f"dimension mismatch: 2j={self.two_j} vs {other.two_j}"
            )

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        return self._wrap(self.entries + other.entries)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        return self._wrap(self.entries - other.entries)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        return self._wrap(self.entries @ other.entries)

    def scaled(self, c: complex) -> "OperatorMatrix":
        return self._wrap(c * self.entries)

    def dagger(self) -> "OperatorMatrix":
        return self._wrap(self.entries.conj().T)

    def commutator(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        return self._wrap(self.entries @ other.entries - other.entries @ self.entries)

    def max_abs_diff(self, other: "OperatorMatrix") -> float:
        self._check(other)
        return float(np.max(np.abs(self.entries - other.entries)))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries)))

    def operator_norm(self) -> float:
        """Largest singular value by direct dense decomposition."""
        return float(np.linalg.svd(self.entries, compute_uv=False)[0])

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def hermitized(self) -> "OperatorMatrix":
        """Average with the adjoint."""
        return self._wrap((self.entries + self.entries.conj().T) / 2.0)

    def __repr__(self) -> str:
        return f"OperatorMatrix(two_j={self.two_j})"


def _prefactor(params: SshParams) -> complex:
    """i^(2 sigma) e^(i sigma psi) sqrt((2j+1)/(4 pi))."""
    ts = params.two_sigma
    phase = half_power_of_minus_one(ts) * cmath.exp(0.5j * ts * params.psi)
    return phase * math.sqrt(params.dim / FOUR_PI)


def ssh_eval(params: SshParams, two_mu: int, x: SpherePoint) -> complex:
    """Value of the spin-sigma harmonic with projection mu at x: entry mu of
    :func:`ssh_column`.

    Y_mu^sigma(theta, phi) = i^(2 sigma) e^(i sigma psi) e^(i mu phi)
    sqrt((2j+1)/(4 pi)) D^j_{mu sigma}(theta/2, 0, pi/2), one entry of the
    representation matrix (:func:`fuzzsphere.wigner.wigner_D`): exact at
    the north pole, and for 2j <= D_MATRIX_MAX_TWO_J only.
    """
    tj = params.two_j
    if (two_mu - tj) % 2:
        raise ValueError(f"2mu={two_mu} parity differs from 2j={tj}")
    if abs(two_mu) > tj:
        raise ValueError(f"|2mu|={abs(two_mu)} exceeds 2j={tj}")
    return complex(ssh_column(params, x)[(two_mu + tj) // 2])


def ssh_rings(params: SshParams, thetas) -> np.ndarray:
    """Every harmonic of the family at phi = 0 on each polar angle of an
    array, shape (n, dim) with mu ascending along a row.

    On a ring of constant theta, Y_mu(theta, phi) = Y_mu(theta, 0)
    exp(i mu phi), so these rows are all a product grid needs.  One batched
    D-column product (:func:`fuzzsphere.wigner.wigner_D_columns`) serves
    every angle; a row at theta = 0 is exactly the identity column times the
    prefactor.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    d = wigner_D_columns(params.two_j, params.two_sigma, thetas / 2, 0.0, math.pi / 2)
    return _prefactor(params) * d


def ssh_column(params: SshParams, x: SpherePoint) -> np.ndarray:
    """Every harmonic of the family at x, mu ascending: the one-ring case of
    :func:`ssh_rings` times exp(i mu phi)."""
    twice_mu = np.arange(-params.two_j, params.two_j + 1, 2)
    return ssh_rings(params, (x.theta,))[0] * np.exp(0.5j * x.phi * twice_mu)


def lambda_plus(params: SshParams) -> OperatorMatrix:
    """Raising generator: entries sqrt((j-mu)(j+mu+1)) one below the diagonal
    of the target projection, ascending-mu convention."""
    tj = params.two_j
    m = np.zeros((tj + 1, tj + 1), dtype=complex)
    for col, tmu in enumerate(range(-tj, tj - 1, 2)):
        val = math.sqrt(((tj - tmu) // 2) * ((tj + tmu) // 2 + 1))
        m[col + 1, col] = val
    return OperatorMatrix(tj, m)


def lambda_minus(params: SshParams) -> OperatorMatrix:
    return lambda_plus(params).dagger()


def lambda_matrices(params: SshParams) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Hermitian generators (L1, L2, L3) on the spin-j space, shared
    read-only matrices memoized per 2j."""
    return _generators(params.two_j)


# Three dim^2 complex matrices per 2j (0.2 MB at 2j = 40), hence a bounded
# cache.
@functools.lru_cache(maxsize=16)
def _generators(two_j: int) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    params = SshParams(two_j, two_j % 2)
    lp = lambda_plus(params).entries
    lm = lp.conj().T
    l3 = np.diag(np.arange(-two_j, two_j + 1, 2) / 2.0).astype(complex)
    out = (
        OperatorMatrix(two_j, (lp + lm) / 2.0),
        OperatorMatrix(two_j, (lp - lm) / 2j),
        OperatorMatrix(two_j, l3),
    )
    for op in out:
        op.entries.flags.writeable = False
    return out


def rotation_operator(params: SshParams, xi: Su2Element) -> OperatorMatrix:
    """Unitary rotation matrix in the harmonic basis: entries D^j_{nu mu}(xi)."""
    return OperatorMatrix(params.two_j, wigner_D_matrix(params.two_j, xi))


def family_rotation_element(axis, angle: float) -> Su2Element:
    """Group element whose representation matrix moves the harmonic family
    along the rotation (axis, angle): Y_mu(R^T x) = sum_nu Y_nu(x) D_{nu mu}.

    This is the conjugate of the adjoint-action element; the relation is
    exact for sigma = 0 and for rotations about the 3-axis, and holds up to
    a point-dependent spin phase otherwise (an obstruction of the harmonic
    section, not of the representation).  Coherent states and quantized
    operators transform exactly with it for every sigma.
    """
    return su2_from_rotation(axis, angle).conjugate_element()
