"""Deterministic quadrature on the sphere, its double cover, and the plane.

Grids are Gauss-Legendre in cos(theta) crossed with the uniform trapezoid
rule in phi, so band-limited integrands are integrated exactly once the node
counts clear the polynomial degree and the Nyquist order.  Node ordering is
fixed: :func:`integrate_sphere` sums with exact float summation, and the Gram
kernels below in a fixed order, so results are bit-reproducible for a given
grid (and, for the Gram kernels, a given numpy build).

Sphere grids are frozen values built once per distinct grid.  Their ring
arrays (:meth:`SphereGrid.rings`: the polar angle of each ring of constant
theta, the azimuths shared by every ring, and the weight of each node of a
ring) are the one construction; the node list of
:meth:`SphereGrid.nodes_and_weights`, n_phi consecutive nodes per ring, is
derived from them.

Two Gram kernels serve quadrature quantization.  :func:`ring_gram` takes a
basis sampled once per ring whose columns carry consecutive integer phi
frequencies; the sum over the product grid then splits exactly into a phi
transform of the integrand per ring and a sum over rings (Driscoll and
Healy, Adv. Appl. Math. 15 (1994) 202).  Neither level depends on the
integrand beyond its samples, so one call serves a whole stack of
integrands on the grid, one Gram matrix each.  :func:`weighted_gram` takes
a basis sampled at every node, for integrands that do not separate.  Both
reduce with ``np.einsum`` at its default ``optimize=False``: numpy's own C
loops in a fixed order, never BLAS, so a Gram matrix has the same bytes
across runs and processes for a given numpy build, and in ``ring_gram``
whether its integrand comes alone or in a stack.  The sums are ordinary
float sums, not correctly rounded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "SpherePoint",
    "SphereGrid",
    "GridRings",
    "PlaneGrid",
    "integrate_sphere",
    "ring_gram",
    "weighted_gram",
]

TWO_PI = 2 * math.pi
FOUR_PI = 4 * math.pi


@dataclass(frozen=True)
class SpherePoint:
    """Point (theta, phi); phi lives mod 2 pi, or mod 4 pi on the double cover."""

    theta: float
    phi: float

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    @staticmethod
    def from_unit_vector(v) -> "SpherePoint":
        x, y, z = float(v[0]), float(v[1]), float(v[2])
        theta = math.acos(max(-1.0, min(1.0, z)))
        phi = math.atan2(y, x) % TWO_PI
        return SpherePoint(theta, phi)


def _complex_fsum(values: list[complex]) -> complex:
    return complex(
        math.fsum(v.real for v in values), math.fsum(v.imag for v in values)
    )


class GridRings(NamedTuple):
    """Read-only ring arrays of a sphere grid: polar angle of each ring
    (ascending cos(theta)), the azimuths every ring shares, and the weight of
    each single node of a ring."""

    theta: np.ndarray
    phi: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class SphereGrid:
    """Product grid with weights summing to 1 under the normalized measure
    sin(theta) dtheta dphi / (4 pi), or /(8 pi) when phi_period is 4 pi."""

    n_theta: int
    n_phi: int
    phi_period: float = TWO_PI

    def __post_init__(self) -> None:
        if self.n_theta < 1 or self.n_phi < 1:
            raise ValueError("node counts must be >= 1")

    @staticmethod
    def auto(two_j: int, ell_max: int, phi_period: float = TWO_PI) -> "SphereGrid":
        """Default sizing 2j + ell_max + 4 by 4j + 2 ell_max + 4: exactness
        for spin-harmonic products up to degree ell_max with margin."""
        return SphereGrid(
            two_j + ell_max + 4, 2 * two_j + 2 * ell_max + 4, phi_period
        )

    @functools.lru_cache(maxsize=64)
    def rings(self) -> GridRings:
        """Ring arrays of the grid, memoized per grid and read-only.

        theta_k = acos(u_k) for the Gauss-Legendre nodes u_k, phi_i =
        phi_period i / n_phi, and every node of ring k weighs w_k / 2 / n_phi.
        """
        u, wu = np.polynomial.legendre.leggauss(self.n_theta)
        theta = np.array([math.acos(uk) for uk in u.tolist()])
        phi = self.phi_period * np.arange(self.n_phi) / self.n_phi
        weight = wu / 2.0 / self.n_phi
        for arr in (theta, phi, weight):
            arr.flags.writeable = False
        return GridRings(theta, phi, weight)

    @functools.lru_cache(maxsize=64)
    def nodes_and_weights(self) -> tuple[tuple[SpherePoint, ...], tuple[float, ...]]:
        """Deterministic node ordering: ascending cos(theta), then phi.

        Derived from :meth:`rings` and memoized per grid (the grid is its own
        cache key); the tuples are shared between callers and cannot be
        modified.
        """
        rings = self.rings()
        phis = rings.phi.tolist()
        points = tuple(SpherePoint(t, p) for t in rings.theta.tolist() for p in phis)
        weights = tuple(w for w in rings.weight.tolist() for _ in phis)
        return points, weights


def integrate_sphere(
    f: Callable[[SpherePoint], complex], grid: SphereGrid
) -> complex:
    """Average of f over the (possibly doubled) sphere, unit total mass."""
    points, weights = grid.nodes_and_weights()
    terms: list[complex] = []
    for idx, (x, w) in enumerate(zip(points, weights)):
        v = complex(f(x))
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(
                f"non-finite sample {v} at node {idx} "
                f"(theta={x.theta!r}, phi={x.phi!r})"
            )
        terms.append(w * v)
    return _complex_fsum(terms)


# Largest gather of transform columns the ring level of ring_gram makes at
# once (64 kB of complex128), in blocks of whole rows of every integrand of
# the stack: the step divides by the stack size, and a block is never less
# than one row of each integrand.  Blocks from 1k terms to unblocked ran
# equally fast (closed-vs-quadrature at 2j <= 8, one quadrature at 2j = 40
# and 100), but unblocked the traced peak of one quadrature at 2j = 100
# grows from 4.3 to 37 MB.
_BLOCK_TERMS = 1 << 12


def ring_gram(basis: np.ndarray, samples: np.ndarray, rings: GridRings) -> np.ndarray:
    """Weighted Gram matrices of a ring-separable basis over a product grid,
    one per integrand of a stack.

    ``basis[k, r]`` is basis function r on ring k at phi = 0, and the
    function at (theta_k, phi_i) is basis[k, r] exp(i (r + s) phi_i) for one
    offset s shared by all r; ``samples[..., k, i]`` is an integrand at node
    (k, i), with any leading stack axes.  The result, of shape
    ``samples.shape[:-2] + (dim, dim)``, holds G[r, c] = sum_{k,i} w_k f_ki
    conj(Y_r) Y_c for each integrand, which factorizes exactly:

        G[r, c] = sum_k w_k conj(basis[k, r]) basis[k, c] F_k(c - r),
        F_k(d) = sum_i f_ki exp(i d phi_i),

    with F_k taken at the 2 dim - 1 integer differences.  Both levels are
    fixed-order ``np.einsum`` reductions (module docstring) that sum each
    entry of each integrand alone, so G has the same bytes on every run for
    a given numpy build, whether an integrand comes alone or in a stack.
    """
    basis = np.asarray(basis, dtype=complex)
    samples = np.asarray(samples, dtype=complex)
    n_theta, dim = basis.shape
    stack = math.prod(samples.shape[:-2])
    phases = np.exp(1j * np.outer(np.arange(1 - dim, dim), rings.phi))
    transform = np.einsum("...ki,di->...kd", samples, phases)
    weighted = rings.weight[:, None] * basis.conj()
    # lag[r, c] is the column of F_k holding d = c - r
    lag = np.arange(dim)[None, :] - np.arange(dim)[:, None] + (dim - 1)
    step = max(1, _BLOCK_TERMS // (stack * dim * n_theta))
    return np.concatenate([
        np.einsum(
            "kr,kc,...krc->...rc",
            weighted[:, r : r + step],
            basis,
            transform[..., lag[r : r + step]],
        )
        for r in range(0, dim, step)
    ], axis=-2)


def weighted_gram(basis: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Matrix G[r, c] = sum_n weights[n] conj(basis[n, r]) basis[n, c].

    ``basis`` holds one row of samples per node and ``weights`` one
    (possibly complex) weight per node.  One fixed-order ``np.einsum``
    reduction (module docstring), so the result has the same bytes on every
    run for a given numpy build.
    """
    basis = np.asarray(basis, dtype=complex)
    weights = np.asarray(weights, dtype=complex)
    return np.einsum("n,nr,nc->rc", weights, basis.conj(), basis)


@dataclass(frozen=True)
class PlaneGrid:
    """Gauss-Laguerre in |z|^2 crossed with uniform angle for the Gaussian
    measure (1/pi) exp(-|z|^2) d^2 z; weights sum to 1."""

    n_radial: int
    n_angular: int

    def __post_init__(self) -> None:
        if self.n_radial < 1 or self.n_angular < 1:
            raise ValueError("node counts must be >= 1")

    def nodes_and_weights(self) -> tuple[list[complex], list[float]]:
        u, wu = np.polynomial.laguerre.laggauss(self.n_radial)
        points: list[complex] = []
        weights: list[float] = []
        for uk, wk in zip(u, wu):
            r = math.sqrt(uk)
            for i in range(self.n_angular):
                ang = TWO_PI * i / self.n_angular
                points.append(r * complex(math.cos(ang), math.sin(ang)))
                weights.append(wk / self.n_angular)
        return points, weights
