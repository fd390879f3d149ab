"""Deterministic quadrature on the sphere, its double cover, and the plane.

Grids are Gauss-Legendre in cos(theta) crossed with the uniform trapezoid
rule in phi, so band-limited integrands are integrated exactly once the node
counts clear the polynomial degree and the Nyquist order.  Node ordering is
fixed and sums are accumulated with exact float summation, so results are
bit-reproducible for a given grid.

Sphere grids are frozen values: their nodes and weights are built once per
distinct grid and cached as immutable tuples.  The nodes form rings of
constant theta, n_phi consecutive nodes per ring, which is what lets a
caller sample phi-separable integrands ring by ring.  :func:`weighted_gram`
reduces a sampled basis to its weighted Gram matrix with one exact sum per
entry, the kernel of quadrature quantization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SpherePoint",
    "SphereGrid",
    "PlaneGrid",
    "integrate_sphere",
    "integrate_plane",
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
    def nodes_and_weights(self) -> tuple[tuple[SpherePoint, ...], tuple[float, ...]]:
        """Deterministic node ordering: ascending cos(theta), then phi.

        Memoized per grid (the grid is its own cache key), so the
        Gauss-Legendre rule is built once per distinct grid; the tuples are
        shared between callers and cannot be modified.
        """
        u, wu = np.polynomial.legendre.leggauss(self.n_theta)
        points: list[SpherePoint] = []
        weights: list[float] = []
        for uk, wk in zip(u, wu):
            theta = math.acos(uk)
            for i in range(self.n_phi):
                phi = self.phi_period * i / self.n_phi
                points.append(SpherePoint(theta, phi))
                weights.append(wk / 2.0 / self.n_phi)
        return tuple(points), tuple(weights)


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


def weighted_gram(basis: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Matrix G[r, c] = sum_n weights[n] conj(basis[n, r]) basis[n, c].

    ``basis`` holds one row of samples per node and ``weights`` one
    (possibly complex) weight per node.  Each entry is reduced with exact
    float summation over its real and imaginary parts, so the result is
    correctly rounded from the term array and does not depend on BLAS.
    """
    basis = np.asarray(basis, dtype=complex)
    weighted = np.asarray(weights, dtype=complex)[:, None] * basis.conj()
    dim = basis.shape[1]
    out = np.empty((dim, dim), dtype=complex)
    for r in range(dim):
        terms = (weighted[:, r, None] * basis).T
        out[r] = [
            complex(math.fsum(re), math.fsum(im))
            for re, im in zip(terms.real.tolist(), terms.imag.tolist())
        ]
    return out


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


def integrate_plane(f: Callable[[complex], complex], grid: PlaneGrid) -> complex:
    """Gaussian-measure integral of f over the complex plane."""
    points, weights = grid.nodes_and_weights()
    terms: list[complex] = []
    for idx, (z, w) in enumerate(zip(points, weights)):
        v = complex(f(z))
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"non-finite sample {v} at node {idx} (z={z!r})")
        terms.append(w * v)
    return _complex_fsum(terms)
