"""Quadrature tests: normalization, exactness plateaus, determinism."""

import math

import numpy as np
import pytest

from fuzzsphere.quad import (
    PlaneGrid,
    SphereGrid,
    SpherePoint,
    integrate_sphere,
    ring_gram,
    weighted_gram,
)
from fuzzsphere.ssh import SshParams, ssh_eval

TWO_PI = 2 * math.pi
FOUR_PI = 4 * math.pi


def test_weights_sum_to_one_both_covers():
    for period in (TWO_PI, FOUR_PI):
        grid = SphereGrid(6, 9, period)
        _, w = grid.nodes_and_weights()
        assert abs(math.fsum(w) - 1.0) < 1e-14


def test_constant_integrates_to_one():
    grid = SphereGrid(4, 4)
    assert integrate_sphere(lambda x: 1.0, grid) == pytest.approx(1.0, abs=1e-15)


def test_cos_theta_integrates_to_zero():
    grid = SphereGrid(8, 8)
    assert abs(integrate_sphere(lambda x: math.cos(x.theta), grid)) < 1e-14


def test_unit_norm_under_normalized_measure():
    # The harmonic normalized against this unit-mass measure is sqrt(3) cos
    # theta; the conventionally normalized one integrates to 1/(4 pi).
    grid = SphereGrid(8, 8)
    val = integrate_sphere(lambda x: 3.0 * math.cos(x.theta) ** 2, grid)
    assert val.real == pytest.approx(1.0, abs=1e-12)
    y10 = lambda x: abs(ssh_eval(SshParams(2, 0), 0, x)) ** 2
    assert integrate_sphere(y10, grid).real == pytest.approx(
        1.0 / FOUR_PI, abs=1e-12
    )


def test_band_limited_exactness_plateau():
    # Product of two spin harmonics and one ordinary harmonic: the stated
    # node counts sit on the convergence plateau (values stop moving), with
    # the phi rule exact once past the Nyquist order.
    tj, ts, ell, m = 2, 2, 2, 1
    p = SshParams(tj, ts)
    f = lambda x: (
        ssh_eval(p, 2, x).conjugate()
        * ssh_eval(p, 0, x)
        * ssh_eval(SshParams(2 * ell, 0), 2 * m, x)
    )
    n_phi = 2 * tj + 2 * ell + 1
    n_theta = tj + ell + 2
    base = integrate_sphere(f, SphereGrid(n_theta, n_phi))
    finer_theta = integrate_sphere(f, SphereGrid(2 * n_theta, n_phi))
    finer_phi = integrate_sphere(f, SphereGrid(n_theta, 2 * n_phi + 1))
    assert abs(base - finer_theta) < 1e-12
    assert abs(base - finer_phi) < 1e-14


def test_doubled_sphere_half_frequency():
    grid = SphereGrid(4, 12, FOUR_PI)
    val = integrate_sphere(
        lambda x: complex(math.cos(x.phi / 2), math.sin(x.phi / 2)), grid
    )
    assert abs(val) < 1e-14


def test_auto_grid_orders():
    g = SphereGrid.auto(4, 3)
    assert g.n_theta == 4 + 3 + 4
    assert g.n_phi == 8 + 6 + 4


def test_non_finite_sample_names_node():
    grid = SphereGrid(3, 3)
    pts, _ = grid.nodes_and_weights()
    bad = pts[4]

    def f(x):
        if x.theta == bad.theta and x.phi == bad.phi:
            return float("inf")
        return 1.0

    with pytest.raises(ValueError, match="node 4"):
        integrate_sphere(f, grid)


def test_sphere_determinism():
    grid = SphereGrid(7, 11)
    f = lambda x: math.sin(3 * x.theta) * complex(
        math.cos(2 * x.phi), math.sin(x.phi)
    )
    assert integrate_sphere(f, grid) == integrate_sphere(f, grid)
    a = grid.nodes_and_weights()
    b = SphereGrid(7, 11).nodes_and_weights()
    assert a == b


def test_grid_built_once_per_distinct_grid(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    SphereGrid.nodes_and_weights.cache_clear()
    first = SphereGrid(5, 7, FOUR_PI).nodes_and_weights()
    for _ in range(3):
        assert SphereGrid(5, 7, FOUR_PI).nodes_and_weights() is first
    assert calls == [5]
    SphereGrid(5, 7).nodes_and_weights()
    assert calls == [5, 5]


def test_nodes_and_weights_immutable():
    points, weights = SphereGrid(3, 4).nodes_and_weights()
    assert isinstance(points, tuple) and isinstance(weights, tuple)
    with pytest.raises(TypeError):
        points[0] = SpherePoint(0.0, 0.0)
    with pytest.raises(TypeError):
        weights[0] = 1.0
    with pytest.raises(AttributeError):
        weights.append(1.0)


def test_weighted_gram_matches_naive_sum():
    rng = np.random.default_rng(3)
    basis = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    weights = rng.normal(size=9) + 1j * rng.normal(size=9)
    gram = weighted_gram(basis, weights)
    # One exact sum per entry, real and imaginary parts apart.
    naive = np.empty((3, 3), dtype=complex)
    for r in range(3):
        for c in range(3):
            terms = [w * y[r].conjugate() * y[c] for w, y in zip(weights, basis)]
            naive[r, c] = complex(
                math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
            )
    assert np.abs(gram - naive).max() < 1e-13
    assert np.array_equal(gram, weighted_gram(basis, weights))


def test_invalid_grid_rejected():
    with pytest.raises(ValueError):
        SphereGrid(0, 4)
    with pytest.raises(ValueError):
        PlaneGrid(3, 0)


def plane_average(f, grid: PlaneGrid) -> complex:
    """Gaussian-measure integral of f as one weighted sum over the nodes."""
    points, weights = grid.nodes_and_weights()
    terms = [w * complex(f(z)) for z, w in zip(points, weights)]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def test_plane_constant():
    grid = PlaneGrid(6, 8)
    assert plane_average(lambda z: 1.0, grid) == pytest.approx(1.0, abs=1e-12)


def test_plane_second_moment():
    # Gaussian-measure moment: integral of |z|^2 is exactly 1.
    grid = PlaneGrid(8, 8)
    assert plane_average(lambda z: abs(z) ** 2, grid).real == pytest.approx(
        1.0, abs=1e-10
    )


def test_plane_angular_symmetry():
    grid = PlaneGrid(8, 8)
    assert abs(plane_average(lambda z: z, grid)) < 1e-12


def test_plane_factorial_moments():
    # |z|^(2n) integrates to n! against the Gaussian measure.
    grid = PlaneGrid(10, 6)
    for n in range(5):
        val = plane_average(lambda z: abs(z) ** (2 * n), grid).real
        assert val == pytest.approx(math.factorial(n), rel=1e-11)


def test_sphere_point_round_trip():
    p = SpherePoint(1.234, 5.0)
    q = SpherePoint.from_unit_vector(p.unit_vector())
    assert q.theta == pytest.approx(p.theta, abs=1e-14)
    assert q.phi == pytest.approx(p.phi, abs=1e-14)


def test_rings_are_the_node_construction():
    for grid in (SphereGrid(5, 8), SphereGrid(4, 7, FOUR_PI)):
        rings = grid.rings()
        points, weights = grid.nodes_and_weights()
        assert [(x.theta, x.phi) for x in points] == [
            (t, p) for t in rings.theta.tolist() for p in rings.phi.tolist()
        ]
        assert list(weights) == [w for w in rings.weight.tolist() for _ in range(grid.n_phi)]
        assert np.all(np.diff(np.cos(rings.theta)) > 0)
        for arr in rings:
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert grid.rings() is rings


def test_ring_gram_matches_weighted_gram_over_nodes():
    # A basis whose column r carries exp(i (r + s) phi) with half-integer s,
    # as on the double cover, and a complex integrand with no symmetry.
    rng = np.random.default_rng(5)
    grid = SphereGrid(6, 11, FOUR_PI)
    rings = grid.rings()
    dim = 4
    basis = rng.normal(size=(6, dim)) + 1j * rng.normal(size=(6, dim))
    samples = rng.normal(size=(6, 11)) + 1j * rng.normal(size=(6, 11))
    freqs = np.arange(dim) - 1.5
    nodes = (basis[:, None, :] * np.exp(1j * rings.phi[None, :, None] * freqs)).reshape(-1, dim)
    _, weights = grid.nodes_and_weights()
    want = weighted_gram(nodes, np.array(weights) * samples.reshape(-1))
    got = ring_gram(basis, samples, rings)
    assert np.abs(got - want).max() < 1e-15
    assert got.tobytes() == ring_gram(basis, samples, rings).tobytes()


@pytest.mark.parametrize(
    "dim, n_theta, n_phi, stack",
    [
        (4, 6, 11, (5,)),
        (3, 5, 7, (2, 3)),
        # 81 integrands at 2j = 40 on its default grid: the blocks are one
        # row each, 41 of them.
        (41, 84, 164, (81,)),
    ],
)
def test_ring_gram_stack_matches_one_call_per_integrand(dim, n_theta, n_phi, stack):
    rng = np.random.default_rng(dim)
    rings = SphereGrid(n_theta, n_phi, FOUR_PI).rings()
    basis = rng.normal(size=(n_theta, dim)) + 1j * rng.normal(size=(n_theta, dim))
    samples = rng.normal(size=stack + (n_theta, n_phi)) + 1j * rng.normal(
        size=stack + (n_theta, n_phi)
    )
    got = ring_gram(basis, samples, rings)
    assert got.shape == stack + (dim, dim)
    for idx in np.ndindex(*stack):
        one = ring_gram(basis, samples[idx], rings)
        assert one.shape == (dim, dim)
        assert one.tobytes() == got[idx].tobytes()
