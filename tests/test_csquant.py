"""Coherent-state quantization tests: both pipelines and their agreement."""

import cmath
import math

import numpy as np
import pytest

from fuzzsphere.csquant import (
    HarmonicExpansion,
    cartesian_factor,
    coherent_state,
    fock_demo,
    lower_symbol,
    normalization_constant,
    quantize_expansion,
    quantize_quadrature,
    quantize_ssh_general,
    quantize_ylm_closed,
    reproducing_kernel,
    superop_action,
)
from fuzzsphere.quad import PlaneGrid, SphereGrid, SpherePoint, integrate_sphere
from fuzzsphere.ssh import (
    OperatorMatrix,
    SshParams,
    family_rotation_element,
    lambda_matrices,
    rotation_operator,
    ssh_eval,
)
from fuzzsphere.wigner import so3_matrix, su2_from_rotation, wigner_D

FOUR_PI = 4 * math.pi
RNG = np.random.default_rng(99)


def spin_pairs(two_j_max):
    for tj in range(0, two_j_max + 1):
        for ts in range(-tj, tj + 1, 2):
            yield tj, ts


def random_point(params):
    return SpherePoint(
        float(RNG.uniform(0, math.pi)), float(RNG.uniform(0, params.phi_period))
    )


# -------------------------------------------------------- coherent states

def test_coherent_state_normalized():
    for tj, ts in spin_pairs(5):
        p = SshParams(tj, ts)
        for _ in range(3):
            assert coherent_state(p, random_point(p)).norm() == pytest.approx(
                1.0, abs=1e-12
            )


def test_coherent_state_pole_concentration():
    p = SshParams(4, 2)
    c = coherent_state(p, SpherePoint(0.0, 0.4))
    idx = p.projections().index(p.two_sigma)
    amps = np.abs(c.amplitudes)
    assert amps[idx] == pytest.approx(1.0, abs=1e-12)
    assert np.delete(amps, idx).max() < 1e-14


def test_coherent_state_rotation_covariance_up_to_phase():
    for tj, ts in ((2, 0), (2, 2), (3, 1), (4, -2)):
        p = SshParams(tj, ts)
        for _ in range(4):
            axis = RNG.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = float(RNG.uniform(-3, 3))
            u = rotation_operator(p, family_rotation_element(axis, angle))
            rot = so3_matrix(su2_from_rotation(axis, angle))
            x = random_point(p)
            rx = SpherePoint.from_unit_vector(rot @ x.unit_vector())
            moved = u.entries @ coherent_state(p, x).amplitudes
            fidelity = abs(np.vdot(coherent_state(p, rx).amplitudes, moved))
            assert fidelity > 1 - 1e-10


def test_normalization_constant_debug_recompute():
    p = SshParams(5, 3)
    x = random_point(p)
    value = normalization_constant(p, check_at=x)
    assert value == pytest.approx(6 / FOUR_PI, abs=1e-15)


def test_kernel_diagonal_and_j0():
    p = SshParams(4, 2)
    x = random_point(p)
    assert reproducing_kernel(p, x, x) == pytest.approx(
        normalization_constant(p), abs=1e-13
    )
    p0 = SshParams(0, 0)
    y = random_point(p0)
    assert reproducing_kernel(p0, x, y) == pytest.approx(1 / FOUR_PI, abs=1e-15)


def test_kernel_reproducing_property():
    p = SshParams(3, 1)
    grid = SphereGrid.auto(3, 3, p.phi_period)
    x = SpherePoint(1.1, 2.7)
    for tmu in p.projections():
        val = FOUR_PI * integrate_sphere(
            lambda y: reproducing_kernel(p, x, y) * ssh_eval(p, tmu, y), grid
        )
        assert abs(val - ssh_eval(p, tmu, x)) < 1e-10


# ----------------------------------------------------------- quantization

def test_resolution_of_identity():
    for tj, ts in spin_pairs(6):
        p = SshParams(tj, ts)
        a = quantize_quadrature(p, lambda x: 1.0)
        assert a.max_abs_diff(OperatorMatrix.identity(tj)) < 1e-12
        assert a.hermitian


def test_cartesian_identification_and_degeneracy():
    fns = [
        lambda x: x.unit_vector()[0],
        lambda x: x.unit_vector()[1],
        lambda x: math.cos(x.theta),
    ]
    for tj, ts in spin_pairs(6):
        if tj == 0:
            continue
        p = SshParams(tj, ts)
        lams = lambda_matrices(p)
        for a in range(3):
            mat = quantize_quadrature(p, fns[a])
            if ts == 0:
                assert mat.max_abs() < 1e-12
            else:
                k = cartesian_factor(p)
                assert mat.max_abs_diff(lams[a].scaled(k)) < 1e-11


def test_quantize_x3_spin1_diagonal():
    # At 2j = 2 sigma = 2: K = 1/2 and Lambda_3 = diag(-1, 0, 1).
    a = quantize_quadrature(SshParams(2, 2), lambda x: math.cos(x.theta))
    assert np.abs(np.diag(a.entries) - np.array([-0.5, 0.0, 0.5])).max() < 1e-11
    assert np.abs(a.entries - np.diag(np.diag(a.entries))).max() < 1e-12


def test_hermiticity_for_real_and_conjugation_for_complex():
    p = SshParams(4, 2)
    grid = SphereGrid.auto(4, 3, p.phi_period)
    real_f = lambda x: math.sin(x.theta) ** 2 * math.cos(x.phi)
    raw = quantize_quadrature(p, real_f, grid, hermitize=False)
    assert raw.hermiticity_residual() < 1e-12
    assert quantize_quadrature(p, real_f, grid).hermitian

    cplx = lambda x: cmath.exp(1j * x.phi) * math.sin(x.theta)
    a_f = quantize_quadrature(p, cplx, grid, hermitize=False)
    a_fbar = quantize_quadrature(p, lambda x: cplx(x).conjugate(), grid, hermitize=False)
    assert a_fbar.max_abs_diff(a_f.dagger()) < 1e-13


def brute_force_quadrature(params, f, grid):
    """Reference frame integral: every harmonic sampled at every node by the
    full evaluator (no phi separability), one exact sum per entry."""
    points, weights = grid.nodes_and_weights()
    samples = [[ssh_eval(params, tmu, x) for tmu in params.projections()] for x in points]
    fvals = [complex(f(x)) for x in points]
    out = np.empty((params.dim, params.dim), dtype=complex)
    for r in range(params.dim):
        for c in range(params.dim):
            terms = [
                w * y[r].conjugate() * v * y[c]
                for w, v, y in zip(weights, fvals, samples)
            ]
            out[r, c] = FOUR_PI * complex(
                math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
            )
    return out


def test_separable_quadrature_matches_brute_force_double_cover():
    p = SshParams(7, 3, psi=0.7)
    grid = SphereGrid.auto(7, 7, p.phi_period)
    # matrix entries see only integer phi frequencies (mu - nu is an integer)
    f = lambda x: math.cos(x.theta) + math.sin(x.theta) * (
        0.3 * math.cos(x.phi) + 0.2 * math.sin(x.phi) + 0.1 * math.sin(2 * x.phi)
    )
    fast = quantize_quadrature(p, f, grid, hermitize=False)
    assert np.abs(fast.entries - brute_force_quadrature(p, f, grid)).max() <= 1e-13


def test_separable_quadrature_matches_brute_force_complex_f():
    p = SshParams(8, -2, psi=1.1)
    f = HarmonicExpansion({(2, 1): 1.0, (3, -2): 0.5 - 0.25j, (4, 0): 0.2}).evaluate
    fast = quantize_quadrature(p, f)
    assert not fast.hermitian
    grid = SphereGrid.auto(8, 8, p.phi_period)
    assert np.abs(fast.entries - brute_force_quadrature(p, f, grid)).max() <= 1e-13


def test_quadrature_bitwise_reproducible():
    p = SshParams(5, 1, psi=0.3)
    f = lambda x: cmath.exp(0.5j * x.phi) * math.sin(x.theta) + math.cos(x.theta) ** 2
    first = quantize_quadrature(p, f, hermitize=False)
    SphereGrid.nodes_and_weights.cache_clear()
    second = quantize_quadrature(p, f, hermitize=False)
    assert np.array_equal(first.entries, second.entries)


def test_quadrature_non_finite_sample_names_node():
    p = SshParams(2, 2)
    grid = SphereGrid(4, 5)
    bad = grid.nodes_and_weights()[0][7]
    f = lambda x: float("nan") if x == bad else 1.0
    with pytest.raises(ValueError, match=rf"node 7 \(theta={bad.theta!r}, phi={bad.phi!r}\)"):
        quantize_quadrature(p, f, grid)


def test_closed_form_matches_quadrature():
    for tj, ts in spin_pairs(5):
        p = SshParams(tj, ts)
        grid = SphereGrid.auto(tj, tj, p.phi_period)
        for ell in range(0, tj + 1):
            for m in range(-ell, ell + 1):
                f = HarmonicExpansion({(ell, m): 1.0}).evaluate
                quad = quantize_quadrature(p, f, grid, hermitize=False)
                closed = quantize_ylm_closed(p, ell, m)
                assert closed.max_abs_diff(quad) < 1e-10, (tj, ts, ell, m)


def test_closed_form_spin1_diagonal_formula():
    # ell = 1, m = 0 entries are sigma sqrt(3/4pi) mu / (j(j+1)).
    for tj, ts in ((2, 2), (4, 2), (3, 3), (5, 1)):
        p = SshParams(tj, ts)
        got = np.diag(quantize_ylm_closed(p, 1, 0).entries)
        j = tj / 2
        want = [
            (ts / 2) * math.sqrt(3 / FOUR_PI) * (tmu / 2) / (j * (j + 1))
            for tmu in p.projections()
        ]
        assert np.abs(got - np.array(want)).max() < 1e-13


def test_beyond_band_limit_is_zero():
    p = SshParams(2, 2)
    assert quantize_ylm_closed(p, 3, 0).max_abs() == 0.0
    grid = SphereGrid.auto(2, 4, p.phi_period)
    f = HarmonicExpansion({(3, 1): 1.0}).evaluate
    assert quantize_quadrature(p, f, grid, hermitize=False).max_abs() < 1e-12


def test_wigner_eckart_selection_rules():
    for tj, ts in spin_pairs(5):
        p = SshParams(tj, ts)
        for ell in range(0, tj + 1):
            for m in range(-ell, ell + 1):
                mat = quantize_ylm_closed(p, ell, m)
                for r, tmu in enumerate(p.projections()):
                    for c, tnu in enumerate(p.projections()):
                        if -tmu + tnu + 2 * m != 0:
                            assert mat.entries[r, c] == 0


def test_quantize_expansion_identity_and_x3():
    p = SshParams(4, 2)
    res = quantize_expansion(p, HarmonicExpansion({(0, 0): math.sqrt(FOUR_PI)}))
    assert res.matrix.max_abs_diff(OperatorMatrix.identity(4)) < 1e-13
    assert res.truncated == ()

    res = quantize_expansion(p, HarmonicExpansion.builtin("x3"))
    want = lambda_matrices(p)[2].scaled(cartesian_factor(p))
    assert res.matrix.max_abs_diff(want) < 1e-13


def test_quantize_expansion_truncation_log():
    p = SshParams(2, 2)
    res = quantize_expansion(p, HarmonicExpansion({(4, 0): 2.0, (4, 2): 1.0}))
    assert res.matrix.max_abs() == 0.0
    assert res.truncated == ((4, 0, 2.0), (4, 2, 1.0))


def test_builtin_expansions_evaluate_to_coordinates():
    p = SshParams(2, 0)
    for name, pick in (("x1", 0), ("x2", 1), ("x3", 2)):
        f = HarmonicExpansion.builtin(name)
        for _ in range(4):
            x = random_point(p)
            assert f.evaluate(x) == pytest.approx(x.unit_vector()[pick], abs=1e-13)
    with pytest.raises(ValueError):
        HarmonicExpansion.builtin("x4")


def test_quantize_ssh_general_reduces_at_nu0():
    p = SshParams(3, 1)
    a = quantize_ssh_general(p, 0, 4, 2)
    assert a.max_abs_diff(quantize_ylm_closed(p, 2, 1)) < 1e-10


def test_quantize_ssh_general_not_hermitian():
    a = quantize_ssh_general(SshParams(2, 2), 2, 2, 2)
    assert a.max_abs() > 0.1
    assert a.hermiticity_residual() > 0.1
    assert not a.hermitian


def test_quantize_ssh_general_domain():
    with pytest.raises(ValueError):
        quantize_ssh_general(SshParams(2, 2), 4, 2, 0)  # |nu| > k
    with pytest.raises(ValueError):
        quantize_ssh_general(SshParams(2, 2), 1, 2, 0)  # parity
    with pytest.raises(ValueError):
        quantize_ssh_general(SshParams(2, 2), 0, 2, 4)  # |n| > k


# -------------------------------------------------------------- symbols

def test_lower_symbol_identity_and_pole():
    p = SshParams(4, 2)
    x = random_point(p)
    assert lower_symbol(p, OperatorMatrix.identity(4), x) == pytest.approx(
        1.0, abs=1e-12
    )
    l3 = lambda_matrices(p)[2]
    assert lower_symbol(p, l3, SpherePoint(0.0, 0.0)) == pytest.approx(
        p.two_sigma / 2, abs=1e-12
    )


def test_lower_symbol_of_l3_closed_form():
    # <x|L3|x> = sigma cos(theta), the generating identity behind the
    # classical-limit diagnostics.
    for tj, ts in ((2, 2), (4, 2), (3, 1)):
        p = SshParams(tj, ts)
        l3 = lambda_matrices(p)[2]
        for _ in range(4):
            x = random_point(p)
            assert lower_symbol(p, l3, x) == pytest.approx(
                (ts / 2) * math.cos(x.theta), abs=1e-11
            )


def test_upper_symbol_reconstruction():
    # Assembling N(x) f(x) |x><x| over the frame integral reproduces the
    # quantized operator: f is an upper symbol of A_f.
    p = SshParams(2, 2)
    grid = SphereGrid.auto(2, 2, p.phi_period)
    f = lambda x: math.cos(x.theta) ** 2
    pts, ws = grid.nodes_and_weights()
    dim = p.dim
    acc = np.zeros((dim, dim), dtype=complex)
    n_const = normalization_constant(p)
    for x, w in zip(pts, ws):
        c = coherent_state(p, x).amplitudes
        acc += FOUR_PI * w * n_const * f(x) * np.outer(c, c.conj())
    direct = quantize_quadrature(p, f, grid, hermitize=False)
    assert np.abs(acc - direct.entries).max() < 1e-12


def test_lower_symbol_dimension_guard():
    with pytest.raises(ValueError):
        lower_symbol(SshParams(2, 0), OperatorMatrix.identity(4), SpherePoint(0.1, 0.1))


# ---------------------------------------------------------- superoperator

def test_superop_eigenstructure():
    for tj, ts in ((2, 2), (4, 2), (3, 1)):
        p = SshParams(tj, ts)
        for ell in range(0, tj + 1):
            for m in range(-ell, ell + 1):
                t = quantize_ylm_closed(p, ell, m)
                assert superop_action(p, 3, t).max_abs_diff(t.scaled(m)) < 1e-10
                lsq = OperatorMatrix.zeros(tj)
                for axis in (1, 2, 3):
                    lsq = lsq + superop_action(p, axis, superop_action(p, axis, t))
                assert lsq.max_abs_diff(t.scaled(ell * (ell + 1))) < 1e-9


def test_superop_identity_annihilated():
    p = SshParams(4, 0)
    for axis in (1, 2, 3):
        assert superop_action(p, axis, OperatorMatrix.identity(4)).max_abs() == 0.0
    with pytest.raises(ValueError):
        superop_action(p, 4, OperatorMatrix.identity(4))


def test_operator_rotation_covariance():
    # U T_{ell m} U^dag = sum_n T_{ell n} D^ell_{n m} with the family
    # rotation element used coherently on both sides.
    for tj, ts in ((2, 2), (4, 2), (3, 1), (4, 0)):
        p = SshParams(tj, ts)
        for _ in range(3):
            axis = RNG.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = float(RNG.uniform(-3, 3))
            xi = family_rotation_element(axis, angle)
            u = rotation_operator(p, xi)
            for ell in range(0, min(tj, 4) + 1):
                for m in range(-ell, ell + 1):
                    t = quantize_ylm_closed(p, ell, m)
                    lhs = (u @ t @ u.dagger()).entries
                    rhs = np.zeros_like(lhs)
                    for n in range(-ell, ell + 1):
                        rhs += (
                            quantize_ylm_closed(p, ell, n).entries
                            * wigner_D(2 * ell, 2 * n, 2 * m, xi)
                        )
                    assert np.abs(lhs - rhs).max() < 1e-9


# -------------------------------------------------------------- Fock demo

def test_fock_demo_lowering_action_exact():
    space, report = fock_demo(8)
    assert report["lowering_exact"]
    for n in range(1, 9):
        e_n = np.zeros(9)
        e_n[n] = 1.0
        out = space.lowering @ e_n
        want = np.zeros(9)
        want[n - 1] = math.sqrt(n)
        assert np.array_equal(out.real, want) and not out.imag.any()


def test_fock_demo_quadrature_matches_algebra():
    _, report = fock_demo(8)
    assert report["a_quadrature_max_dev"] < 1e-8


def test_fock_demo_commutator_structure():
    space, report = fock_demo(8)
    assert report["qp_block_max_dev"] < 1e-12
    assert report["qp_corner"] == pytest.approx(-8j, abs=1e-12)
    comm = space.lowering @ space.raising - space.raising @ space.lowering
    want = np.diag([1.0] * 8 + [-8.0])
    assert np.abs(comm - want).max() < 1e-13


def test_fock_demo_number_operator():
    space, _ = fock_demo(4)
    assert np.abs(space.number - np.diag(np.arange(5.0))).max() < 1e-13


def test_fock_demo_rejects_small_truncation():
    with pytest.raises(ValueError):
        fock_demo(1)


def test_fock_demo_undersized_grid_visible():
    # An insufficient radial rule cannot integrate the top monomials.
    _, report = fock_demo(8, PlaneGrid(3, 21))
    assert report["a_quadrature_max_dev"] > 1e-6
