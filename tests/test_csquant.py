"""Coherent-state quantization tests: both pipelines and their agreement."""

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
    quantize_samples,
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
        a = quantize_quadrature(p, lambda theta, phi: 1.0)
        assert a.max_abs_diff(OperatorMatrix.identity(tj)) < 1e-12
        assert a.hermiticity_residual() == 0.0


def test_cartesian_identification_and_degeneracy():
    fns = [
        lambda theta, phi: np.sin(theta) * np.cos(phi),
        lambda theta, phi: np.sin(theta) * np.sin(phi),
        lambda theta, phi: np.cos(theta),
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
    a = quantize_quadrature(SshParams(2, 2), lambda theta, phi: np.cos(theta))
    assert np.abs(np.diag(a.entries) - np.array([-0.5, 0.0, 0.5])).max() < 1e-11
    assert np.abs(a.entries - np.diag(np.diag(a.entries))).max() < 1e-12


def test_hermiticity_for_real_and_conjugation_for_complex():
    p = SshParams(4, 2)
    grid = SphereGrid.auto(4, 3, p.phi_period)
    real_f = lambda theta, phi: np.sin(theta) ** 2 * np.cos(phi)
    raw = quantize_quadrature(p, real_f, grid, hermitize=False)
    assert raw.hermiticity_residual() < 1e-12
    assert quantize_quadrature(p, real_f, grid).hermiticity_residual() == 0.0

    cplx = lambda theta, phi: np.exp(1j * phi) * np.sin(theta)
    a_f = quantize_quadrature(p, cplx, grid, hermitize=False)
    a_fbar = quantize_quadrature(
        p, lambda theta, phi: cplx(theta, phi).conjugate(), grid, hermitize=False
    )
    assert a_fbar.max_abs_diff(a_f.dagger()) < 1e-13


def brute_force_quadrature(params, f, grid):
    """Reference frame integral: f called at one node at a time, every
    harmonic sampled at every node by the full evaluator (no phi
    separability), one exact sum per entry."""
    points, weights = grid.nodes_and_weights()
    samples = [[ssh_eval(params, tmu, x) for tmu in params.projections()] for x in points]
    fvals = [complex(f(x.theta, x.phi)) for x in points]
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
    f = lambda theta, phi: np.cos(theta) + np.sin(theta) * (
        0.3 * np.cos(phi) + 0.2 * np.sin(phi) + 0.1 * np.sin(2 * phi)
    )
    fast = quantize_quadrature(p, f, grid, hermitize=False)
    assert np.abs(fast.entries - brute_force_quadrature(p, f, grid)).max() <= 1e-13


@pytest.mark.parametrize(
    "two_j, two_sigma, harmonics",
    [
        (64, 2, ((0, 0), (1, 1), (32, -7), (64, 64))),
        (100, -2, ((0, 0), (50, 13), (99, -98), (100, 100))),
    ],
)
def test_closed_form_matches_quadrature_at_large_spin(two_j, two_sigma, harmonics):
    # Both routes past the verify battery's spins, at its closed-vs-quadrature
    # tolerance.
    p = SshParams(two_j, two_sigma)
    for ell, m in harmonics:
        f = HarmonicExpansion({(ell, m): 1.0}).evaluate
        quad = quantize_quadrature(p, f, hermitize=False)
        assert quantize_ylm_closed(p, ell, m).max_abs_diff(quad) < 1e-10


def test_separable_quadrature_matches_brute_force_complex_f():
    p = SshParams(8, -2, psi=1.1)
    f = HarmonicExpansion({(2, 1): 1.0, (3, -2): 0.5 - 0.25j, (4, 0): 0.2}).evaluate
    fast = quantize_quadrature(p, f)
    grid = SphereGrid.auto(8, 8, p.phi_period)
    assert np.abs(fast.entries - brute_force_quadrature(p, f, grid)).max() <= 1e-13


def test_quadrature_bitwise_reproducible():
    from fuzzsphere import wigner

    p = SshParams(5, 1, psi=0.3)
    f = lambda theta, phi: np.exp(0.5j * phi) * np.sin(theta) + np.cos(theta) ** 2
    first = quantize_quadrature(p, f, hermitize=False)
    for cached in (SphereGrid.rings, wigner._lambda1_eigenbasis):
        cached.cache_clear()
    second = quantize_quadrature(p, f, hermitize=False)
    assert first.entries.tobytes() == second.entries.tobytes()


def test_quadrature_bitwise_reproducible_across_processes():
    import hashlib
    import os
    import subprocess
    import sys

    code = (
        "import hashlib, numpy as np\n"
        "from fuzzsphere.csquant import HarmonicExpansion, quantize_quadrature\n"
        "from fuzzsphere.ssh import SshParams\n"
        "f = HarmonicExpansion({(2, 1): 1.0, (3, -2): 0.5 - 0.25j}).evaluate\n"
        "m = quantize_quadrature(SshParams(7, -3, psi=0.9), f)\n"
        "print(hashlib.sha256(m.entries.tobytes()).hexdigest())\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    f = HarmonicExpansion({(2, 1): 1.0, (3, -2): 0.5 - 0.25j}).evaluate
    here = quantize_quadrature(SshParams(7, -3, psi=0.9), f)
    assert child.stdout.strip() == hashlib.sha256(here.entries.tobytes()).hexdigest()


def test_ring_quadrature_matches_brute_force_half_integer_complex_f():
    # Half-integer spin on the double cover, psi != 0, and a complex f with
    # a half-integer phi frequency, which only the 4 pi period admits.
    p = SshParams(5, -3, psi=0.4)
    grid = SphereGrid.auto(5, 5, p.phi_period)
    f = lambda theta, phi: (
        np.exp(0.5j * phi) * np.sin(theta)
        + (0.3 - 0.2j) * np.cos(theta) ** 2
        + 0.1j * np.exp(-2j * phi) * np.sin(theta) ** 2
    )
    fast = quantize_quadrature(p, f, grid, hermitize=False)
    assert np.abs(fast.entries - brute_force_quadrature(p, f, grid)).max() <= 1e-13


def test_quadrature_calls_f_once_on_the_ring_grid():
    p = SshParams(3, 1)
    grid = SphereGrid(5, 9, p.phi_period)
    calls = []

    def f(theta, phi):
        calls.append((theta.shape, phi.shape))
        return np.cos(theta)  # broadcast along phi by quantize_quadrature

    quantize_quadrature(p, f, grid)
    assert calls == [((5, 1), (1, 9))]


def test_quadrature_calls_no_three_j(monkeypatch):
    from fuzzsphere import wigner

    def refuse(*args):
        raise AssertionError("route 1 must not use a 3j-symbol")

    monkeypatch.setattr(wigner, "three_j_twice", refuse)
    monkeypatch.setattr(wigner, "three_j", refuse)
    p = SshParams(4, 2)
    f = HarmonicExpansion({(2, -1): 1.0, (1, 0): 0.5}).evaluate
    quantize_quadrature(p, f)
    quantize_ssh_general(p, 2, 4, 2)


def test_quadrature_non_finite_sample_names_node():
    p = SshParams(2, 2)
    grid = SphereGrid(4, 5)
    bad = grid.nodes_and_weights()[0][7]
    f = lambda theta, phi: np.where((theta == bad.theta) & (phi == bad.phi), np.nan, 1.0)
    with pytest.raises(ValueError, match=rf"node 7 \(theta={bad.theta!r}, phi={bad.phi!r}\)"):
        quantize_quadrature(p, f, grid)


def test_stacked_quantization_non_finite_sample_names_member_and_node():
    p = SshParams(2, 2)
    grid = SphereGrid(4, 5)
    bad = grid.nodes_and_weights()[0][7]
    samples = np.ones((2, 3, 4, 5), dtype=complex)
    samples[1, 0].reshape(-1)[7] = np.inf
    with pytest.raises(
        ValueError,
        match=rf"node 7 \(theta={bad.theta!r}, phi={bad.phi!r}\) of stack member 3$",
    ):
        quantize_samples(p, samples, grid)


def test_stacked_quantization_hermitizes_only_real_members():
    p = SshParams(3, 1)
    grid = SphereGrid(7, 12, p.phi_period)
    rings = grid.rings()
    fns = (
        lambda theta, phi: np.cos(theta) + np.sin(theta) * np.cos(phi) ** 2,
        lambda theta, phi: np.exp(1j * phi) * np.sin(theta),
    )
    samples = np.stack(
        [np.broadcast_to(f(rings.theta[:, None], rings.phi), (7, 12)) for f in fns]
    )
    mats = quantize_samples(p, samples, grid)
    for f, mat in zip(fns, mats):
        assert mat.tobytes() == quantize_quadrature(p, f, grid).entries.tobytes()
    assert np.array_equal(mats[0], mats[0].conj().T)
    assert np.abs(mats[1] - mats[1].conj().T).max() > 0.1


def _closed_form_full_scan(params, ell, m):
    """The closed form by a scan of all dim^2 (mu, nu) pairs, skipping the
    ones that do not couple."""
    from fuzzsphere.algebra import parity_sign
    from fuzzsphere.wigner import three_j_twice

    tj, ts = params.two_j, params.two_sigma
    spin_factor = three_j_twice(tj, tj, 2 * ell, -ts, ts, 0).to_float()
    scale = (tj + 1) * math.sqrt((2 * ell + 1) / FOUR_PI) * spin_factor
    entries = np.zeros((params.dim, params.dim), dtype=complex)
    for r, tmu in enumerate(params.projections()):
        for c, tnu in enumerate(params.projections()):
            if -tmu + tnu + 2 * m != 0:
                continue
            sign = parity_sign((ts - tmu) // 2)
            coupling = three_j_twice(tj, tj, 2 * ell, -tmu, tnu, 2 * m).to_float()
            entries[r, c] = sign * scale * coupling
    return entries


@pytest.mark.parametrize(
    "tj, two_sigmas",
    [(5, (-5, -3, -1, 1, 3, 5)), (8, (-8, -2, 0, 4, 8)), (24, (-6, 0, 24))],
)
def test_banded_closed_form_matches_full_scan_bitwise(tj, two_sigmas):
    for ts in two_sigmas:
        p = SshParams(tj, ts)
        for ell in range(tj + 1):
            for m in range(-ell, ell + 1):
                got = quantize_ylm_closed(p, ell, m)
                want = _closed_form_full_scan(p, ell, m)
                # bytes, so that signed zeros must agree too
                assert got.entries.tobytes() == want.tobytes(), (ts, ell, m)
                if m == 0:
                    assert got.hermiticity_residual() == 0.0


def _closed_form_band_loop(params, ell, m):
    """The closed form as one 3j lookup per band entry (the per-entry loop
    the band table replaced), the reference for bit-identity."""
    from fuzzsphere.algebra import parity_sign
    from fuzzsphere.wigner import three_j_twice

    tj, ts = params.two_j, params.two_sigma
    spin_factor = three_j_twice(tj, tj, 2 * ell, -ts, ts, 0).to_float()
    scale = (tj + 1) * math.sqrt((2 * ell + 1) / FOUR_PI) * spin_factor
    dim = params.dim
    entries = np.zeros((dim, dim), dtype=complex)
    for r in range(max(0, m), min(dim, dim + m)):
        tmu = 2 * r - tj
        sign = parity_sign((ts - tmu) // 2)
        coupling = three_j_twice(tj, tj, 2 * ell, -tmu, tmu - 2 * m, 2 * m).to_float()
        entries[r, r - m] = sign * scale * coupling
    return entries


def test_band_table_closed_form_matches_per_entry_loop_bitwise():
    cases = list(spin_pairs(10)) + [(40, 0), (40, 2), (40, 40)]
    for tj, ts in cases:
        p = SshParams(tj, ts)
        for ell in range(tj + 1):
            for m in range(-ell, ell + 1):
                got = quantize_ylm_closed(p, ell, m).entries
                # bytes, so that signed zeros must agree too
                assert got.tobytes() == _closed_form_band_loop(p, ell, m).tobytes(), (
                    tj, ts, ell, m,
                )
        assert quantize_ylm_closed(p, tj + 1, 0).entries.tobytes() == bytes(16 * p.dim**2)
        with pytest.raises(ValueError):
            quantize_ylm_closed(p, 1, 2)


def test_closed_form_sweep_makes_no_exact_lookup():
    from fuzzsphere.wigner import three_j_cache_clear, three_j_cache_info

    p = SshParams(24, 2)
    for _ in range(2):
        three_j_cache_clear()
        for ell in range(25):
            for m in range(-ell, ell + 1):
                quantize_ylm_closed(p, ell, m)
        # Bands and spin factors both come from the band tables, which sum
        # their symbols outside the exact cache.
        assert three_j_cache_info() == (0, 0, 0)


def test_closed_form_from_concurrent_cold_sweeps_is_bitwise_sequential():
    import sys
    import threading

    from fuzzsphere.wigner import three_j_cache_clear

    p = SshParams(12, 2)
    keys = [(ell, m) for ell in range(13) for m in range(-ell, ell + 1)]
    three_j_cache_clear()
    sequential = [quantize_ylm_closed(p, ell, m).entries.tobytes() for ell, m in keys]
    three_j_cache_clear()
    results = {}

    def worker(tag):
        order = keys if tag % 2 else keys[::-1]
        results[tag] = {k: quantize_ylm_closed(p, *k).entries.tobytes() for k in order}

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for tag in range(4):
        assert [results[tag][k] for k in keys] == sequential


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


def test_quantize_expansion_keeps_harmonics_inside_the_band():
    # j < ell <= 2j is inside the band: nothing is dropped.
    p = SshParams(4, 2)
    res = quantize_expansion(p, HarmonicExpansion({(3, 0): 1}))
    assert res.truncated == ()
    assert res.matrix.max_abs() > 0.0
    assert res.matrix.entries.tobytes() == quantize_ylm_closed(p, 3, 0).entries.tobytes()


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
            value = complex(f.evaluate(x.theta, x.phi))
            assert value == pytest.approx(x.unit_vector()[pick], abs=1e-13)
        # arrays broadcast; each point agrees with the scalar call
        theta, phi = np.array([[0.0], [0.4], [math.pi]]), np.array([[0.3, 2.0]])
        grid_values = f.evaluate(theta, phi)
        assert grid_values.shape == (3, 2)
        for k, i in np.ndindex(3, 2):
            want = complex(f.evaluate(theta[k, 0], phi[0, i]))
            assert abs(grid_values[k, i] - want) < 1e-15
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
    f = lambda theta, phi: np.cos(theta) ** 2
    pts, ws = grid.nodes_and_weights()
    dim = p.dim
    acc = np.zeros((dim, dim), dtype=complex)
    n_const = normalization_constant(p)
    for x, w in zip(pts, ws):
        c = coherent_state(p, x).amplitudes
        acc += FOUR_PI * w * n_const * f(x.theta, x.phi) * np.outer(c, c.conj())
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
