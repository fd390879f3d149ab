"""Spin spherical harmonics, generators, and rotation tests."""

import cmath
import math

import numpy as np
import pytest

from fuzzsphere.algebra import binomial, parity_sign
from fuzzsphere.quad import SpherePoint
from fuzzsphere.ssh import (
    OperatorMatrix,
    SshParams,
    family_rotation_element,
    half_power_of_minus_one,
    lambda_matrices,
    lambda_minus,
    lambda_plus,
    rotation_operator,
    ssh_column,
    ssh_eval,
    ssh_rings,
)
from fuzzsphere.wigner import (
    D_MATRIX_MAX_TWO_J,
    Su2Element,
    so3_matrix,
    su2_from_rotation,
    wigner_D_sum,
)

FOUR_PI = 4 * math.pi
RNG = np.random.default_rng(77)


def random_point(params: SshParams) -> SpherePoint:
    return SpherePoint(
        float(RNG.uniform(0.0, math.pi)), float(RNG.uniform(0.0, params.phi_period))
    )


def ssh_by_sum(p: SshParams, two_mu: int, x: SpherePoint) -> complex:
    """The harmonic from the explicit-sum D entry (the small-j oracle)."""
    phase = half_power_of_minus_one(p.two_sigma) * cmath.exp(
        0.5j * (p.two_sigma * p.psi + two_mu * x.phi)
    )
    d = wigner_D_sum(p.two_j, two_mu, p.two_sigma, Su2Element(x.theta / 2, 0.0, math.pi / 2))
    return phase * math.sqrt((p.two_j + 1) / FOUR_PI) * d


def ssh_conjugation_check(params: SshParams, two_mu: int, x: SpherePoint) -> float:
    """Residual of the conjugation symmetry relating (sigma, mu) to
    (-sigma, -mu), evaluated at psi = 0."""
    base = SshParams(params.two_j, params.two_sigma, 0.0)
    flipped = SshParams(params.two_j, -params.two_sigma, 0.0)
    lhs = ssh_eval(base, two_mu, x).conjugate()
    sign = parity_sign((params.two_sigma - two_mu) // 2)
    rhs = sign * ssh_eval(flipped, -two_mu, x)
    return abs(lhs - rhs)


def spin_pairs(two_j_max):
    for tj in range(0, two_j_max + 1):
        for ts in range(-tj, tj + 1, 2):
            yield tj, ts


# ------------------------------------------------------------- evaluation

def test_params_validation():
    with pytest.raises(ValueError):
        SshParams(2, 1)  # parity mismatch
    with pytest.raises(ValueError):
        SshParams(2, 4)  # |sigma| > j
    with pytest.raises(ValueError):
        SshParams(-2, 0)


def test_sigma0_y10_value():
    x = SpherePoint(0.7, 1.3)
    got = ssh_eval(SshParams(2, 0), 0, x)
    assert got == pytest.approx(math.sqrt(3 / FOUR_PI) * math.cos(0.7), abs=1e-15)


def test_sigma0_matches_standard_harmonics():
    # Closed-form degree-2 harmonics as an independent oracle.
    def y2(m, th, ph):
        c, s = math.cos(th), math.sin(th)
        if m == 0:
            return math.sqrt(5 / (16 * math.pi)) * (3 * c * c - 1)
        if abs(m) == 1:
            base = math.sqrt(15 / (8 * math.pi)) * s * c
            val = base * cmath.exp(1j * m * ph)
            return -val if m == 1 else val
        base = math.sqrt(15 / (32 * math.pi)) * s * s
        return base * cmath.exp(1j * m * ph)

    p = SshParams(4, 0)
    for m in range(-2, 3):
        for _ in range(4):
            x = random_point(p)
            assert ssh_eval(p, 2 * m, x) == pytest.approx(
                y2(m, x.theta, x.phi), abs=1e-12
            )


def test_sigma_equals_j_closed_form():
    for tj in (1, 2, 3, 4, 5):
        p = SshParams(tj, tj, psi=0.41)
        for tmu in p.projections():
            for _ in range(3):
                x = random_point(p)
                phase = [1, 1j, -1, -1j][tj % 4] * cmath.exp(1j * (tj / 2) * 0.41)
                want = (
                    phase
                    * math.sqrt((tj + 1) / FOUR_PI)
                    * math.sqrt(binomial(tj, (tj + tmu) // 2))
                    * math.cos(x.theta / 2) ** ((tj + tmu) // 2)
                    * math.sin(x.theta / 2) ** ((tj - tmu) // 2)
                    * cmath.exp(1j * (tmu / 2) * x.phi)
                )
                assert ssh_eval(p, tmu, x) == pytest.approx(want, abs=1e-12)


def test_pole_concentration():
    for tj, ts in ((2, 2), (3, 1), (4, -2), (5, 5)):
        p = SshParams(tj, ts)
        for tmu in p.projections():
            v = ssh_eval(p, tmu, SpherePoint(0.0, 0.8))
            if tmu == ts:
                assert abs(v) == pytest.approx(math.sqrt((tj + 1) / FOUR_PI), abs=1e-13)
            else:
                assert v == 0


def test_two_closed_forms_agree():
    for tj, ts in spin_pairs(6):
        p = SshParams(tj, ts, psi=0.29)
        for tmu in p.projections():
            pts = [SpherePoint(0.0, 0.3), SpherePoint(math.pi, 1.0)]
            pts += [random_point(p) for _ in range(4)]
            for x in pts:
                assert abs(ssh_eval(p, tmu, x) - ssh_by_sum(p, tmu, x)) < 1e-12


def small_d_mp(tj: int, tm1: int, tm2: int, theta: float) -> float:
    """Wigner d^j_{m1 m2}(theta), computed to 50 digits by the Jacobi closed form,
    with k the smallest of j +- m1, j +- m2 so that both Jacobi
    parameters are non-negative."""
    mp = pytest.importorskip("mpmath")
    k = min((tj + tm2) // 2, (tj - tm2) // 2, (tj + tm1) // 2, (tj - tm1) // 2)
    diff = (tm1 - tm2) // 2
    if k in ((tj + tm2) // 2, (tj - tm1) // 2):
        a, sign = diff, (-1) ** diff
    else:
        a, sign = -diff, 1
    b = tj - 2 * k - a
    with mp.workdps(50):
        half = mp.mpf(theta) / 2
        return float(
            sign
            * mp.sqrt(mp.binomial(tj - k, k + a) / mp.binomial(k + b, b))
            * mp.sin(half) ** a
            * mp.cos(half) ** b
            * mp.jacobi(k, a, b, mp.cos(2 * half))
        )


@pytest.mark.parametrize("tj", [40, 100, 200])
def test_ssh_eval_matches_fifty_digit_jacobi_form(tj):
    # Y_mu^sigma = i^(2 sigma) e^(i sigma psi) e^(i mu phi) sqrt((2j+1)/4pi)
    # d^j_{mu sigma}(theta), the standard Wigner d-matrix.
    rng = np.random.default_rng(tj)
    spins = sorted({-tj, -tj + 2, tj % 2, tj - 4, tj})
    thetas = [0.0, math.pi, 1e-3, math.pi / 2] + list(rng.uniform(0, math.pi, 4))
    worst = 0.0
    for ts in spins:
        p = SshParams(tj, ts, psi=0.37)
        phase = half_power_of_minus_one(ts) * cmath.exp(0.5j * ts * 0.37)
        for tmu in spins + [int(rng.choice(range(-tj, tj + 1, 2)))]:
            for theta in thetas:
                x = SpherePoint(theta, 2.1)
                want = (
                    phase * cmath.exp(0.5j * tmu * 2.1)
                    * math.sqrt((tj + 1) / FOUR_PI) * small_d_mp(tj, tmu, ts, theta)
                )
                worst = max(worst, abs(ssh_eval(p, tmu, x) - want))
    assert worst < 1e-13, worst


def test_ssh_column_matches_entries():
    for tj, ts in ((0, 0), (3, -1), (8, 4), (41, 1)):
        p = SshParams(tj, ts, psi=0.8)
        for x in (SpherePoint(0.0, 0.4), SpherePoint(math.pi, 1.0), random_point(p)):
            col = ssh_column(p, x)
            want = [ssh_eval(p, tmu, x) for tmu in p.projections()]
            assert np.abs(col - want).max() < 1e-14


def test_ssh_rings_match_column_and_entries():
    thetas = np.concatenate([[0.0, math.pi], RNG.uniform(0.0, math.pi, 5)])
    for tj in range(0, 13):
        for ts in {tj, -tj, tj % 2, -(tj % 2)}:
            p = SshParams(tj, ts, psi=0.7)
            rings = ssh_rings(p, thetas)
            assert rings.shape == (len(thetas), p.dim)
            for theta, row in zip(thetas, rings):
                x = SpherePoint(float(theta), 0.0)
                assert np.abs(row - ssh_column(p, x)).max() < 1e-15
                want = [ssh_eval(p, tmu, x) for tmu in p.projections()]
                assert np.abs(row - want).max() < 1e-14, (tj, ts, theta)


def test_ssh_rings_exact_identity_column_at_north_pole():
    for tj, ts in ((0, 0), (1, -1), (6, 2), (9, -3), (12, 12)):
        p = SshParams(tj, ts, psi=1.3)
        row = ssh_rings(p, [0.0, 0.5])[0]
        # Y_mu(0, phi) = prefactor delta_{mu sigma}, with exact zeros elsewhere
        pole = ssh_eval(p, ts, SpherePoint(0.0, 0.0))
        want = np.zeros(p.dim, dtype=complex)
        want[(ts + tj) // 2] = pole
        assert np.array_equal(row, want)


def test_ssh_rings_refuse_past_working_range():
    top = D_MATRIX_MAX_TWO_J
    for tj in (top + 1, top + 2):
        with pytest.raises(ValueError, match=str(top)):
            ssh_rings(SshParams(tj, tj % 2), [0.0, 1.0])


def test_ssh_properties_over_working_range():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @st.composite
    def cases(draw):
        tj = draw(st.one_of(
            st.integers(0, 64), st.sampled_from([100, 201, 500, D_MATRIX_MAX_TWO_J])
        ))
        ts = draw(st.sampled_from(range(-tj, tj + 1, 2)))
        tmu = draw(st.sampled_from(range(-tj, tj + 1, 2)))
        x = SpherePoint(
            draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 4 * math.pi))
        )
        return SshParams(tj, ts), tmu, x

    @hypothesis.settings(
        max_examples=40, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(cases())
    @hypothesis.example((SshParams(D_MATRIX_MAX_TWO_J, 2), -6, SpherePoint(2.3, 0.9)))
    def check(case):
        p, tmu, x = case
        norm = (p.two_j + 1) / FOUR_PI
        # sum rule over one column, relative to its value (2j+1)/(4 pi)
        total = float(np.sum(np.abs(ssh_column(p, x)) ** 2))
        assert abs(total - norm) < 1e-13 * norm
        assert ssh_conjugation_check(p, tmu, x) < 1e-14 * math.sqrt(norm) + 1e-15

    check()


def test_ssh_eval_refuses_past_working_range():
    top = D_MATRIX_MAX_TWO_J
    p = SshParams(top + 1, 1)
    for x in (SpherePoint(0.0, 0.0), SpherePoint(1.0, 0.5)):
        with pytest.raises(ValueError, match=str(top)):
            ssh_eval(p, 1, x)
        with pytest.raises(ValueError, match=str(top)):
            ssh_column(p, x)
    assert abs(ssh_eval(SshParams(top, 0), 0, SpherePoint(0.0, 0.0))) > 0


def test_parity_mismatch_rejected():
    with pytest.raises(ValueError):
        ssh_eval(SshParams(2, 0), 1, SpherePoint(0.3, 0.3))
    with pytest.raises(ValueError):
        ssh_eval(SshParams(2, 0), 4, SpherePoint(0.3, 0.3))


def test_conjugation_symmetry():
    for tj, ts in spin_pairs(5):
        p = SshParams(tj, ts)
        for tmu in p.projections():
            assert ssh_conjugation_check(p, tmu, random_point(p)) < 1e-12


def test_psi_phase_factor():
    # psi enters only through the global factor exp(i sigma psi).
    p0 = SshParams(4, 2, psi=0.0)
    p1 = SshParams(4, 2, psi=0.77)
    x = random_point(p0)
    for tmu in p0.projections():
        assert ssh_eval(p1, tmu, x) == pytest.approx(
            cmath.exp(1j * 1.0 * 0.77) * ssh_eval(p0, tmu, x), abs=1e-14
        )


# ------------------------------------------------------------- generators

def test_lambda_half_spin_pauli():
    p = SshParams(1, 1)
    l1, l2, l3 = lambda_matrices(p)
    assert np.abs(l3.entries - np.diag([-0.5, 0.5])).max() < 1e-15
    lp = lambda_plus(p)
    assert lp.entries[1, 0] == 1.0 and np.abs(lp.entries).sum() == 1.0
    sx = np.array([[0, 1], [1, 0]]) / 2
    sy = np.array([[0, 1j], [-1j, 0]]) / 2  # ascending-m basis
    assert np.abs(l1.entries - sx).max() < 1e-15
    assert np.abs(l2.entries - sy).max() < 1e-15


def test_lambda_spin_one_ladder_entries():
    lp = lambda_plus(SshParams(2, 0))
    vals = [lp.entries[1, 0], lp.entries[2, 1]]
    assert vals == [math.sqrt(2), math.sqrt(2)]


def test_lambda_commutators_exact():
    for tj in range(1, 7):
        p = SshParams(tj, tj % 2)
        lp, lm = lambda_plus(p), lambda_minus(p)
        l1, l2, l3 = lambda_matrices(p)
        assert np.abs(lp.commutator(lm).entries - 2 * l3.entries).max() < 1e-13
        assert np.abs(l1.commutator(l2).entries - 1j * l3.entries).max() < 1e-13
        for lam in (l1, l2, l3):
            assert lam.hermiticity_residual() < 1e-15


def test_casimir():
    for tj in (1, 2, 3, 4, 5):
        p = SshParams(tj, tj % 2)
        l1, l2, l3 = lambda_matrices(p)
        cas = (l1 @ l1 + l2 @ l2 + l3 @ l3).entries
        want = (tj / 2) * (tj / 2 + 1) * np.eye(tj + 1)
        assert np.abs(cas - want).max() < 1e-13


def test_ladder_matches_differential_action():
    # Central finite differences of the first-order operators reproduce the
    # matrix ladder action at interior points.
    h = 1e-5

    def dtheta(p, tmu, x):
        return (
            ssh_eval(p, tmu, SpherePoint(x.theta + h, x.phi))
            - ssh_eval(p, tmu, SpherePoint(x.theta - h, x.phi))
        ) / (2 * h)

    def dphi(p, tmu, x):
        return (
            ssh_eval(p, tmu, SpherePoint(x.theta, x.phi + h))
            - ssh_eval(p, tmu, SpherePoint(x.theta, x.phi - h))
        ) / (2 * h)

    for tj, ts in ((2, 0), (2, 2), (1, 1), (3, -1), (4, 2)):
        p = SshParams(tj, ts)
        s = ts / 2
        for tmu in p.projections():
            mu = tmu / 2
            x = SpherePoint(float(RNG.uniform(0.35, 2.75)), float(RNG.uniform(0.3, 6.0)))
            eiphi = cmath.exp(1j * x.phi)
            cot = math.cos(x.theta) / math.sin(x.theta)
            csc = 1 / math.sin(x.theta)
            val = ssh_eval(p, tmu, x)

            l3 = -1j * dphi(p, tmu, x)
            assert abs(l3 - mu * val) < 1e-6

            raise_part = eiphi * (dtheta(p, tmu, x) + 1j * cot * dphi(p, tmu, x))
            lp = raise_part + s * csc * eiphi * val
            want = (
                math.sqrt(((tj - tmu) // 2) * ((tj + tmu) // 2 + 1))
                * ssh_eval(p, tmu + 2, x)
                if tmu < tj
                else 0.0
            )
            assert abs(lp - want) < 1e-6

            lower_part = -(1 / eiphi) * (dtheta(p, tmu, x) - 1j * cot * dphi(p, tmu, x))
            lm = lower_part + s * csc / eiphi * val
            want = (
                math.sqrt(((tj + tmu) // 2) * ((tj - tmu) // 2 + 1))
                * ssh_eval(p, tmu - 2, x)
                if tmu > -tj
                else 0.0
            )
            assert abs(lm - want) < 1e-6


# -------------------------------------------------------------- rotations

def test_rotation_operator_identity():
    for tj, ts in ((2, 0), (3, 1)):
        u = rotation_operator(SshParams(tj, ts), Su2Element.identity())
        assert np.abs(u.entries - np.eye(tj + 1)).max() < 1e-15


def test_rotation_operator_unitary_at_large_spin():
    # 2j=100 overflowed the explicit sum's factorial powers.
    for ts in (0, 2, 100):
        xi = family_rotation_element(np.array([0.6, 0.64, 0.48]), 2.3)
        u = rotation_operator(SshParams(100, ts), xi).entries
        assert np.abs(u @ u.conj().T - np.eye(101)).max() < 1e-13


def test_rotation_operator_unitary():
    for tj, ts in ((2, 0), (1, 1), (4, 2)):
        axis = RNG.normal(size=3)
        axis /= np.linalg.norm(axis)
        xi = su2_from_rotation(axis, float(RNG.uniform(-3, 3)))
        u = rotation_operator(SshParams(tj, ts), xi).entries
        assert np.abs(u @ u.conj().T - np.eye(tj + 1)).max() < 1e-12


def test_covariance_sigma0_random_rotations():
    # Y_mu(R^T x) = sum_nu Y_nu(x) D_{nu mu}(family element): exact for
    # ordinary harmonics under arbitrary rotations.
    for tj in (2, 4):
        p = SshParams(tj, 0)
        for _ in range(5):
            axis = RNG.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = float(RNG.uniform(-3, 3))
            xi = family_rotation_element(axis, angle)
            d = rotation_operator(p, xi).entries
            rot = so3_matrix(su2_from_rotation(axis, angle))
            x = random_point(p)
            xt = SpherePoint.from_unit_vector(rot.T @ x.unit_vector())
            y_x = np.array([ssh_eval(p, tmu, x) for tmu in p.projections()])
            y_t = np.array([ssh_eval(p, tmu, xt) for tmu in p.projections()])
            assert np.abs(y_t - y_x @ d).max() < 1e-10


def test_covariance_axis3_any_sigma():
    # Rotations about the 3-axis leave the harmonic section untwisted, so
    # the transformation law is exact pointwise for every sigma.
    for tj, ts in ((1, 1), (2, 2), (4, 2), (3, -3)):
        p = SshParams(tj, ts)
        for _ in range(4):
            angle = float(RNG.uniform(-3, 3))
            xi = family_rotation_element([0.0, 0.0, 1.0], angle)
            d = rotation_operator(p, xi).entries
            x = random_point(p)
            xt = SpherePoint(x.theta, (x.phi - angle) % p.phi_period)
            y_x = np.array([ssh_eval(p, tmu, x) for tmu in p.projections()])
            y_t = np.array([ssh_eval(p, tmu, xt) for tmu in p.projections()])
            assert np.abs(y_t - y_x @ d).max() < 1e-10


def test_covariance_nonzero_sigma_is_projective():
    # Under a generic rotation the sigma != 0 family picks up one point
    # dependent unit phase: the transformed vector matches after removing
    # the optimal global phase, never entrywise.
    p = SshParams(2, 2)
    axis = np.array([0.6, 0.64, 0.48])
    axis /= np.linalg.norm(axis)
    angle = 1.2
    xi = family_rotation_element(axis, angle)
    d = rotation_operator(p, xi).entries
    rot = so3_matrix(su2_from_rotation(axis, angle))
    x = SpherePoint(1.1, 0.7)
    xt = SpherePoint.from_unit_vector(rot.T @ x.unit_vector())
    y_x = np.array([ssh_eval(p, tmu, x) for tmu in p.projections()])
    y_t = np.array([ssh_eval(p, tmu, xt) for tmu in p.projections()])
    pred = y_x @ d
    overlap = np.vdot(pred, y_t)
    phase = overlap / abs(overlap)
    assert np.abs(y_t - phase * pred).max() < 1e-12
    assert abs(abs(phase.real) - 1) > 1e-3  # the phase is genuinely nontrivial


def test_operator_matrix_dimension_guard():
    a = OperatorMatrix.identity(2)
    b = OperatorMatrix.identity(4)
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        OperatorMatrix(2, np.zeros((2, 2)))
