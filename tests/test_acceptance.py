"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one machine-readable pass/fail line; run with -s (or rely
on pytest's captured-output display) to see the residuals.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from fuzzsphere.csquant import (
    HarmonicExpansion,
    cartesian_factor,
    fock_demo,
    quantize_quadrature,
    quantize_ylm_closed,
    superop_action,
)
from fuzzsphere.fuzzy import (
    FuzzyParams,
    c_of_ell_closed,
    classical_limit_report,
    empirical_ratios,
    symmetrization_commutator_check,
)
from fuzzsphere.quad import SphereGrid, SpherePoint, integrate_sphere
from fuzzsphere.ssh import (
    OperatorMatrix,
    SshParams,
    half_power_of_minus_one,
    lambda_matrices,
    ssh_eval,
)
from fuzzsphere.wigner import Su2Element, three_j_twice, wigner_D_sum

FOUR_PI = 4 * math.pi


def spin_pairs(two_j_max):
    for tj in range(0, two_j_max + 1):
        for ts in range(-tj, tj + 1, 2):
            yield tj, ts


def ssh_by_sum(p: SshParams, two_mu: int, x: SpherePoint) -> complex:
    """The harmonic from the explicit-sum D entry (the small-j oracle)."""
    phase = half_power_of_minus_one(p.two_sigma) * cmath.exp(
        0.5j * (p.two_sigma * p.psi + two_mu * x.phi)
    )
    d = wigner_D_sum(p.two_j, two_mu, p.two_sigma, Su2Element(x.theta / 2, 0.0, math.pi / 2))
    return phase * math.sqrt((p.two_j + 1) / FOUR_PI) * d


def report(number: int, name: str, residual: float, tol: float) -> None:
    status = "PASS" if residual <= tol else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: residual={residual:.3e} tol={tol:.1e} {status}")
    assert residual <= tol, f"criterion {number} ({name}): {residual:.3e} > {tol:.1e}"


def test_criterion_01_resolution_of_identity():
    worst = 0.0
    for tj, ts in spin_pairs(6):
        p = SshParams(tj, ts)
        a = quantize_quadrature(p, lambda x: 1.0, SphereGrid.auto(tj, 0, p.phi_period))
        worst = max(worst, a.max_abs_diff(OperatorMatrix.identity(tj)))
    report(1, "resolution_of_identity", worst, 1e-12)


def test_criterion_02_cartesian_identification():
    fns = [
        lambda x: x.unit_vector()[0],
        lambda x: x.unit_vector()[1],
        lambda x: math.cos(x.theta),
    ]
    worst = 0.0
    worst_degenerate = 0.0
    for tj, ts in spin_pairs(6):
        if tj == 0:
            continue
        p = SshParams(tj, ts)
        grid = SphereGrid.auto(tj, 1, p.phi_period)
        lams = lambda_matrices(p)
        for a in range(3):
            mat = quantize_quadrature(p, fns[a], grid)
            if ts == 0:
                worst_degenerate = max(worst_degenerate, mat.max_abs())
            else:
                k = cartesian_factor(p)
                worst = max(worst, mat.max_abs_diff(lams[a].scaled(k)))
    report(2, "cartesian_identification", worst, 1e-11)
    report(2, "cartesian_sigma0_degeneracy", worst_degenerate, 1e-12)


def test_criterion_03_closed_form_vs_quadrature_oracle():
    worst = 0.0
    for tj, ts in spin_pairs(5):
        p = SshParams(tj, ts)
        grid = SphereGrid.auto(tj, tj, p.phi_period)
        for ell in range(0, tj + 1):
            for m in range(-ell, ell + 1):
                f = HarmonicExpansion({(ell, m): 1.0}).evaluate
                quad = quantize_quadrature(p, f, grid, hermitize=False)
                worst = max(worst, quantize_ylm_closed(p, ell, m).max_abs_diff(quad))
    report(3, "closed_form_vs_quadrature", worst, 1e-10)


def _fuzzy_worst(cases):
    """Worst m-spread of the quantized/hatted ratio, and worst distance of a
    ratio from the closed-form constant, over (FuzzyParams, ell) cases."""
    worst_spread = 0.0
    worst_closed = 0.0
    for fp, ell in cases:
        ratios = empirical_ratios(fp, ell)
        worst_spread = max(worst_spread, max(abs(r - ratios[0]) for r in ratios))
        closed = c_of_ell_closed(fp, ell)
        worst_closed = max(worst_closed, max(abs(r - closed) for r in ratios))
    return worst_spread, worst_closed


def test_criterion_04_fuzzy_correspondence():
    spread, closed = _fuzzy_worst(
        (FuzzyParams(tj, ts), ell)
        for tj, ts in spin_pairs(8)
        if ts != 0 and tj != 0
        for ell in range(0, tj + 1)
    )
    report(4, "fuzzy_ratio_m_spread", spread, 1e-9)
    report(4, "fuzzy_closed_constant", closed, 1e-8)


def test_criterion_04_fuzzy_correspondence_large_j():
    fp = FuzzyParams(16, 2)
    spread, closed = _fuzzy_worst((fp, ell) for ell in (0, 8, 16))
    report(4, "fuzzy_ratio_m_spread_2j16", spread, 1e-9)
    report(4, "fuzzy_closed_constant_2j16", closed, 1e-8)


def test_criterion_05_symmetrization_lemma():
    worst = 0.0
    for tjr in (2, 3, 4):
        for a1 in range(0, 6):
            for a2 in range(0, 6):
                for a3 in range(0, 6):
                    if not 0 < a1 + a2 + a3 <= 5:
                        continue
                    for axis in (1, 2, 3):
                        worst = max(
                            worst,
                            symmetrization_commutator_check(tjr, (a1, a2, a3), axis),
                        )
    report(5, "symmetrization_lemma", worst, 1e-12)


def test_criterion_06_ladder_eigenstructure():
    worst = 0.0
    for tj, ts in spin_pairs(4):
        p = SshParams(tj, ts)
        for ell in range(0, tj + 1):
            for m in range(-ell, ell + 1):
                t = quantize_ylm_closed(p, ell, m)
                worst = max(worst, superop_action(p, 3, t).max_abs_diff(t.scaled(m)))
                lsq = OperatorMatrix.zeros(tj)
                for axis in (1, 2, 3):
                    lsq = lsq + superop_action(p, axis, superop_action(p, axis, t))
                worst = max(worst, lsq.max_abs_diff(t.scaled(ell * (ell + 1))))
    report(6, "ladder_eigenstructure", worst, 1e-9)


def test_criterion_07_exact_threej_self_tests():
    failures = 0
    for tj1 in range(0, 5):
        for tj2 in range(0, 5):
            for tj3 in range(abs(tj1 - tj2), min(4, tj1 + tj2) + 1, 2):
                sign = -1 if ((tj1 + tj2 + tj3) // 2) % 2 else 1
                for tm3 in range(-tj3, tj3 + 1, 2):
                    total = Fraction(0)
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        tm2 = -tm1 - tm3
                        if abs(tm2) > tj2:
                            continue
                        v = three_j_twice(tj1, tj2, tj3, tm1, tm2, tm3)
                        total += (tj3 + 1) * v.squared()
                        if three_j_twice(tj2, tj3, tj1, tm2, tm3, tm1) != v:
                            failures += 1
                        if three_j_twice(tj2, tj1, tj3, tm2, tm1, tm3).scaled(sign) != v:
                            failures += 1
                        if three_j_twice(tj1, tj2, tj3, -tm1, -tm2, -tm3).scaled(sign) != v:
                            failures += 1
                    if total != 1:
                        failures += 1
    report(7, "exact_threej_self_tests", float(failures), 0.0)


def test_criterion_08_ssh_integrity():
    rng = np.random.default_rng(20240809)
    worst_sum = 0.0
    worst_forms = 0.0
    worst_orth = 0.0
    for tj, ts in spin_pairs(6):
        p = SshParams(tj, ts, psi=0.0)
        for _ in range(100):
            x = SpherePoint(
                float(rng.uniform(0, math.pi)), float(rng.uniform(0, p.phi_period))
            )
            total = 0.0
            for tmu in p.projections():
                v = ssh_eval(p, tmu, x)
                total += abs(v) ** 2
                worst_forms = max(
                    worst_forms, abs(v - ssh_by_sum(p, tmu, x))
                )
            worst_sum = max(worst_sum, abs(total - (tj + 1) / FOUR_PI))
        grid = SphereGrid.auto(tj, 0, p.phi_period)
        for tmu in p.projections():
            for tnu in p.projections():
                val = FOUR_PI * integrate_sphere(
                    lambda x: ssh_eval(p, tmu, x).conjugate() * ssh_eval(p, tnu, x),
                    grid,
                )
                want = 1.0 if tmu == tnu else 0.0
                worst_orth = max(worst_orth, abs(val - want))
    report(8, "ssh_sum_rule", worst_sum, 1e-11)
    report(8, "ssh_orthonormality", worst_orth, 1e-11)
    report(8, "ssh_two_closed_forms", worst_forms, 1e-12)


def test_criterion_09_fock_demo():
    space, rep = fock_demo(8)
    report(9, "fock_quadrature_vs_algebraic", rep["a_quadrature_max_dev"], 1e-8)
    comm = space.position @ space.momentum - space.momentum @ space.position
    block = np.abs(comm[:8, :8] - 1j * np.eye(8)).max()
    report(9, "fock_canonical_commutator_block", float(block), 1e-12)
    exact = 0.0 if rep["lowering_exact"] else 1.0
    report(9, "fock_lowering_exact", exact, 0.0)


def test_criterion_10_classical_limit():
    rows = classical_limit_report(0, [2 * j for j in range(1, 9)], 1.0)
    worst = 0.0
    for row in rows:
        j = row["two_j"] / 2
        worst = max(worst, abs(row["commutator_norm"] - 1 / (j + 1)))
    report(10, "classical_commutator_value", worst, 1e-12)
    norms = [row["commutator_norm"] for row in rows]
    monotone = 0.0 if all(b < a for a, b in zip(norms, norms[1:])) else 1.0
    report(10, "classical_commutator_monotone", monotone, 0.0)
