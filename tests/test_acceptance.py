"""Acceptance suite: the ten criteria of ``fuzzsphere verify``, each at its
own scale.

Every criterion is computed by its check in ``fuzzsphere.cli.ALL_CHECKS``;
this file only picks the scale and prints one machine-readable line per
residual (run with -s, or rely on pytest's captured-output display).
"""

from fuzzsphere.cli import ALL_CHECKS, _fuzzy_residuals
from fuzzsphere.fuzzy import FuzzyParams

# Criterion number -> (check, largest 2j).  None marks the checks whose
# spins are fixed; they ignore the scale.
CRITERIA = {
    1: ("identity", 6),
    2: ("cartesian", 6),
    3: ("closed-vs-quadrature", 5),
    4: ("fuzzy", 8),
    5: ("appendix-b", None),
    6: ("eigen", 4),
    7: ("threej", None),
    8: ("ssh", 6),
    9: ("fock", None),
    10: ("classical", None),
}


def report(number: int, results, suffix: str = "") -> None:
    for name, residual, tol in results:
        status = "PASS" if residual <= tol else "FAIL"
        print(
            f"ACCEPTANCE {number:02d} {name}{suffix}: "
            f"residual={residual:.3e} tol={tol:.1e} {status}"
        )
    failed = [f"{name}: {r:.3e} > {t:.1e}" for name, r, t in results if r > t]
    assert not failed, f"criterion {number}: {'; '.join(failed)}"


def run_criterion(number: int) -> None:
    check, two_j_max = CRITERIA[number]
    report(number, ALL_CHECKS[check](two_j_max))


def test_criterion_01_resolution_of_identity():
    run_criterion(1)


def test_criterion_02_cartesian_identification():
    run_criterion(2)


def test_criterion_03_closed_form_vs_quadrature_oracle():
    run_criterion(3)


def test_criterion_04_fuzzy_correspondence():
    run_criterion(4)


def test_criterion_04_fuzzy_correspondence_large_j():
    report(4, _fuzzy_residuals(FuzzyParams(40, 2), (0, 20, 40)), suffix="_2j40")


def test_criterion_05_symmetrization_lemma():
    run_criterion(5)


def test_criterion_06_ladder_eigenstructure():
    run_criterion(6)


def test_criterion_07_exact_threej_self_tests():
    run_criterion(7)


def test_criterion_08_ssh_integrity():
    run_criterion(8)


def test_criterion_09_fock_demo():
    run_criterion(9)


def test_criterion_10_classical_limit():
    run_criterion(10)
