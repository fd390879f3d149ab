"""Command-line interface tests: formats, round trips, determinism."""

import json
import math
import re

import numpy as np
import pytest

from fuzzsphere.cli import load_matrix, main, save_matrix
from fuzzsphere.ssh import OperatorMatrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_wigner3j_exact_and_float(capsys):
    code, out, _ = run(capsys, "wigner3j", "--two", "2", "2", "0", "0", "0", "0")
    assert code == 0
    assert out.strip() == "-(1/3)·√3 ≈ -0.577350269189626"


def test_wigner3j_zero_cases(capsys):
    for key in (("2", "2", "2", "2", "0", "0"), ("2", "2", "6", "0", "0", "0")):
        code, out, _ = run(capsys, "wigner3j", "--two", *key)
        assert code == 0
        assert out.strip() == "0"


def test_wigner3j_radicand_past_float_range(capsys):
    # The square-free radicand has 1038 bits; the value is about 1.5e-3.
    code, out, err = run(capsys, "wigner3j", "--two", "800", "800", "800", "0", "0", "0")
    assert code == 0, err
    assert out.strip().endswith("≈ 0.0015137597874191")


def test_wigner3j_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "wigner3j", "--two", "-2", "2", "0", "0", "0", "0")
    assert code == 2
    assert "error" in err


def test_ssh_eval_value(capsys):
    code, out, _ = run(
        capsys, "ssh-eval", "--two-j", "2", "--two-sigma", "0", "--two-mu", "0",
        "--theta", "0.7", "--phi", "0.0",
    )
    assert code == 0
    value = complex(out.strip().split("=", 1)[1])
    assert value.real == pytest.approx(
        math.sqrt(3 / (4 * math.pi)) * math.cos(0.7), abs=1e-14
    )


def test_lambda_prints_three_blocks(capsys):
    code, out, _ = run(capsys, "lambda", "--two-j", "1", "--two-sigma", "1")
    assert code == 0
    for tag in ("lambda1:", "lambda2:", "lambda3:"):
        assert tag in out


def test_quantize_builtin_writes_and_reports(tmp_path, capsys):
    target = tmp_path / "m.json"
    code, out, _ = run(
        capsys, "quantize", "x3", "--two-j", "2", "--two-sigma", "2",
        "-o", str(target), "--format", "json",
    )
    assert code == 0
    assert "deviation_from_k_lambda=" in out
    dev = float(
        [ln for ln in out.splitlines() if ln.startswith("deviation_from_k_lambda")][0]
        .split("=")[1]
    )
    assert dev < 1e-11
    data = json.loads(target.read_text())
    assert data["two_j"] == 2 and data["rows"] == 3
    diag = [data["entries"][0], data["entries"][4], data["entries"][8]]
    assert np.abs(np.array([d[0] for d in diag]) - [-0.5, 0.0, 0.5]).max() < 1e-11


def test_quantize_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        run(
            capsys, "quantize", "x1", "--two-j", "3", "--two-sigma", "1",
            "-o", str(target),
        )
    assert a.read_bytes() == b.read_bytes()


def test_quantize_degenerate_sigma0(tmp_path, capsys):
    target = tmp_path / "zero.json"
    code, out, err = run(
        capsys, "quantize", "x3", "--two-j", "2", "--two-sigma", "0",
        "-o", str(target),
    )
    assert code == 0
    assert "degenerate: quantization vanishes" in err
    matrix, _ = load_matrix(target)
    assert matrix.max_abs() == 0.0


@pytest.mark.parametrize("flag", ["--n-theta", "--n-phi"])
def test_quantize_zero_grid_order_exits_2(capsys, flag):
    # 0 is a node count, not "auto": it must reach the grid's own check.
    code, out, err = run(capsys, "quantize", "x3", "--two-j", "2", "--two-sigma", "2", flag, "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and ">= 1" in err


def test_quantize_complex_observable_not_symmetrized(tmp_path, capsys):
    # A complex harmonic quantizes to a non-Hermitian matrix; the written
    # file must carry it unsymmetrized and match the closed form.
    target = tmp_path / "y21.json"
    code, out, _ = run(
        capsys, "quantize", "--ylm", "2", "1", "--two-j", "4", "--two-sigma", "2",
        "-o", str(target),
    )
    assert code == 0
    dev = float(
        [ln for ln in out.splitlines() if ln.startswith("closed_form_deviation")][0]
        .split("=")[1]
    )
    assert dev < 1e-12
    matrix, _ = load_matrix(target)
    assert matrix.hermiticity_residual() > 0.05


def test_quantize_inside_band_above_j_is_not_truncated(tmp_path, capsys):
    # ell = 3 lies between j = 2 and 2j = 4, so the closed form keeps it.
    code, out, _ = run(
        capsys, "quantize", "--ylm", "3", "0", "--two-j", "4", "--two-sigma", "2",
        "-o", str(tmp_path / "y.json"),
    )
    assert code == 0
    lines = out.splitlines()
    assert not any(ln.startswith("truncated=") for ln in lines)
    dev = float([ln for ln in lines if ln.startswith("closed_form_deviation")][0].split("=")[1])
    assert dev < 1e-12


def test_quantize_beyond_band_truncation_log(tmp_path, capsys):
    target = tmp_path / "z.json"
    code, out, _ = run(
        capsys, "quantize", "--ylm", "4", "0", "--two-j", "2", "--two-sigma", "2",
        "-o", str(target),
    )
    assert code == 0
    assert any(ln.startswith("truncated=ell:4") for ln in out.splitlines())
    matrix, _ = load_matrix(target)
    assert matrix.max_abs() < 1e-12


def test_quantize_inline_terms(tmp_path, capsys):
    # x3 expressed as an explicit single-term expansion.
    coeff = math.sqrt(4 * math.pi / 3)
    target = tmp_path / "t.json"
    code, out, _ = run(
        capsys, "quantize", "--term", "1", "0", f"{coeff!r}", "0.0",
        "--two-j", "2", "--two-sigma", "2", "-o", str(target),
    )
    assert code == 0
    matrix, _ = load_matrix(target)
    assert np.abs(np.diag(matrix.entries) - [-0.5, 0, 0.5]).max() < 1e-11


def test_export_round_trip_bit_exact(tmp_path, capsys):
    rng = np.random.default_rng(5)
    arr = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    src = tmp_path / "m.json"
    save_matrix(OperatorMatrix(3, arr), src, "json", two_sigma=1)
    as_csv = tmp_path / "m.csv"
    code, _, _ = run(capsys, "export", "-i", str(src), "-o", str(as_csv), "--format", "csv")
    assert code == 0
    back = tmp_path / "back.json"
    code, _, _ = run(capsys, "export", "-i", str(as_csv), "-o", str(back), "--format", "json")
    assert code == 0
    m1, s1 = load_matrix(src)
    m2, s2 = load_matrix(back)
    assert np.array_equal(m1.entries, m2.entries)
    assert s1 == s2 == 1
    assert load_matrix(as_csv)[1] == 1


def _per_entry_rendering(m, fmt, two_sigma):
    """Both file formats rendered one numpy entry at a time, the reference
    for the bytes save_matrix writes."""
    dim = m.two_j + 1
    fields = []
    for r in range(dim):
        for c in range(dim):
            z = m.entries[r, c]
            fields.append((r, c, format(float(z.real), ".17g"), format(float(z.imag), ".17g")))
    if fmt == "json":
        cells = ", ".join(f"[{x}, {y}]" for _, _, x, y in fields)
        return (
            f'{{"two_j": {m.two_j}, "two_sigma": {two_sigma}, "rows": {dim}, '
            f'"entries": [{cells}]}}\n'
        )
    rows = [f"{r},{c},{x},{y}" for r, c, x, y in fields]
    return "\n".join([f"# two_j={m.two_j} two_sigma={two_sigma}", "row,col,re,im", *rows]) + "\n"


def test_save_matrix_bytes_match_per_entry_rendering(tmp_path):
    from fuzzsphere.csquant import quantize_ylm_closed
    from fuzzsphere.ssh import SshParams

    rng = np.random.default_rng(11)
    arr = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    arr[0, 1] = complex(-0.0, -0.0)
    arr[2, 3] = complex(0.0, -0.0)
    arr[4, 4] = complex(-1e-300, 1e300)
    matrices = [OperatorMatrix(4, arr), quantize_ylm_closed(SshParams(6, 2), 3, -1)]
    assert any(str(x) == "-0.0" for x in matrices[1].entries.real.ravel().tolist())
    for m in matrices:
        for fmt in ("json", "csv"):
            path = tmp_path / f"m.{fmt}"
            save_matrix(m, path, fmt, two_sigma=-4)
            assert path.read_bytes() == _per_entry_rendering(m, fmt, -4).encode()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(0.0, math.nan)])
def test_save_matrix_refuses_a_non_finite_entry(tmp_path, fmt, bad):
    # json has no inf or nan, so such a file would not load again
    arr = np.eye(2, dtype=complex)
    arr[0, 1] = bad
    path = tmp_path / f"m.{fmt}"
    with pytest.raises(ValueError, match="non-finite"):
        save_matrix(OperatorMatrix(1, arr), path, fmt, two_sigma=1)
    assert not path.exists()


def test_csv_round_trip_keeps_two_sigma(tmp_path):
    path = tmp_path / "m.csv"
    save_matrix(OperatorMatrix.identity(4), path, "csv", two_sigma=2)
    matrix, two_sigma = load_matrix(path)
    assert two_sigma == 2 and matrix.two_j == 4
    assert np.array_equal(matrix.entries, np.eye(5))


def test_csv_shape(tmp_path):
    arr = np.arange(9.0).reshape(3, 3) + 0j
    path = tmp_path / "m.csv"
    save_matrix(OperatorMatrix(2, arr), path, "csv")
    lines = [ln for ln in path.read_text().splitlines() if ln]
    assert lines[0] == "# two_j=2 two_sigma=0"
    assert lines[1] == "row,col,re,im"
    assert len(lines) - 2 == 9


def _csv_lines(tmp_path):
    path = tmp_path / "m.csv"
    save_matrix(OperatorMatrix.identity(1), path, "csv", two_sigma=1)
    return path, path.read_text().splitlines()


def _assert_rejected(capsys, tmp_path, path, match):
    with pytest.raises(ValueError, match=match):
        load_matrix(path)
    code, _, err = run(
        capsys, "export", "-i", str(path), "-o", str(tmp_path / "out.json")
    )
    assert code == 2
    assert err.startswith("error:") and match in err
    assert not (tmp_path / "out.json").exists()


def test_csv_missing_cell_rejected(tmp_path, capsys):
    path, lines = _csv_lines(tmp_path)
    path.write_text("\n".join(lines[:-1]) + "\n")
    _assert_rejected(capsys, tmp_path, path, "missing")


def test_csv_duplicate_cell_rejected(tmp_path, capsys):
    path, lines = _csv_lines(tmp_path)
    path.write_text("\n".join(lines[:-1] + [lines[2]]) + "\n")
    _assert_rejected(capsys, tmp_path, path, "duplicate")


def test_csv_out_of_range_cell_rejected(tmp_path, capsys):
    path, lines = _csv_lines(tmp_path)
    path.write_text("\n".join(lines + ["2,0,1,0"]) + "\n")
    _assert_rejected(capsys, tmp_path, path, "out of range")


def test_json_entry_count_rejected(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_matrix(OperatorMatrix.identity(2), path, "json")
    data = json.loads(path.read_text())
    data["entries"] = data["entries"][:-1]
    path.write_text(json.dumps(data))
    _assert_rejected(capsys, tmp_path, path, "entries")


def test_json_rows_two_j_mismatch_rejected(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_matrix(OperatorMatrix.identity(2), path, "json")
    data = json.loads(path.read_text())
    data["two_j"] = 3
    path.write_text(json.dumps(data))
    _assert_rejected(capsys, tmp_path, path, "rows=3")


def _json_file(tmp_path, **fields):
    path = tmp_path / "m.json"
    save_matrix(OperatorMatrix.identity(2), path, "json", two_sigma=2)
    data = json.loads(path.read_text())
    data.update(fields)
    path.write_text(json.dumps(data))
    return path


def test_json_negative_spin_rejected(tmp_path, capsys):
    path = _json_file(tmp_path, two_j=-1, rows=0, entries=[])
    _assert_rejected(capsys, tmp_path, path, "negative spin")


def test_inadmissible_two_sigma_rejected(tmp_path, capsys):
    path = _json_file(tmp_path, two_sigma=5)
    _assert_rejected(capsys, tmp_path, path, "exceeds 2j=2")
    path, lines = _csv_lines(tmp_path)
    path.write_text("\n".join(["# two_j=1 two_sigma=0"] + lines[1:]) + "\n")
    _assert_rejected(capsys, tmp_path, path, "parity differs")
    with pytest.raises(ValueError, match="exceeds 2j=2"):
        save_matrix(OperatorMatrix.identity(2), tmp_path / "s.json", "json", two_sigma=4)
    assert not (tmp_path / "s.json").exists()


def test_non_finite_entry_rejected(tmp_path, capsys):
    path = _json_file(tmp_path)
    # json reads an out-of-range literal as inf
    path.write_text(path.read_text().replace("[1, 0]", "[1e999, 0]", 1))
    _assert_rejected(capsys, tmp_path, path, "non-finite entry at cell")
    path, lines = _csv_lines(tmp_path)
    path.write_text("\n".join(lines[:-1] + ["1,1,1,nan"]) + "\n")
    _assert_rejected(capsys, tmp_path, path, "non-finite entry at cell")


def test_arithmetic_error_exits_2(monkeypatch, capsys):
    import fuzzsphere.cli as cli

    def drifted(args):
        raise ArithmeticError("sum-rule drift")

    monkeypatch.setattr(cli, "_cmd_wigner3j", drifted)
    code, _, err = run(capsys, "wigner3j", "--two", "0", "0", "0", "0", "0", "0")
    assert code == 2
    assert err.strip() == "error: sum-rule drift"


def test_identity_json_shape(tmp_path):
    path = tmp_path / "id.json"
    save_matrix(OperatorMatrix.identity(2), path, "json")
    data = json.loads(path.read_text())
    entries = np.array([complex(re, im) for re, im in data["entries"]]).reshape(3, 3)
    assert np.array_equal(entries, np.eye(3))


def test_fuzzy_compare_cli(capsys):
    code, out, _ = run(capsys, "fuzzy-compare", "--two-j", "2", "--two-sigma", "2")
    assert code == 0
    assert out.count("ell=") == 3


@pytest.mark.parametrize("two_j, two_sigma", [(3, 1), (4, -2), (6, 4)])
def test_fuzzy_compare_agrees_with_the_fuzzy_check(capsys, monkeypatch, two_j, two_sigma):
    from fuzzsphere import cli
    from fuzzsphere.fuzzy import FuzzyParams

    def both():
        code, out, _ = run(
            capsys, "fuzzy-compare", "--two-j", str(two_j), "--two-sigma", str(two_sigma)
        )
        residuals = cli._fuzzy_residuals(FuzzyParams(two_j, two_sigma), range(two_j + 1))
        spreads = [float(v) for v in re.findall(r"spread=(\S+)", out)]
        devs = [float(v) for v in re.findall(r"closed_dev=(\S+)", out)]
        assert len(spreads) == len(devs) == two_j + 1
        assert max(spreads) == float(f"{residuals[0][1]:.3e}")
        assert max(devs) == float(f"{residuals[1][1]:.3e}")
        return code, all(residual <= tol for _, residual, tol in residuals)

    assert both() == (0, True)
    # Push one ratio past the fuzzy check's tolerances: both fail together.
    ratios = cli.empirical_ratios

    def skewed(fp, ell):
        out = list(ratios(fp, ell))
        out[-1] += 5e-8 if ell == 1 else 0.0
        return out

    monkeypatch.setattr(cli, "empirical_ratios", skewed)
    assert both() == (1, False)


def test_fuzzy_compare_runs_past_hat_map_range(capsys):
    # hat_map stops at 2j = 28; the hatted harmonics do not.
    code, out, _ = run(capsys, "fuzzy-compare", "--two-j", "29", "--two-sigma", "1")
    assert code == 0
    assert out.count("ell=") == 30


@pytest.mark.parametrize(
    "args, message",
    [
        (("--two-j", "8", "--two-sigma", "2", "--radius", "1e-200"), "float range"),
        (("--two-j", "101", "--two-sigma", "1"), "hat_ylm works up to 2j=100"),
    ],
)
def test_fuzzy_compare_past_its_range_exits_2(capsys, args, message):
    code, _, err = run(capsys, "fuzzy-compare", *args)
    assert code == 2
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("ell", ["5", "-1"])
def test_fuzzy_compare_ell_outside_the_band_exits_2(capsys, ell):
    code, out, err = run(capsys, "fuzzy-compare", "--two-j", "4", "--two-sigma", "2", "--ell", ell)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Warning" not in err
    assert f"ell={ell} outside the band limit 2j=4" in err


@pytest.mark.parametrize("radius", ["nan", "inf"])
@pytest.mark.parametrize(
    "args",
    [
        ("classical-limit", "--two-j", "2", "4", "--two-sigma-offset", "0"),
        ("fuzzy-compare", "--two-j", "4", "--two-sigma", "2"),
    ],
)
def test_radius_not_finite_exits_2(capsys, args, radius):
    code, out, err = run(capsys, *args, "--radius", radius)
    assert code == 2 and out == ""
    assert err.startswith("error: radius must be positive and finite")


def test_classical_limit_cli(capsys):
    code, out, _ = run(
        capsys, "classical-limit", "--two-j", "2", "4", "--two-sigma-offset", "0"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and "commutator_norm=0.5" in lines[0]


def test_verify_fock_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "fock")
    assert code == 0
    assert all("status=pass" in ln for ln in out.strip().splitlines())
    assert "checks passed" in err


def test_verify_reports_three_j_cache_on_stderr(capsys):
    from fuzzsphere.wigner import three_j_cache_clear

    three_j_cache_clear()
    code, out, err = run(capsys, "verify", "--two-j-max", "1")
    assert code == 0
    assert "3j" not in out
    *timings, last = err.splitlines(keepends=True)
    assert all(re.fullmatch(r"check=\S+ wall_s=\d+\.\d{3}\n", ln) for ln in timings), err
    summary = re.fullmatch(
        r"(\d+)/\1 checks passed; 3j cache (\d+) entries, (\d+) hits, (\d+) misses\n",
        last,
    )
    assert summary, err
    entries, hits, misses = map(int, summary.groups()[1:])
    assert entries == misses > 0 and hits > 0


def test_verify_times_each_check_on_stderr(capsys):
    from fuzzsphere.cli import SUITES

    code, out, err = run(capsys, "verify", "--two-j-max", "1")
    assert code == 0 and "wall_s" not in out
    timed = re.findall(r"^check=(\S+) wall_s=(\d+\.\d{3})$", err, re.MULTILINE)
    assert [name for name, _ in timed] == SUITES["default"]
    code, out, err = run(capsys, "verify", "--suite", "fock")
    assert re.findall(r"^check=(\S+) wall_s=", err, re.MULTILINE) == ["fock"]


def test_verify_tolerance_override_can_fail(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "fock", "--tol",
        "fock_quadrature_vs_algebraic=1e-30",
    )
    assert code == 1
    assert "status=fail" in out


@pytest.mark.parametrize("two_j_max", ["-1", "0"])
def test_verify_rejects_two_j_max_below_one(capsys, two_j_max):
    code, out, err = run(capsys, "verify", "--two-j-max", two_j_max)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--two-j-max" in err


def test_verify_rejects_unknown_tolerance_name(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "fock", "--tol", "no_such_check=1e-30"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "no_such_check" in err
    assert "fock_quadrature_vs_algebraic" in err and "fock_lowering_exact" in err


def test_verify_rejects_check_outside_suite(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "fock", "--tol", "identity_resolution=1"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "identity_resolution" in err


@pytest.mark.parametrize("spec", ["fock_qp_corner", "fock_qp_corner="])
def test_verify_rejects_tolerance_without_value(capsys, spec):
    code, out, err = run(capsys, "verify", "--suite", "fock", "--tol", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "CHECK=VALUE" in err
    assert "fock_qp_identity_block" in err


def test_check_name_table_matches_reported_residuals():
    from fuzzsphere.cli import _suite_checks, run_checks

    for suite in ("default", "fock", "appendix-b"):
        assert [r[0] for r in run_checks(suite, 1)] == _suite_checks(suite)


def test_verify_lines_name_the_spins_each_residual_covered(capsys):
    code, out, _ = run(capsys, "verify", "--two-j-max", "1")
    assert code == 0
    reach = dict(re.findall(r"check=(\S+) .* two_j_max=(\S+)\n", out))
    assert len(reach) == 20
    assert reach["identity_resolution"] == reach["ladder_eigen_l3"] == "1"
    assert reach["symmetrized_commutator"] == reach["threej_symmetry_exact"] == "4"
    assert reach["classical_monotone_decay"] == "16"
    assert reach["fock_qp_corner"] == "-"
    # Repeated runs print the same bytes.
    assert run(capsys, "verify", "--two-j-max", "1")[1] == out


def test_capped_residuals_report_their_cap():
    from fuzzsphere.cli import _reach

    assert _reach("ladder_eigen_l_squared", 6) == 4
    assert _reach("ssh_two_closed_forms", 30) == 24
    assert _reach("ssh_sum_rule", 30) == 30


def test_ssh_oracle_comparison_stops_at_its_range():
    # At 2j=30 the explicit-sum oracle is off from ssh_eval by 1.6e-12 on
    # these points, past the 1e-12 tolerance; the sum rule still holds.
    from fuzzsphere.cli import _ssh_pointwise
    from fuzzsphere.ssh import SshParams

    results = _ssh_pointwise(SshParams(30, 0), np.random.default_rng(0))
    assert [name for name, _, _ in results] == ["ssh_sum_rule", "ssh_two_closed_forms"]
    assert all(residual <= tol for _, residual, tol in results), results


def test_ssh_eval_past_working_range_exits_2(capsys):
    from fuzzsphere.wigner import D_MATRIX_MAX_TWO_J

    args = ["ssh-eval", "--two-sigma", "1", "--two-mu", "1", "--theta", "0.7", "--phi", "0"]
    code, out, err = run(capsys, *args, "--two-j", str(D_MATRIX_MAX_TWO_J + 1))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(D_MATRIX_MAX_TWO_J) in err
    assert "Traceback" not in err


def test_degree_stacks_quantize_as_each_harmonic_alone():
    # The stacked route-1 quantization of closed-vs-quadrature: samples and
    # matrices have the bytes of one quantize_quadrature call per harmonic.
    from fuzzsphere.cli import _degree_samples, _spin_pairs
    from fuzzsphere.csquant import HarmonicExpansion, quantize_quadrature, quantize_samples
    from fuzzsphere.quad import SphereGrid
    from fuzzsphere.ssh import SshParams

    for tj, ts in _spin_pairs(6):
        p = SshParams(tj, ts)
        grid = SphereGrid.auto(tj, tj, p.phi_period)
        rings = grid.rings()
        for ell in range(tj + 1):
            samples = _degree_samples(ell, rings)
            stacked = quantize_samples(p, samples, grid, hermitize=False)
            for m in range(-ell, ell + 1):
                f = HarmonicExpansion({(ell, m): 1.0}).evaluate
                alone = f(rings.theta[:, None], rings.phi[None, :])
                assert samples[m + ell].tobytes() == alone.tobytes()
                quad = quantize_quadrature(p, f, grid, hermitize=False)
                assert stacked[m + ell].tobytes() == quad.entries.tobytes(), (tj, ts, ell, m)


def test_stacked_checks_visit_the_last_harmonic(monkeypatch):
    # Only (2j, 2sigma, ell, m) = (3, 1, 3, 3), the last harmonic of its family,
    # gains 1e-6 in entry (0, 0), off its band; both stacked checks see it.
    from fuzzsphere import cli

    closed = cli.quantize_ylm_closed

    def skewed(p, ell, m):
        out = closed(p, ell, m)
        if (p.two_j, p.two_sigma, ell, m) != (3, 1, 3, 3):
            return out
        entries = out.entries.copy()
        entries[0, 0] += 1e-6
        return OperatorMatrix(out.two_j, entries)

    monkeypatch.setattr(cli, "quantize_ylm_closed", skewed)
    [(_, residual, _)] = cli.ALL_CHECKS["closed-vs-quadrature"](3)
    assert residual > 1e-10
    eigen = {name: residual for name, residual, _ in cli.ALL_CHECKS["eigen"](3)}
    assert eigen["ladder_eigen_l3"] > 1e-9
