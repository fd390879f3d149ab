"""Command-line interface tests: formats, round trips, determinism."""

import json
import math

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


def test_verify_tolerance_override_can_fail(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "fock", "--tol",
        "fock_quadrature_vs_algebraic=1e-30",
    )
    assert code == 1
    assert "status=fail" in out
