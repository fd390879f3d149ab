"""Command-line front end: evaluation, quantization, export, verification.

Reports are line-oriented key=value on stdout for scripting; human-oriented
summaries go to stderr.  Identical invocations produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .csquant import (
    HarmonicExpansion,
    cartesian_factor,
    fock_demo,
    quantize_expansion,
    quantize_quadrature,
    quantize_ylm_closed,
)
from .fuzzy import (
    FuzzyParams,
    c_of_ell_closed,
    classical_limit_report,
    empirical_ratios,
    symmetrization_commutator_check,
)
from .quad import SphereGrid, SpherePoint
from .ssh import OperatorMatrix, SshParams, lambda_matrices, ssh_eval
from .wigner import three_j_twice

__all__ = ["main", "RunConfig", "save_matrix", "load_matrix", "run_checks", "ALL_CHECKS"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}j"


@dataclass
class RunConfig:
    """Validated bundle of the common command parameters."""

    two_j: int
    two_sigma: int
    psi: float = 0.0
    radius: float = 1.0
    n_theta: int | None = None
    n_phi: int | None = None
    output: Path | None = None
    fmt: str = "json"
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        SshParams(self.two_j, self.two_sigma, self.psi)
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.fmt!r}")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def ssh_params(self) -> SshParams:
        return SshParams(self.two_j, self.two_sigma, self.psi)

    def grid(self, ell_max: int | None = None) -> SphereGrid:
        params = self.ssh_params()
        band = max(self.two_j, ell_max or 0)
        auto = SphereGrid.auto(self.two_j, band, params.phi_period)
        return SphereGrid(
            self.n_theta or auto.n_theta,
            self.n_phi or auto.n_phi,
            params.phi_period,
        )


# ---------------------------------------------------------------------------
# matrix files

_CSV_HEADER = "row,col,re,im"
_CSV_META = re.compile(r"#\s*two_j=(\d+)\s+two_sigma=(-?\d+)")


def save_matrix(m: OperatorMatrix, path: Path, fmt: str, two_sigma: int = 0) -> None:
    """Write a matrix with 17-significant-digit fields, fixed layout.

    Both formats carry two_j and two_sigma; csv puts them on a leading
    ``# two_j=.. two_sigma=..`` line above the ``row,col,re,im`` table.
    """
    dim = m.two_j + 1
    if fmt == "json":
        rows = []
        for r in range(dim):
            for c in range(dim):
                z = m.entries[r, c]
                rows.append(f"[{_fmt(z.real)}, {_fmt(z.imag)}]")
        text = (
            "{"
            + f'"two_j": {m.two_j}, "two_sigma": {two_sigma}, "rows": {dim}, '
            + '"entries": [' + ", ".join(rows) + "]}"
        )
        path.write_text(text + "\n")
    elif fmt == "csv":
        lines = [f"# two_j={m.two_j} two_sigma={two_sigma}", _CSV_HEADER]
        for r in range(dim):
            for c in range(dim):
                z = m.entries[r, c]
                lines.append(f"{r},{c},{_fmt(z.real)},{_fmt(z.imag)}")
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def load_matrix(path: Path) -> tuple[OperatorMatrix, int]:
    """Read a matrix file (json or csv by content); returns (matrix, two_sigma).

    Malformed files raise ValueError: a shape that disagrees with two_j, or
    a csv cell that is missing, repeated or out of range.
    """
    import json

    text = path.read_text()
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        try:
            two_j, two_sigma = int(data["two_j"]), int(data["two_sigma"])
            dim, flat = int(data["rows"]), data["entries"]
            values = [complex(x, y) for x, y in flat]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed matrix file {path}: {exc!r}") from None
        if dim != two_j + 1:
            raise ValueError(f"{path}: rows={dim} but two_j={two_j} needs {two_j + 1}")
        if len(values) != dim * dim:
            raise ValueError(f"{path}: {len(values)} entries, expected {dim * dim}")
        return OperatorMatrix(two_j, np.array(values).reshape(dim, dim)), two_sigma

    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    meta = _CSV_META.fullmatch(lines[0]) if lines else None
    if meta is None or len(lines) < 2 or lines[1] != _CSV_HEADER:
        raise ValueError(
            f"unrecognized matrix file {path}: expected a "
            f"'# two_j=.. two_sigma=..' line and the header {_CSV_HEADER!r}"
        )
    two_j, two_sigma = int(meta.group(1)), int(meta.group(2))
    dim = two_j + 1
    arr = np.empty((dim, dim), dtype=complex)
    seen: set[tuple[int, int]] = set()
    for line in lines[2:]:
        try:
            r_s, c_s, re_s, im_s = line.split(",")
            cell = (int(r_s), int(c_s))
            value = complex(float(re_s), float(im_s))
        except ValueError:
            raise ValueError(f"{path}: malformed cell {line!r}") from None
        if not (0 <= cell[0] < dim and 0 <= cell[1] < dim):
            raise ValueError(f"{path}: cell {cell} out of range for two_j={two_j}")
        if cell in seen:
            raise ValueError(f"{path}: duplicate cell {cell}")
        seen.add(cell)
        arr[cell] = value
    if len(seen) != dim * dim:
        missing = next(
            (r, c) for r in range(dim) for c in range(dim) if (r, c) not in seen
        )
        raise ValueError(f"{path}: {dim * dim - len(seen)} cells missing, first {missing}")
    return OperatorMatrix(two_j, arr), two_sigma


# ---------------------------------------------------------------------------
# subcommands

def _cmd_wigner3j(args) -> int:
    value = three_j_twice(*args.two)
    if value.is_zero():
        print("0")
    else:
        print(f"{value} ≈ {value.to_float():.15g}")
    return 0


def _cmd_ssh_eval(args) -> int:
    params = SshParams(args.two_j, args.two_sigma, args.psi)
    value = ssh_eval(params, args.two_mu, SpherePoint(args.theta, args.phi))
    print(f"value={_fmt_complex(value)}")
    return 0


def _cmd_lambda(args) -> int:
    params = SshParams(args.two_j, args.two_sigma)
    for name, mat in zip(("lambda1", "lambda2", "lambda3"), lambda_matrices(params)):
        print(f"{name}:")
        for row in mat.entries:
            print("  " + "  ".join(_fmt_complex(z) for z in row))
    return 0


def _parse_expansion(args) -> tuple[HarmonicExpansion, str | None]:
    """Observable from the CLI: builtin name, --ylm pair, or --term list."""
    if args.observable is not None:
        return HarmonicExpansion.builtin(args.observable), args.observable
    if args.ylm is not None:
        ell, m = args.ylm
        return HarmonicExpansion({(ell, m): 1.0}), None
    if args.term:
        terms: dict[tuple[int, int], complex] = {}
        for ell_s, m_s, re_s, im_s in args.term:
            key = (int(ell_s), int(m_s))
            terms[key] = terms.get(key, 0j) + complex(float(re_s), float(im_s))
        return HarmonicExpansion(terms), None
    raise ValueError("no observable given (name, --ylm, or --term)")


def _cmd_quantize(args) -> int:
    config = RunConfig(
        two_j=args.two_j,
        two_sigma=args.two_sigma,
        psi=args.psi,
        n_theta=args.n_theta,
        n_phi=args.n_phi,
        output=Path(args.output) if args.output else None,
        fmt=args.format,
    )
    expansion, builtin = _parse_expansion(args)
    params = config.ssh_params()
    ell_max = max((ell for ell, _ in expansion.terms), default=0)
    grid = config.grid(ell_max)

    closed = quantize_expansion(params, expansion)
    raw = quantize_quadrature(params, expansion.evaluate, grid, hermitize=False)
    residual = raw.hermiticity_residual()
    print(f"hermiticity_residual={residual:.17g}")
    for ell, m, coeff in closed.truncated:
        print(f"truncated=ell:{ell},m:{m},coeff:{_fmt_complex(complex(coeff))}")

    degenerate = builtin is not None and config.two_sigma == 0
    # symmetrize only genuinely Hermitian results (real observables)
    matrix = raw.hermitized() if residual < 1e-12 else raw
    if degenerate:
        print("degenerate: quantization vanishes", file=sys.stderr)
        print(f"degenerate_max_abs={raw.max_abs():.17g}")
        matrix = OperatorMatrix.zeros(config.two_j)
    elif builtin is not None:
        lam = {"x1": 0, "x2": 1, "x3": 2, "cos_theta": 2}[builtin]
        target = lambda_matrices(params)[lam].scaled(cartesian_factor(params))
        print(f"deviation_from_k_lambda={matrix.max_abs_diff(target):.17g}")
    print(f"closed_form_deviation={matrix.max_abs_diff(closed.matrix):.17g}")

    if config.output is not None:
        save_matrix(matrix, config.output, config.fmt, config.two_sigma)
        print(f"wrote={config.output}")
    return 0


def _cmd_export(args) -> int:
    matrix, two_sigma = load_matrix(Path(args.input))
    save_matrix(matrix, Path(args.output), args.format, two_sigma)
    print(f"wrote={args.output}")
    return 0


def _cmd_fuzzy_compare(args) -> int:
    fp = FuzzyParams(args.two_j, args.two_sigma, args.radius)
    ells = [args.ell] if args.ell is not None else list(range(0, args.two_j + 1))
    status = 0
    for ell in ells:
        closed = c_of_ell_closed(fp, ell)
        ratios = empirical_ratios(fp, ell)
        spread = max(abs(r - ratios[0]) for r in ratios)
        dev = max(abs(r - closed) for r in ratios)
        print(
            f"ell={ell} c_closed={closed:.12g} ratio={ratios[0].real:.12g} "
            f"spread={spread:.3e} closed_dev={dev:.3e}"
        )
        if spread > 1e-9 or dev > 1e-8:
            status = 1
    return status


def _cmd_classical_limit(args) -> int:
    rows = classical_limit_report(args.two_sigma_offset, args.two_j, args.radius)
    for row in rows:
        ratio = row["ratio_to_previous"]
        print(
            f"two_j={row['two_j']} two_sigma={row['two_sigma']} "
            f"kappa={row['kappa']:.12g} commutator_norm={row['commutator_norm']:.12g} "
            f"closed={row['commutator_closed']:.12g} "
            f"ratio={'-' if ratio is None else format(ratio, '.12g')} "
            f"symbol_dev={row['symbol_deviation']:.3e}"
        )
    return 0


# ---------------------------------------------------------------------------
# verification suite

def _spin_pairs(two_j_max: int):
    for tj in range(0, two_j_max + 1):
        for ts in range(-tj, tj + 1, 2):
            yield tj, ts


def _check_identity(two_j_max: int):
    worst = 0.0
    for tj, ts in _spin_pairs(two_j_max):
        p = SshParams(tj, ts)
        a = quantize_quadrature(p, lambda x: 1.0)
        worst = max(worst, a.max_abs_diff(OperatorMatrix.identity(tj)))
    return [("identity_resolution", worst, 1e-12)]


def _check_cartesian(two_j_max: int):
    fns = [
        lambda x: x.unit_vector()[0],
        lambda x: x.unit_vector()[1],
        lambda x: math.cos(x.theta),
    ]
    worst = 0.0
    worst_zero = 0.0
    for tj, ts in _spin_pairs(two_j_max):
        if tj == 0:
            continue
        p = SshParams(tj, ts)
        lams = lambda_matrices(p)
        k = cartesian_factor(p)
        for a in range(3):
            mat = quantize_quadrature(p, fns[a])
            if ts == 0:
                worst_zero = max(worst_zero, mat.max_abs())
            else:
                worst = max(worst, mat.max_abs_diff(lams[a].scaled(k)))
    return [
        ("cartesian_identification", worst, 1e-11),
        ("cartesian_degenerate_zero", worst_zero, 1e-12),
    ]


def _check_closed_vs_quadrature(two_j_max: int):
    worst = 0.0
    for tj, ts in _spin_pairs(two_j_max):
        p = SshParams(tj, ts)
        grid = SphereGrid.auto(tj, tj, p.phi_period)
        for ell in range(0, tj + 1):
            for m in range(-ell, ell + 1):
                f = HarmonicExpansion({(ell, m): 1.0}).evaluate
                quad = quantize_quadrature(p, f, grid, hermitize=False)
                worst = max(
                    worst, quantize_ylm_closed(p, ell, m).max_abs_diff(quad)
                )
    return [("closed_vs_quadrature", worst, 1e-10)]


def _check_fuzzy(two_j_max: int):
    spread_worst = 0.0
    closed_worst = 0.0
    for tj, ts in _spin_pairs(two_j_max):
        if ts == 0 or tj == 0:
            continue
        fp = FuzzyParams(tj, ts)
        for ell in range(0, tj + 1):
            ratios = empirical_ratios(fp, ell)
            closed = c_of_ell_closed(fp, ell)
            spread_worst = max(
                spread_worst, max(abs(r - ratios[0]) for r in ratios)
            )
            closed_worst = max(closed_worst, max(abs(r - closed) for r in ratios))
    return [
        ("fuzzy_ratio_spread", spread_worst, 1e-9),
        ("fuzzy_closed_match", closed_worst, 1e-8),
    ]


def _check_appendix_b(_: int):
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
    return [("symmetrized_commutator", worst, 1e-12)]


def _check_eigen(two_j_max: int):
    from .csquant import superop_action

    worst3 = 0.0
    worst_sq = 0.0
    for tj, ts in _spin_pairs(min(two_j_max, 4)):
        p = SshParams(tj, ts)
        for ell in range(0, tj + 1):
            for m in range(-ell, ell + 1):
                t = quantize_ylm_closed(p, ell, m)
                worst3 = max(
                    worst3, superop_action(p, 3, t).max_abs_diff(t.scaled(m))
                )
                lsq = OperatorMatrix.zeros(tj)
                for axis in (1, 2, 3):
                    lsq = lsq + superop_action(p, axis, superop_action(p, axis, t))
                worst_sq = max(
                    worst_sq, lsq.max_abs_diff(t.scaled(ell * (ell + 1)))
                )
    return [
        ("ladder_eigen_l3", worst3, 1e-9),
        ("ladder_eigen_l_squared", worst_sq, 1e-9),
    ]


def _check_threej(_: int):
    from fractions import Fraction

    worst_orth = 0.0
    worst_sym = 0.0
    for tj1 in range(0, 5):
        for tj2 in range(0, 5):
            for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                if tj3 > 4:
                    continue
                for tm3 in range(-tj3, tj3 + 1, 2):
                    total = Fraction(0)
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        tm2 = -tm1 - tm3
                        if abs(tm2) > tj2:
                            continue
                        val = three_j_twice(tj1, tj2, tj3, tm1, tm2, tm3)
                        total += (tj3 + 1) * val.squared()
                        # cyclic and swap symmetries, exact comparison
                        cyc = three_j_twice(tj2, tj3, tj1, tm2, tm3, tm1)
                        if cyc != val:
                            worst_sym = max(worst_sym, 1.0)
                        swap = three_j_twice(tj2, tj1, tj3, tm2, tm1, tm3)
                        sign = (-1) ** ((tj1 + tj2 + tj3) // 2)
                        if swap.scaled(sign) != val:
                            worst_sym = max(worst_sym, 1.0)
                    if total != 1:
                        worst_orth = max(worst_orth, float(abs(total - 1)))
    return [
        ("threej_orthogonality_exact", worst_orth, 0.0),
        ("threej_symmetry_exact", worst_sym, 0.0),
    ]


def _check_ssh(two_j_max: int):
    import numpy as _np

    from .quad import weighted_gram
    from .ssh import ssh_eval_binomial

    rng = _np.random.default_rng(2024)
    worst_sum = 0.0
    worst_forms = 0.0
    worst_orth = 0.0
    for tj, ts in _spin_pairs(two_j_max):
        p = SshParams(tj, ts)
        for _ in range(20):
            x = SpherePoint(rng.uniform(0, math.pi), rng.uniform(0, p.phi_period))
            total = sum(abs(ssh_eval(p, tmu, x)) ** 2 for tmu in p.projections())
            worst_sum = max(worst_sum, abs(total - (tj + 1) / (4 * math.pi)))
            for tmu in p.projections():
                worst_forms = max(
                    worst_forms,
                    abs(ssh_eval(p, tmu, x) - ssh_eval_binomial(p, tmu, x)),
                )
        # Full (non-separable) samples at every node: this cross-checks the
        # phi factorization that quantize_quadrature relies on.
        points, weights = SphereGrid.auto(tj, 0, p.phi_period).nodes_and_weights()
        basis = [[ssh_eval(p, tmu, x) for tmu in p.projections()] for x in points]
        gram = 4 * math.pi * weighted_gram(_np.array(basis), _np.array(weights))
        worst_orth = max(worst_orth, float(_np.abs(gram - _np.eye(p.dim)).max()))
    return [
        ("ssh_sum_rule", worst_sum, 1e-11),
        ("ssh_two_closed_forms", worst_forms, 1e-12),
        ("ssh_orthonormality", worst_orth, 1e-11),
    ]


def _check_fock(_: int):
    _, report = fock_demo(8)
    corner_residual = abs(report["qp_corner"] + 8j)
    lowering = 0.0 if report["lowering_exact"] else 1.0
    return [
        ("fock_quadrature_vs_algebraic", report["a_quadrature_max_dev"], 1e-8),
        ("fock_qp_identity_block", report["qp_block_max_dev"], 1e-12),
        ("fock_qp_corner", corner_residual, 1e-12),
        ("fock_lowering_exact", lowering, 0.0),
    ]


def _check_classical(_: int):
    rows = classical_limit_report(0, [2 * j for j in range(1, 9)], 1.0)
    worst = max(abs(r["commutator_norm"] - r["commutator_closed"]) for r in rows)
    increases = 0.0
    for prev, cur in zip(rows, rows[1:]):
        increases = max(
            increases, cur["commutator_norm"] - prev["commutator_norm"]
        )
    return [
        ("classical_commutator_norm", worst, 1e-12),
        ("classical_monotone_decay", max(0.0, increases), 0.0),
    ]


ALL_CHECKS = {
    "identity": _check_identity,
    "cartesian": _check_cartesian,
    "closed-vs-quadrature": _check_closed_vs_quadrature,
    "fuzzy": _check_fuzzy,
    "appendix-b": _check_appendix_b,
    "eigen": _check_eigen,
    "threej": _check_threej,
    "ssh": _check_ssh,
    "fock": _check_fock,
    "classical": _check_classical,
}

SUITES = {
    "default": list(ALL_CHECKS),
    "fock": ["fock"],
    "appendix-b": ["appendix-b"],
}


def run_checks(
    suite: str, two_j_max: int, overrides: dict[str, float] | None = None
) -> list[tuple[str, float, float, bool]]:
    names = SUITES.get(suite)
    if names is None:
        raise ValueError(f"unknown suite {suite!r}; choices: {sorted(SUITES)}")
    results = []
    for name in names:
        for check, residual, tol in ALL_CHECKS[name](two_j_max):
            if overrides and check in overrides:
                tol = overrides[check]
            results.append((check, residual, tol, residual <= tol))
    return results


def _cmd_verify(args) -> int:
    overrides = {}
    for spec_item in args.tol or []:
        name, _, value = spec_item.partition("=")
        overrides[name] = float(value)
    results = run_checks(args.suite, args.two_j_max, overrides)
    failed = 0
    for name, residual, tol, ok in results:
        print(
            f"check={name} residual={residual:.3e} tol={tol:.1e} "
            f"status={'pass' if ok else 'fail'}"
        )
        failed += 0 if ok else 1
    print(
        f"{len(results) - failed}/{len(results)} checks passed"
        + (f", {failed} FAILED" if failed else ""),
        file=sys.stderr,
    )
    return 1 if failed else 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzsphere",
        description="Coherent-state and fuzzy quantizations of the 2-sphere, "
        "with exact angular-momentum machinery.",
        epilog="All spins are passed as twice-values (--two-j 3 means j = 3/2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wigner3j", help="exact 3j-symbol")
    p.add_argument("--two", nargs=6, type=int, required=True,
                   metavar=("2J1", "2J2", "2J3", "2M1", "2M2", "2M3"))
    p.set_defaults(func=_cmd_wigner3j)

    p = sub.add_parser("ssh-eval", help="evaluate a spin spherical harmonic")
    p.add_argument("--two-j", type=int, required=True)
    p.add_argument("--two-sigma", type=int, required=True)
    p.add_argument("--two-mu", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--psi", type=float, default=0.0)
    p.set_defaults(func=_cmd_ssh_eval)

    p = sub.add_parser("lambda", help="print the generator matrices")
    p.add_argument("--two-j", type=int, required=True)
    p.add_argument("--two-sigma", type=int, required=True)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("quantize", help="quantize an observable to a matrix file")
    p.add_argument("observable", nargs="?", choices=["x1", "x2", "x3", "cos_theta"])
    p.add_argument("--ylm", nargs=2, type=int, metavar=("L", "M"))
    p.add_argument("--term", nargs=4, action="append",
                   metavar=("L", "M", "RE", "IM"))
    p.add_argument("--two-j", type=int, required=True)
    p.add_argument("--two-sigma", type=int, required=True)
    p.add_argument("--psi", type=float, default=0.0)
    p.add_argument("--n-theta", type=int)
    p.add_argument("--n-phi", type=int)
    p.add_argument("--output", "-o")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("export", help="convert a matrix file between formats")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("fuzzy-compare", help="quantized vs hatted harmonics")
    p.add_argument("--two-j", type=int, required=True)
    p.add_argument("--two-sigma", type=int, required=True)
    p.add_argument("--radius", "-r", type=float, default=1.0)
    p.add_argument("--ell", type=int)
    p.set_defaults(func=_cmd_fuzzy_compare)

    p = sub.add_parser("classical-limit", help="commutator decay table")
    p.add_argument("--two-sigma-offset", type=int, default=0)
    p.add_argument("--two-j", nargs="+", type=int, required=True)
    p.add_argument("--radius", "-r", type=float, default=1.0)
    p.set_defaults(func=_cmd_classical_limit)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), default="default")
    p.add_argument("--two-j-max", type=int, default=4)
    p.add_argument("--tol", action="append", metavar="CHECK=VALUE",
                   help="override one check tolerance")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
