"""Command-line front end: evaluation, quantization, export, verification.

Reports are line-oriented key=value on stdout for scripting; human-oriented
summaries go to stderr.  Identical invocations produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import itertools
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from .csquant import (
    HarmonicExpansion,
    cartesian_factor,
    fock_demo,
    quantize_expansion,
    quantize_quadrature,
    quantize_samples,
    quantize_ylm_closed,
)
from .fuzzy import (
    FuzzyParams,
    Monomial3,
    apply_orbital_generator,
    c_of_ell_closed,
    classical_limit_report,
    empirical_ratios,
    sym_monomials,
)
from .quad import SphereGrid, SpherePoint
from .ssh import OperatorMatrix, SshParams, lambda_matrices, ssh_eval, ssh_rings
from .wigner import three_j_cache_info, three_j_twice

__all__ = ["main", "save_matrix", "load_matrix", "run_checks", "ALL_CHECKS"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}j"


# ---------------------------------------------------------------------------
# matrix files

_CSV_HEADER = "row,col,re,im"
_CSV_META = re.compile(r"#\s*two_j=(\d+)\s+two_sigma=(-?\d+)")


def save_matrix(m: OperatorMatrix, path: Path, fmt: str, two_sigma: int = 0) -> None:
    """Write a matrix with 17-significant-digit fields, fixed layout.

    Both formats carry two_j and two_sigma; csv puts them on a leading
    ``# two_j=.. two_sigma=..`` line above the ``row,col,re,im`` table.
    A pair that names no spin family, or a non-finite entry, raises
    ValueError before anything is written, as on reading.
    """
    SshParams(m.two_j, two_sigma)
    if not np.isfinite(m.entries).all():
        raise ValueError(f"refusing to write a non-finite entry to {path}")
    dim = m.two_j + 1
    # Row-major entries as Python floats, so formatting skips numpy scalars.
    pairs = zip(m.entries.real.ravel().tolist(), m.entries.imag.ravel().tolist())
    if fmt == "json":
        rows = [f"[{_fmt(x)}, {_fmt(y)}]" for x, y in pairs]
        text = (
            "{"
            + f'"two_j": {m.two_j}, "two_sigma": {two_sigma}, "rows": {dim}, '
            + '"entries": [' + ", ".join(rows) + "]}"
        )
        path.write_text(text + "\n")
    elif fmt == "csv":
        lines = [f"# two_j={m.two_j} two_sigma={two_sigma}", _CSV_HEADER]
        lines += [
            f"{k // dim},{k % dim},{_fmt(x)},{_fmt(y)}" for k, (x, y) in enumerate(pairs)
        ]
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def load_matrix(path: Path) -> tuple[OperatorMatrix, int]:
    """Read a matrix file (json or csv by content); returns (matrix, two_sigma).

    Malformed files raise ValueError: a shape that disagrees with two_j, a
    csv cell that is missing, repeated or out of range, a (two_j, two_sigma)
    pair that :class:`SshParams` refuses, or a non-finite entry.
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
        return _checked_matrix(path, two_j, two_sigma, np.array(values).reshape(dim, dim))

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
    return _checked_matrix(path, two_j, two_sigma, arr)


def _checked_matrix(
    path: Path, two_j: int, two_sigma: int, arr: np.ndarray
) -> tuple[OperatorMatrix, int]:
    """The file's matrix and two_sigma, once the labels name a spin family
    and every entry is finite."""
    try:
        SshParams(two_j, two_sigma)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        raise ValueError(f"{path}: non-finite entry at cell {tuple(bad[0].tolist())}")
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
    params = SshParams(args.two_j, args.two_sigma, args.psi)
    expansion, builtin = _parse_expansion(args)
    ell_max = max((ell for ell, _ in expansion.terms), default=0)
    auto = SphereGrid.auto(args.two_j, max(args.two_j, ell_max), params.phi_period)
    grid = SphereGrid(
        auto.n_theta if args.n_theta is None else args.n_theta,
        auto.n_phi if args.n_phi is None else args.n_phi,
        params.phi_period,
    )

    closed = quantize_expansion(params, expansion)
    raw = quantize_quadrature(params, expansion.evaluate, grid, hermitize=False)
    residual = raw.hermiticity_residual()
    print(f"hermiticity_residual={residual:.17g}")
    for ell, m, coeff in closed.truncated:
        print(f"truncated=ell:{ell},m:{m},coeff:{_fmt_complex(complex(coeff))}")

    degenerate = builtin is not None and args.two_sigma == 0
    # symmetrize only genuinely Hermitian results (real observables)
    matrix = raw.hermitized() if residual < 1e-12 else raw
    if degenerate:
        print("degenerate: quantization vanishes", file=sys.stderr)
        print(f"degenerate_max_abs={raw.max_abs():.17g}")
        matrix = OperatorMatrix.zeros(args.two_j)
    elif builtin is not None:
        lam = {"x1": 0, "x2": 1, "x3": 2, "cos_theta": 2}[builtin]
        target = lambda_matrices(params)[lam].scaled(cartesian_factor(params))
        print(f"deviation_from_k_lambda={matrix.max_abs_diff(target):.17g}")
    print(f"closed_form_deviation={matrix.max_abs_diff(closed.matrix):.17g}")

    if args.output:
        save_matrix(matrix, Path(args.output), args.format, args.two_sigma)
        print(f"wrote={args.output}")
    return 0


def _cmd_export(args) -> int:
    matrix, two_sigma = load_matrix(Path(args.input))
    save_matrix(matrix, Path(args.output), args.format, two_sigma)
    print(f"wrote={args.output}")
    return 0


def _cmd_fuzzy_compare(args) -> int:
    fp = FuzzyParams(args.two_j, args.two_sigma, args.radius)
    ells = [args.ell] if args.ell is not None else list(range(0, args.two_j + 1))
    rows: list[tuple] = []
    # The verify check `fuzzy` runs the same residuals and tolerances.
    residuals = _fuzzy_residuals(fp, ells, rows)
    for ell, closed, ratio, spread, dev in rows:
        print(
            f"ell={ell} c_closed={closed:.12g} ratio={ratio.real:.12g} "
            f"spread={spread:.3e} closed_dev={dev:.3e}"
        )
    return 0 if all(residual <= tol for _, residual, tol in residuals) else 1


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
#
# ALL_CHECKS is the only implementation of the ten acceptance criteria:
# `fuzzsphere verify` runs it at --two-j-max, and tests/test_acceptance.py
# runs each check at that criterion's own scale.  A check maps two_j_max to
# a list of (residual name, residual, tolerance).

# Each check's residuals in report order (so that tolerance overrides are
# validated before anything runs), with the spins each one covers: None
# covers every 2j up to --two-j-max, an int caps that range, a range is
# covered whatever --two-j-max says, and "-" marks a residual without spin.
# `verify` prints the largest 2j a residual covered as two_j_max=.
_CHECK_NAMES = {
    "identity": (("identity_resolution", None),),
    "cartesian": (("cartesian_identification", None), ("cartesian_degenerate_zero", None)),
    "closed-vs-quadrature": (("closed_vs_quadrature", None),),
    "fuzzy": (("fuzzy_ratio_spread", None), ("fuzzy_closed_match", None)),
    "appendix-b": (("symmetrized_commutator", range(2, 5)),),
    "eigen": (("ladder_eigen_l3", 4), ("ladder_eigen_l_squared", 4)),
    "threej": (("threej_orthogonality_exact", range(0, 5)),
               ("threej_symmetry_exact", range(0, 5))),
    # The oracle wigner_D_sum loses precision to cancellation.  Over this
    # check's own points it is off from ssh_eval by 1.9e-13 at 2j=24,
    # 4.8e-13 at 26, 1.4e-12 at 30 and 3.2e-12 at 32 (tolerance 1e-12).
    "ssh": (("ssh_sum_rule", None), ("ssh_two_closed_forms", 24),
            ("ssh_orthonormality", None)),
    "fock": (("fock_quadrature_vs_algebraic", "-"), ("fock_qp_identity_block", "-"),
             ("fock_qp_corner", "-"), ("fock_lowering_exact", "-")),
    "classical": (("classical_commutator_norm", range(2, 17, 2)),
                  ("classical_monotone_decay", range(2, 17, 2))),
}
_SPANS = {name: span for rows in _CHECK_NAMES.values() for name, span in rows}


def _reach(name: str, two_j_max: int) -> int | str:
    """Largest 2j the residual ``name`` covers when asked for ``two_j_max``."""
    span = _SPANS[name]
    if span is None:
        return two_j_max
    if isinstance(span, int):
        return min(two_j_max, span)
    if isinstance(span, range):
        return span[-1]
    return span


def _spin_pairs(two_j_max: int):
    for tj in range(0, two_j_max + 1):
        for ts in range(-tj, tj + 1, 2):
            yield tj, ts


def _worst_of(cases):
    """Merge per-case residual lists of one shape, keeping the worst of each."""
    return [
        (rows[0][0], max(row[1] for row in rows), rows[0][2]) for rows in zip(*cases)
    ]


def _check_identity(two_j_max: int):
    worst = 0.0
    for tj, ts in _spin_pairs(two_j_max):
        p = SshParams(tj, ts)
        grid = SphereGrid.auto(tj, 0, p.phi_period)
        a = quantize_quadrature(p, lambda theta, phi: 1.0, grid)
        worst = max(worst, a.max_abs_diff(OperatorMatrix.identity(tj)))
    return [("identity_resolution", worst, 1e-12)]


def _check_cartesian(two_j_max: int):
    worst = 0.0
    worst_zero = 0.0
    for tj, ts in _spin_pairs(two_j_max):
        if tj == 0:
            continue
        p = SshParams(tj, ts)
        grid = SphereGrid.auto(tj, 1, p.phi_period)
        theta, phi = grid.rings().theta[:, None], grid.rings().phi
        coords = np.broadcast_arrays(
            np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)
        )
        mats = quantize_samples(p, np.stack(coords), grid)
        if ts == 0:
            worst_zero = max(worst_zero, float(np.max(np.abs(mats))))
        else:
            lams = np.stack([lam.entries for lam in lambda_matrices(p)])
            k = cartesian_factor(p)
            worst = max(worst, float(np.max(np.abs(mats - k * lams))))
    return [
        ("cartesian_identification", worst, 1e-11),
        ("cartesian_degenerate_zero", worst_zero, 1e-12),
    ]


def _degree_samples(ell: int, rings) -> np.ndarray:
    """Y_ell_m on every node of a grid, stacked over m = -ell..ell, with the
    bytes of ``HarmonicExpansion({(ell, m): 1.0}).evaluate``: one
    :func:`ssh_rings` call for the degree, times exp(i m phi); the added
    zero turns -0.0 into 0.0 as that sum does."""
    ring = ssh_rings(SshParams(2 * ell, 0), rings.theta).T[:, :, None]
    waves = np.exp(1j * np.arange(-ell, ell + 1)[:, None, None] * rings.phi)
    return 0.0 + ring * waves


def _check_closed_vs_quadrature(two_j_max: int):
    worst = 0.0
    for tj, ts in _spin_pairs(two_j_max):
        p = SshParams(tj, ts)
        grid = SphereGrid.auto(tj, tj, p.phi_period)
        for ell in range(0, tj + 1):
            # one stack per degree: 2 ell + 1 integrands, one Gram reduction
            samples = _degree_samples(ell, grid.rings())
            quad = quantize_samples(p, samples, grid, hermitize=False)
            closed = np.stack(
                [quantize_ylm_closed(p, ell, m).entries for m in range(-ell, ell + 1)]
            )
            worst = max(worst, float(np.max(np.abs(closed - quad))))
    return [("closed_vs_quadrature", worst, 1e-10)]


def _fuzzy_residuals(fp: FuzzyParams, ells, rows: list | None = None):
    """Worst m-spread of the quantized/hatted ratio over ``ells``, and worst
    distance of a ratio from the closed-form constant c(ell), both divided
    by max(1, |c(ell)|): relative where |c(ell)| grows with 2j, absolute
    where c(ell) vanishes.  ``rows``, if given, receives (ell, closed
    constant, first ratio, spread, distance) per ell, scaled alike."""
    spread_worst = 0.0
    closed_worst = 0.0
    for ell in ells:
        ratios = empirical_ratios(fp, ell)
        closed = c_of_ell_closed(fp, ell)
        scale = max(1.0, abs(closed))
        spread = max(abs(r - ratios[0]) for r in ratios) / scale
        dev = max(abs(r - closed) for r in ratios) / scale
        if rows is not None:
            rows.append((ell, closed, ratios[0], spread, dev))
        spread_worst = max(spread_worst, spread)
        closed_worst = max(closed_worst, dev)
    return [
        ("fuzzy_ratio_spread", spread_worst, 1e-13),
        ("fuzzy_closed_match", closed_worst, 1e-13),
    ]


def _check_fuzzy(two_j_max: int):
    return _worst_of(
        _fuzzy_residuals(FuzzyParams(tj, ts), range(0, tj + 1))
        for tj, ts in _spin_pairs(two_j_max)
        if ts != 0 and tj != 0
    )


def _check_appendix_b(_: int):
    # [Lambda_a, Sym(P)] = Sym(L_a P) for each generator monomial P, with
    # L_a P from the polynomial-level orbital action, which is spin-free:
    # coeffs[a, p, q] is the coefficient of monomial q in L_a (monomial p).
    # L_a P has the degree of P, so the monomials P cover every image too.
    expos = [e for e in itertools.product(range(6), repeat=3) if 0 < sum(e) <= 5]
    index = {e: q for q, e in enumerate(expos)}
    coeffs = np.zeros((3, len(expos), len(expos)), dtype=complex)
    for p, expo in enumerate(expos):
        for axis in (1, 2, 3):
            for mono in apply_orbital_generator(axis, [Monomial3(*expo, 1.0)]):
                q = index[mono.alpha, mono.beta, mono.gamma]
                coeffs[axis - 1, p, q] = mono.coefficient
    worst = 0.0
    for tjr in _SPANS["symmetrized_commutator"]:
        lams = np.stack([lam.entries for lam in lambda_matrices(SshParams(tjr, tjr % 2))])
        syms = sym_monomials(tjr, expos)
        stack = np.stack([syms[e].entries for e in expos])
        # An image has at most two terms, so any summation order gives the
        # same bytes.
        shifted = np.einsum("apq,qij->apij", coeffs, stack, optimize=False)
        comm = lams[:, None] @ stack - stack @ lams[:, None]
        # Frobenius norms with the bytes of np.linalg.norm: a dot product
        # of the real parts plus one of the imaginary parts, per matrix.
        diff = (shifted - comm).reshape(-1, 1, (tjr + 1) ** 2)
        sq = sum(part @ part.transpose(0, 2, 1) for part in (diff.real, diff.imag))
        worst = max(worst, float(np.sqrt(sq).max()))
    return [("symmetrized_commutator", worst, 1e-12)]


def _check_eigen(two_j_max: int):
    worst3 = 0.0
    worst_sq = 0.0

    def adjoint(lam, x):
        # [Lambda_a, x] for every matrix of the stack x at once
        return lam @ x - x @ lam

    for tj, ts in _spin_pairs(_reach("ladder_eigen_l3", two_j_max)):
        p = SshParams(tj, ts)
        harmonics = [(ell, m) for ell in range(0, tj + 1) for m in range(-ell, ell + 1)]
        t = np.stack([quantize_ylm_closed(p, ell, m).entries for ell, m in harmonics])
        ell, m = (np.array(col)[:, None, None] for col in zip(*harmonics))
        lams = [lam.entries for lam in lambda_matrices(p)]
        worst3 = max(worst3, float(np.max(np.abs(adjoint(lams[2], t) - m * t))))
        lsq = sum(adjoint(lam, adjoint(lam, t)) for lam in lams)
        worst_sq = max(worst_sq, float(np.max(np.abs(lsq - ell * (ell + 1) * t))))
    return [
        ("ladder_eigen_l3", worst3, 1e-9),
        ("ladder_eigen_l_squared", worst_sq, 1e-9),
    ]


def _check_threej(_: int):
    spins = _SPANS["threej_orthogonality_exact"]
    worst_orth = 0.0
    broken = 0
    for tj1 in spins:
        for tj2 in spins:
            for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                if tj3 not in spins:
                    continue
                sign = -1 if (tj1 + tj2 + tj3) // 2 % 2 else 1
                for tm3 in range(-tj3, tj3 + 1, 2):
                    # the sum of (2 j3 + 1) coeff^2 radicand as num / den
                    num, den = 0, 1
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        tm2 = -tm1 - tm3
                        if abs(tm2) > tj2:
                            continue
                        val = three_j_twice(tj1, tj2, tj3, tm1, tm2, tm3)
                        want = (val.coeff.numerator, val.coeff.denominator, val.radicand)
                        n, d, free = want
                        lcm = math.lcm(den, d * d)
                        num = num * (lcm // den) + (tj3 + 1) * n * n * free * (lcm // (d * d))
                        den = lcm
                        # cyclic, swap and m-negation symmetries, compared
                        # exactly on the normalized (numerator, denominator,
                        # radicand)
                        for image, s in (
                            (three_j_twice(tj2, tj3, tj1, tm2, tm3, tm1), 1),
                            (three_j_twice(tj2, tj1, tj3, tm2, tm1, tm3), sign),
                            (three_j_twice(tj1, tj2, tj3, -tm1, -tm2, -tm3), sign),
                        ):
                            c = image.coeff
                            broken += (s * c.numerator, c.denominator, image.radicand) != want
                    # the exact |sum - 1|, rounded once
                    worst_orth = max(worst_orth, abs(num - den) / den)
    return [
        ("threej_orthogonality_exact", worst_orth, 0.0),
        ("threej_symmetry_exact", float(broken), 0.0),
    ]


def _ssh_pointwise(p: SshParams, rng):
    """Sum rule and the explicit-sum oracle of one (2j, 2sigma) at 100
    random points; past the oracle's range (``_CHECK_NAMES``) only the sum
    rule is checked and the oracle residual reads 0."""
    from .ssh import half_power_of_minus_one
    from .wigner import Su2Element, wigner_D_sum

    # (theta, phi) per point, drawn in that order
    points = rng.uniform((0.0, 0.0), (math.pi, p.phi_period), size=(100, 2))
    twice_mu = np.arange(-p.two_j, p.two_j + 1, 2)
    values = ssh_rings(p, points[:, 0]) * np.exp(0.5j * points[:, 1:] * twice_mu)
    total = np.sum(np.abs(values) ** 2, axis=1)
    worst_sum = float(np.max(np.abs(total - (p.two_j + 1) / (4 * math.pi))))
    worst_forms = 0.0
    if p.two_j <= _SPANS["ssh_two_closed_forms"]:
        # The same harmonics from the explicit-sum D entries (psi = 0), one
        # oracle call per mu over all the points.
        norm = half_power_of_minus_one(p.two_sigma) * math.sqrt((p.two_j + 1) / (4 * math.pi))
        xi = Su2Element(points[:, 0] / 2, 0.0, math.pi / 2)
        oracle = np.stack(
            [wigner_D_sum(p.two_j, tmu, p.two_sigma, xi) for tmu in twice_mu.tolist()], axis=1
        )
        phases = np.exp(0.5j * points[:, 1:] * twice_mu)
        worst_forms = float(np.max(np.abs(values - norm * phases * oracle)))
    return [
        ("ssh_sum_rule", worst_sum, 1e-11),
        ("ssh_two_closed_forms", worst_forms, 1e-12),
    ]


def _check_ssh(two_j_max: int):
    from .quad import weighted_gram

    rng = np.random.default_rng(2024)
    params = [SshParams(tj, ts) for tj, ts in _spin_pairs(two_j_max)]
    pointwise = _worst_of([_ssh_pointwise(p, rng) for p in params])
    worst_orth = 0.0
    for p in params:
        # Full (non-separable) samples at every node, ring-major as in
        # SphereGrid.nodes_and_weights: this cross-checks the phi
        # factorization that quantize_quadrature relies on.
        rings = SphereGrid.auto(p.two_j, 0, p.phi_period).rings()
        twice_mu = np.arange(-p.two_j, p.two_j + 1, 2)
        phases = np.exp(0.5j * rings.phi[:, None] * twice_mu)
        basis = (ssh_rings(p, rings.theta)[:, None, :] * phases).reshape(-1, p.dim)
        weights = np.repeat(rings.weight, len(rings.phi))
        gram = 4 * math.pi * weighted_gram(basis, weights)
        worst_orth = max(worst_orth, float(np.abs(gram - np.eye(p.dim)).max()))
    return pointwise + [("ssh_orthonormality", worst_orth, 1e-11)]


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
    rows = classical_limit_report(0, list(_SPANS["classical_commutator_norm"]), 1.0)
    norms = [row["commutator_norm"] for row in rows]
    # ||[x1, x2]|| = r^2 / (j + 1) at radius r = 1
    worst = max(abs(n - 1 / (row["two_j"] / 2 + 1)) for row, n in zip(rows, norms))
    not_decaying = sum(b >= a for a, b in zip(norms, norms[1:]))
    return [
        ("classical_commutator_norm", worst, 1e-12),
        ("classical_monotone_decay", float(not_decaying), 0.0),
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


def _suite_checks(suite: str) -> list[str]:
    """Names of the residuals a suite reports, in order."""
    names = SUITES.get(suite)
    if names is None:
        raise ValueError(f"unknown suite {suite!r}; choices: {sorted(SUITES)}")
    return [check for name in names for check, _ in _CHECK_NAMES[name]]


def run_checks(
    suite: str,
    two_j_max: int,
    overrides: dict[str, float] | None = None,
    wall_times: dict[str, float] | None = None,
) -> list[tuple[str, float, float, bool]]:
    """Run a suite; ``overrides`` replaces the tolerance of named residuals,
    and a name the suite does not report raises ValueError.  ``wall_times``,
    if given, receives the wall time in seconds of each battery entry run."""
    valid = _suite_checks(suite)
    # Below 1 the spin loops are empty and every residual would read 0.
    if two_j_max < 1:
        raise ValueError(f"--two-j-max must be at least 1, got {two_j_max}")
    unknown = sorted(set(overrides or ()) - set(valid))
    if unknown:
        raise ValueError(
            f"no check named {', '.join(unknown)} in suite {suite!r}; "
            f"valid checks: {', '.join(valid)}"
        )
    results = []
    for name in SUITES[suite]:
        start = time.perf_counter()
        rows = ALL_CHECKS[name](two_j_max)
        if wall_times is not None:
            wall_times[name] = time.perf_counter() - start
        for check, residual, tol in rows:
            if overrides and check in overrides:
                tol = overrides[check]
            results.append((check, residual, tol, residual <= tol))
    return results


def _cmd_verify(args) -> int:
    overrides = {}
    for spec_item in args.tol or []:
        name, _, value = spec_item.partition("=")
        if not value:
            valid = ", ".join(_suite_checks(args.suite))
            raise ValueError(f"--tol {spec_item!r} is not CHECK=VALUE; valid checks: {valid}")
        overrides[name] = float(value)
    wall_times: dict[str, float] = {}
    results = run_checks(args.suite, args.two_j_max, overrides, wall_times)
    # Timings vary from run to run, so they go to stderr: stdout stays
    # byte-identical.
    for name, seconds in wall_times.items():
        print(f"check={name} wall_s={seconds:.3f}", file=sys.stderr)
    failed = 0
    for name, residual, tol, ok in results:
        print(
            f"check={name} residual={residual:.3e} tol={tol:.1e} "
            f"status={'pass' if ok else 'fail'} two_j_max={_reach(name, args.two_j_max)}"
        )
        failed += 0 if ok else 1
    cache = three_j_cache_info()
    print(
        f"{len(results) - failed}/{len(results)} checks passed"
        + (f", {failed} FAILED" if failed else "")
        + f"; 3j cache {cache.entries} entries, {cache.hits} hits, {cache.misses} misses",
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
