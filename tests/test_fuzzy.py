"""Fuzzy-sphere construction tests."""

import itertools
import math

import numpy as np
import pytest

from fuzzsphere import fuzzy
from fuzzsphere.csquant import quantize_ylm_closed, superop_action
from fuzzsphere.fuzzy import (
    FuzzyParams,
    Monomial3,
    apply_orbital_generator,
    c_of_ell_closed,
    classical_limit_report,
    empirical_ratios,
    hat_map,
    hat_ylm,
    sym_monomials,
    sym_product,
    ylm_as_polynomial,
)
from fuzzsphere.quad import SpherePoint
from fuzzsphere.ssh import (
    OperatorMatrix,
    SshParams,
    lambda_matrices,
    lambda_plus,
    ssh_eval,
)

FOUR_PI = 4 * math.pi
RNG = np.random.default_rng(123)


# ------------------------------------------------------------ sym_product

def test_sym_product_pair():
    l1, l2, _ = lambda_matrices(SshParams(3, 1))
    s = sym_product([l1, l2])
    want = (l1.entries @ l2.entries + l2.entries @ l1.entries) / 2
    assert np.abs(s.entries - want).max() < 1e-15


def test_sym_product_repeated_factor():
    l1, _, _ = lambda_matrices(SshParams(2, 0))
    assert sym_product([l1, l1]).max_abs_diff(l1 @ l1) == 0.0


def _ordering_average(mats):
    """Average of the product over every ordering of the factors, computed
    the expensive way."""
    dim = mats[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    perms = list(itertools.permutations(range(len(mats))))
    for perm in perms:
        prod = np.eye(dim, dtype=complex)
        for i in perm:
            prod = prod @ mats[i]
        acc += prod
    return acc / len(perms)


def test_sym_product_full_permutation_oracle():
    l1, l2, l3 = lambda_matrices(SshParams(4, 2))
    ops = [l1, l1, l2, l3]
    want = _ordering_average([op.entries for op in ops])
    assert np.abs(sym_product(ops).entries - want).max() < 1e-13


def test_sym_product_generic_matrices_permutation_oracle():
    # Non-generator Hermitian factors; the repeated one comes as two equal
    # but distinct objects, which are grouped by value.
    dim = 4

    def hermitian():
        a = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
        return OperatorMatrix(dim - 1, a + a.conj().T)

    a, b, c = hermitian(), hermitian(), hermitian()
    a_copy = OperatorMatrix(dim - 1, a.entries.copy())
    ops = [a, b, a_copy, c, b]
    want = _ordering_average([op.entries for op in ops])
    got = sym_product(ops).entries
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("tj", [2, 5])
def test_sym_monomial_permutation_oracle(tj):
    lams = [lam.entries for lam in lambda_matrices(SshParams(tj, tj % 2))]
    triples = [e for e in itertools.product(range(7), repeat=3) if sum(e) <= 6]
    syms = sym_monomials(tj, triples)
    assert list(syms) == triples
    assert np.array_equal(syms[0, 0, 0].entries, np.eye(tj + 1))
    for a, b, c in triples[1:]:
        want = _ordering_average([lams[0]] * a + [lams[1]] * b + [lams[2]] * c)
        got = syms[a, b, c].entries
        # Relative to j^n, the norm bound of every ordering's product: some
        # symmetrized monomials vanish, e.g. Sym(L1 L2 L3^3) at spin 1.
        assert np.abs(got - want).max() <= 1e-13 * (tj / 2) ** (a + b + c), (a, b, c)
    # one call per triple fills each box afresh, with the same bytes
    for e in ((6, 0, 0), (1, 2, 3), (0, 0, 0)):
        assert sym_monomials(tj, [e])[e].entries.tobytes() == syms[e].entries.tobytes()


def test_sym_monomial_entries_read_only():
    for m in sym_monomials(4, [(0, 0, 0), (1, 2, 0)]).values():
        with pytest.raises(ValueError):
            m.entries[0, 0] = 1.0
    for bad in ((1, -1, 0), (1, 2), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match="three non-negative ints"):
            sym_monomials(4, [(0, 0, 1), bad])


def test_mutating_sym_product_result_leaves_hat_ylm_unchanged():
    fp = FuzzyParams(4, 2)
    before = hat_ylm(fp, 2, 1).matrix.entries.copy()
    l1, l2, _ = lambda_matrices(fp.ssh_params())
    for ops in ([l1], [l1, l1], [l1, l2]):
        sym_product(ops).entries[:] = 99.0
    hat_ylm(fp, 2, 1).matrix.entries[:] = 7.0
    assert np.array_equal(hat_ylm(fp, 2, 1).matrix.entries, before)


def test_mutating_ylm_polynomial_leaves_later_output_unchanged():
    fp = FuzzyParams(4, 2)
    first = ylm_as_polynomial(3, -2)
    snapshot = list(first)
    hat_before = hat_ylm(fp, 3, -2).matrix.entries.copy()
    first[0] = Monomial3(3, 0, 0, 99.0)
    first.append(Monomial3(0, 0, 1, 5.0))
    second = ylm_as_polynomial(3, -2)
    assert second == snapshot and second is not first
    second.clear()
    with pytest.raises(AttributeError):
        ylm_as_polynomial(3, -2)[0].coefficient = 1.0  # the monomials are frozen
    assert ylm_as_polynomial(3, -2) == snapshot
    assert np.array_equal(hat_ylm(fp, 3, -2).matrix.entries, hat_before)


def test_memo_clear_is_bitwise_neutral():
    # Hatted harmonics from a fresh memo of the ladder powers, then from
    # another fresh memo in the reverse order, agree bit for bit.
    fp = FuzzyParams(6, 2)
    keys = [(ell, m) for ell in (3, 6) for m in range(-ell, ell + 1)]
    fuzzy._ladder_powers.cache_clear()
    first = {k: hat_ylm(fp, *k).matrix.entries.copy() for k in keys}
    fuzzy._ladder_powers.cache_clear()
    again = {k: hat_ylm(fp, *k).matrix.entries for k in reversed(keys)}
    assert all(np.array_equal(first[k], again[k]) for k in keys)
    # the memoized powers are shared, so they cannot be modified
    powers, prefix = fuzzy._ladder_powers(6)
    for arr in (*powers, prefix):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_sym_monomial_fills_only_its_box():
    lams = [lam.entries for lam in lambda_matrices(SshParams(6, 0))]
    memo = {(0, 0, 0): np.eye(7, dtype=complex)}
    fuzzy._sym_fill(lams, (2, 1, 3), memo)
    assert set(memo) == set(itertools.product(range(3), range(2), range(4)))


def test_hat_map_refuses_past_working_range_without_building_table(monkeypatch):
    assert fuzzy.HAT_MAP_MAX_TWO_J == 28

    def refuse(*args, **kwargs):
        raise AssertionError("built a symmetrized monomial past the working range")

    with monkeypatch.context() as patch:
        patch.setattr(fuzzy, "_sym_fill", refuse)
        with pytest.raises(ValueError, match="2j=28"):
            hat_map(FuzzyParams(29, 1), [Monomial3(1, 0, 0, 1.0)])
    # 2j = 28 is inside the range; a degree-0 term needs no products.
    out = hat_map(FuzzyParams(28, 2), [Monomial3(0, 0, 0, 2.0)])
    assert np.array_equal(out.matrix.entries, 2.0 * np.eye(29))


def test_nothing_stays_resident_after_a_hat_map():
    # No module state on the generic hat-map path: once hat_map and
    # criterion 5 return, only the few kB of the cached generators remain.
    import gc
    import tracemalloc

    from fuzzsphere.cli import _check_appendix_b

    tracemalloc.start()
    try:
        hat_map(FuzzyParams(12, 2), ylm_as_polynomial(12, 3))
        _check_appendix_b(0)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 200_000


def test_sym_product_dimension_guard():
    a = OperatorMatrix.identity(2)
    b = OperatorMatrix.identity(4)
    with pytest.raises(ValueError):
        sym_product([a, b])
    with pytest.raises(ValueError):
        sym_product([])


# ---------------------------------------------------------------- hat map

def test_hat_map_coordinate():
    fp = FuzzyParams(2, 2)
    res = hat_map(fp, [Monomial3(0, 0, 1, 1.0)])
    want = lambda_matrices(fp.ssh_params())[2].scaled(fp.kappa)
    assert res.matrix.max_abs_diff(want) == 0.0
    assert res.truncated == ()


def test_hat_map_constant():
    fp = FuzzyParams(2, 2)
    res = hat_map(fp, [Monomial3(0, 0, 0, 2.5)])
    assert res.matrix.max_abs_diff(OperatorMatrix.identity(2).scaled(2.5)) == 0.0


def test_hat_map_radius_squared_casimir():
    # x1^2 + x2^2 + x3^2 hats to kappa^2 j(j+1) Id = r^2 Id.
    for tj, r in ((2, 1.0), (3, 2.5), (5, 0.7)):
        fp = FuzzyParams(tj, tj % 2, radius=r)
        res = hat_map(
            fp,
            [Monomial3(2, 0, 0, 1.0), Monomial3(0, 2, 0, 1.0), Monomial3(0, 0, 2, 1.0)],
        )
        want = OperatorMatrix.identity(tj).scaled(r * r)
        assert res.matrix.max_abs_diff(want) < 1e-13


def test_hat_map_truncation_logged():
    fp = FuzzyParams(2, 2)
    high = Monomial3(3, 0, 0, 1.0)
    res = hat_map(fp, [high, Monomial3(0, 0, 1, 2.0)])
    assert res.truncated == (high,)
    want = lambda_matrices(fp.ssh_params())[2].scaled(2.0 * fp.kappa)
    assert res.matrix.max_abs_diff(want) == 0.0


def test_hat_map_linearity():
    fp = FuzzyParams(4, 2)
    polys = []
    for _ in range(2):
        polys.append(
            [
                Monomial3(
                    int(RNG.integers(0, 3)),
                    int(RNG.integers(0, 2)),
                    int(RNG.integers(0, 2)),
                    complex(RNG.normal(), RNG.normal()),
                )
                for _ in range(3)
            ]
        )
    a, b = 1.7 - 0.3j, -0.6 + 2.1j
    combined = [
        Monomial3(m.alpha, m.beta, m.gamma, a * m.coefficient) for m in polys[0]
    ] + [Monomial3(m.alpha, m.beta, m.gamma, b * m.coefficient) for m in polys[1]]
    lhs = hat_map(fp, combined).matrix
    rhs_arr = (
        a * hat_map(fp, polys[0]).matrix.entries
        + b * hat_map(fp, polys[1]).matrix.entries
    )
    assert np.abs(lhs.entries - rhs_arr).max() < 1e-13


# ------------------------------------------------------- harmonic polynomials

def test_y10_y11_polynomials():
    [p10] = ylm_as_polynomial(1, 0)
    assert (p10.alpha, p10.beta, p10.gamma) == (0, 0, 1)
    assert p10.coefficient == pytest.approx(math.sqrt(3 / FOUR_PI), abs=1e-15)

    p11 = {(m.alpha, m.beta, m.gamma): m.coefficient for m in ylm_as_polynomial(1, 1)}
    c = math.sqrt(3 / FOUR_PI) / math.sqrt(2)
    assert p11[(1, 0, 0)] == pytest.approx(-c, abs=1e-15)
    assert p11[(0, 1, 0)] == pytest.approx(-1j * c, abs=1e-15)


def test_polynomials_restrict_to_harmonics():
    for ell in range(0, 5):
        p0 = SshParams(2 * ell, 0)
        for m in range(-ell, ell + 1):
            poly = ylm_as_polynomial(ell, m)
            assert all(mono.degree == ell for mono in poly)
            for _ in range(4):
                x = SpherePoint(
                    float(RNG.uniform(0, math.pi)), float(RNG.uniform(0, 2 * math.pi))
                )
                v = x.unit_vector()
                val = sum(
                    mono.coefficient
                    * v[0] ** mono.alpha
                    * v[1] ** mono.beta
                    * v[2] ** mono.gamma
                    for mono in poly
                )
                assert abs(val - ssh_eval(p0, 2 * m, x)) < 1e-12


def test_polynomials_are_harmonic():
    # The Laplacian of each expansion vanishes identically.
    def laplacian(poly):
        out = {}
        for mono in poly:
            for k, e in enumerate((mono.alpha, mono.beta, mono.gamma)):
                if e >= 2:
                    key = [mono.alpha, mono.beta, mono.gamma]
                    key[k] -= 2
                    key = tuple(key)
                    out[key] = out.get(key, 0) + e * (e - 1) * mono.coefficient
        return out

    for ell in range(1, 5):
        for m in range(-ell, ell + 1):
            lap = laplacian(ylm_as_polynomial(ell, m))
            assert all(abs(v) < 1e-12 for v in lap.values())


def test_invalid_harmonic_index():
    with pytest.raises(ValueError):
        ylm_as_polynomial(1, 2)


# ---------------------------------------------------------------- hat_ylm

def test_hat_y10():
    fp = FuzzyParams(2, 2)
    res = hat_ylm(fp, 1, 0)
    want = lambda_matrices(fp.ssh_params())[2].scaled(
        math.sqrt(3 / FOUR_PI) * fp.kappa
    )
    assert res.matrix.max_abs_diff(want) < 1e-15


def test_hat_y_ell_ell_ladder_power():
    # Hatted extremal harmonics are proportional to powers of the raising
    # generator: (-1)^ell a(ell) (kappa L+)^ell with
    # a(ell) = sqrt((2 ell + 1)!) / (2^(ell+1) sqrt(pi) ell!).
    for tj, ell in ((4, 1), (4, 2), (6, 3)):
        fp = FuzzyParams(tj, 2)
        a_ell = math.sqrt(math.factorial(2 * ell + 1)) / (
            2 ** (ell + 1) * math.sqrt(math.pi) * math.factorial(ell)
        )
        lp = lambda_plus(fp.ssh_params()).entries * fp.kappa
        want = (-1) ** ell * a_ell * np.linalg.matrix_power(lp, ell)
        got = hat_ylm(fp, ell, ell).matrix.entries
        assert np.abs(got - want).max() < 1e-13


def test_hat_ylm_superop_eigenvalue():
    fp = FuzzyParams(4, 2)
    for ell in range(0, 5):
        for m in range(-ell, ell + 1):
            h = hat_ylm(fp, ell, m).matrix
            assert superop_action(fp.ssh_params(), 3, h).max_abs_diff(
                h.scaled(m)
            ) < 1e-10


def test_hat_ylm_beyond_band():
    fp = FuzzyParams(2, 2)
    res = hat_ylm(fp, 4, 1)
    assert res.matrix.max_abs() == 0.0
    assert len(res.truncated) > 0


def test_hat_ylm_band_matches_hat_map_oracle():
    # The exact band against the generic hat-map of the same polynomial,
    # relative to the largest entry; one degree past the band limit the
    # result is zero with the whole polynomial logged.  Neither reads sigma,
    # so one oracle per (2j, radius, ell, m) serves every sigma.
    for tj in range(1, 9):
        sigmas = [ts for ts in range(-tj, tj + 1, 2) if ts != 0]
        for ell in range(0, tj + 2):
            for m in range(-ell, ell + 1):
                poly = ylm_as_polynomial(ell, m)
                for radius in (1.0, 0.7):
                    if ell <= tj:
                        want = hat_map(FuzzyParams(tj, tj, radius), poly).matrix.entries
                        scale = np.abs(want).max()
                    for ts in sigmas:
                        got = hat_ylm(FuzzyParams(tj, ts, radius), ell, m)
                        if ell > tj:
                            assert got.matrix.max_abs() == 0.0
                            assert got.truncated == tuple(poly)
                            continue
                        assert np.abs(got.matrix.entries - want).max() <= 1e-12 * scale
                        assert got.truncated == ()


def test_hat_ylm_builds_no_symmetrized_monomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hat_ylm reached the generic hat-map")

    for name in ("sym_monomials", "hat_map", "_sym_fill"):
        monkeypatch.setattr(fuzzy, name, refuse)
    fp = FuzzyParams(7, 3)
    for ell in range(0, 9):
        for m in range(-ell, ell + 1):
            hat_ylm(fp, ell, m)
    with pytest.raises(ValueError):
        hat_ylm(fp, 2, 3)


def test_hat_ylm_folds_the_radius_and_rejects_the_float_range():
    unit = hat_ylm(FuzzyParams(8, 2), 8, 3).matrix.entries
    got = hat_ylm(FuzzyParams(8, 2, 2.0), 8, 3).matrix.entries
    assert np.array_equal(got, unit * 2.0**8)
    for radius in (1e-200, 1e200):
        with pytest.raises(ValueError, match="outside the float range"):
            hat_ylm(FuzzyParams(8, 2, radius), 8, 3)


def test_hat_ylm_working_range(monkeypatch):
    top = fuzzy.HAT_YLM_MAX_TWO_J
    try:
        hat = hat_ylm(FuzzyParams(top, 2), top, top).matrix
        assert hat.entries[top, 0] != 0.0
    finally:
        fuzzy._ladder_powers.cache_clear()

    def refuse(two_j):
        raise AssertionError("built the integer powers past the working range")

    monkeypatch.setattr(fuzzy, "_ladder_powers", refuse)
    for ell in (0, top + 1, top + 3):
        with pytest.raises(ValueError, match=f"up to 2j={top}"):
            hat_ylm(FuzzyParams(top + 1, 1), ell, 0)


def _hat_band_reference(fp, ell, m):
    """Band m of hat(Y_lm) from hat_ylm's docstring formula, with A^ell
    and F built here from their definitions: one rounding of the exact Q
    per entry."""
    tj = fp.two_j
    f = [(tj - r) * (r + 1) for r in range(tj)]
    a_mat = np.zeros((tj + 1, tj + 1), dtype=object)
    for r in range(tj + 1):
        a_mat[r, r] = 2 * r - tj
        if r < tj:
            a_mat[r + 1, r] = -1
            a_mat[r, r + 1] = f[r]
    power = np.eye(tj + 1, dtype=object)
    for _ in range(ell):
        power = power.dot(a_mat)
    prefix = [math.prod(f[:r]) for r in range(tj + 1)]
    p, q = float(fp.radius).as_integer_ratio()
    band = []
    for r in range(tj + 1 - abs(m)):
        row, col = r + max(m, 0), r + max(-m, 0)
        a = power[row, col]
        num = math.factorial(ell + m) * math.factorial(ell - m) * a * a * prefix[row]
        den = (tj * (tj + 2)) ** ell * math.factorial(ell) ** 2 * prefix[col]
        value = math.sqrt((2 * ell + 1) / FOUR_PI) * math.sqrt(
            num * p ** (2 * ell) / (den * q ** (2 * ell))
        )
        band.append(-value if a < 0 else value)
    return np.array(band)


def test_hat_ylm_band_bytes():
    for tj in range(1, 9):
        for radius in (1.0, 0.7, 2.0):
            fp = FuzzyParams(tj, tj, radius)
            for ell in range(0, tj + 1):
                for m in range(-ell, ell + 1):
                    got = hat_ylm(fp, ell, m).matrix.entries
                    want = np.diag(_hat_band_reference(fp, ell, m), -m).astype(complex)
                    assert got.tobytes() == want.tobytes(), (tj, radius, ell, m)


# ------------------------------------------------------------- correspondence

def test_fuzzy_correspondence_entrywise():
    for tj in range(1, 6):
        for ts in range(-tj, tj + 1, 2):
            if ts == 0:
                continue
            fp = FuzzyParams(tj, ts)
            sp = fp.ssh_params()
            for ell in range(0, tj + 1):
                c = c_of_ell_closed(fp, ell)
                for m in range(-ell, ell + 1):
                    tilde = quantize_ylm_closed(sp, ell, m)
                    hat = hat_ylm(fp, ell, m).matrix
                    assert tilde.max_abs_diff(hat.scaled(c)) < 1e-9


def _ratios_per_m(fp, ell):
    """Ratio of quantized to hatted harmonic at the largest entry of the
    whole hatted matrix, one hat_ylm call per m: the oracle of the single
    pass in empirical_ratios."""
    out = []
    for m in range(-ell, ell + 1):
        tilde = quantize_ylm_closed(fp.ssh_params(), ell, m).entries
        hat = hat_ylm(fp, ell, m).matrix.entries
        idx = np.unravel_index(np.argmax(np.abs(hat)), hat.shape)
        out.append(complex(tilde[idx] / hat[idx]))
    return out


def test_empirical_ratios_match_the_per_m_oracle():
    cases = [
        (FuzzyParams(tj, ts, radius), ell)
        for tj in range(1, 9)
        for ts in range(-tj, tj + 1, 2)
        if ts != 0
        for radius in (1.0, 0.7)
        for ell in range(0, tj + 1)
    ]
    cases += [(FuzzyParams(40, 2), ell) for ell in (0, 20, 40)]
    for fp, ell in cases:
        assert repr(empirical_ratios(fp, ell)) == repr(_ratios_per_m(fp, ell)), (fp, ell)


@pytest.mark.parametrize("ell", [-1, 5])
def test_empirical_ratios_reject_ell_outside_the_band(ell):
    # Past 2j the hatted harmonic is zero and the ratio would be 0/0.
    with pytest.raises(ValueError, match=f"ell={ell} outside the band limit 2j=4"):
        empirical_ratios(FuzzyParams(4, 2), ell)


def test_empirical_ratio_m_independent():
    for tj, ts in ((4, 2), (5, 3), (3, -1)):
        fp = FuzzyParams(tj, ts)
        for ell in range(0, tj + 1):
            ratios = empirical_ratios(fp, ell)
            assert max(abs(r - ratios[0]) for r in ratios) < 1e-10


def test_c_of_ell_matches_empirical_including_ell0():
    # ell = 0 has no clean printed value; the empirical ratio is the oracle.
    for tj, ts in ((2, 2), (4, 2), (3, 1), (5, -3)):
        fp = FuzzyParams(tj, ts)
        for ell in range(0, tj + 1):
            ratios = empirical_ratios(fp, ell)
            assert c_of_ell_closed(fp, ell) == pytest.approx(
                ratios[0].real, abs=1e-10
            )
            assert abs(ratios[0].imag) < 1e-12


def test_c_of_ell_at_large_spin():
    # One exact radical rounded once: no factor under- or overflows on the
    # way (the float product of factors read -0.0, NaN or divided by zero
    # from 2j = 100 on).
    fp = FuzzyParams(100, 2)
    for ell in (50, 100):
        want = empirical_ratios(fp, ell)[0].real
        assert c_of_ell_closed(fp, ell) == pytest.approx(want, rel=1e-12, abs=0.0)
    for tj in (150, 200, 1000):
        c = c_of_ell_closed(FuzzyParams(tj, 2), tj)
        assert math.isfinite(c) and c != 0.0


@pytest.mark.parametrize(
    "two_j, radius", [(1000, 0.6), (400, 0.1), (400, 10.0)]
)
def test_c_of_ell_past_the_float_range_raises(two_j, radius):
    # The radius is folded into the exact radical.  These values lie above
    # the float range (radius 0.6 and 0.1) or below it (radius 10), and
    # raise instead of reading -inf or failing inside a float power.
    with pytest.raises(ValueError, match="outside the float range"):
        c_of_ell_closed(FuzzyParams(two_j, 2, radius), two_j)


def test_c_of_ell_folds_the_radius_exactly():
    unit = c_of_ell_closed(FuzzyParams(400, 2), 400)
    # a power of two scales the one rounding exactly
    assert c_of_ell_closed(FuzzyParams(400, 2, 2.0), 400) == unit / 2.0**400
    assert c_of_ell_closed(FuzzyParams(400, 2, 0.6), 400) == pytest.approx(
        unit / 0.6**400, rel=1e-14, abs=0.0
    )


def test_fuzzy_comparison_makes_no_exact_lookup():
    from fuzzsphere.cli import _fuzzy_residuals
    from fuzzsphere.wigner import three_j_cache_clear, three_j_cache_info

    three_j_cache_clear()
    _fuzzy_residuals(FuzzyParams(8, 2), range(9))
    assert three_j_cache_info() == (0, 0, 0)


def test_c_of_ell_kappa_scaling():
    # C(ell) carries kappa^(-ell): doubling the radius halves kappa-power.
    fp1 = FuzzyParams(4, 2, radius=1.0)
    fp2 = FuzzyParams(4, 2, radius=2.0)
    for ell in range(0, 5):
        assert c_of_ell_closed(fp2, ell) == pytest.approx(
            c_of_ell_closed(fp1, ell) / 2**ell, rel=1e-12
        )


def test_c_of_ell_rejects_sigma0_and_band():
    with pytest.raises(ValueError, match="sigma = 0"):
        c_of_ell_closed(FuzzyParams(4, 0), 1)
    with pytest.raises(ValueError):
        c_of_ell_closed(FuzzyParams(2, 2), 3)


# -------------------------------------------------- symmetrization lemma

def test_symmetrization_lemma_check_fails_on_a_wrong_orbital_action(monkeypatch):
    from fuzzsphere import cli

    def negated(axis, poly):
        return [
            Monomial3(m.alpha, m.beta, m.gamma, -m.coefficient)
            for m in apply_orbital_generator(axis, poly)
        ]

    monkeypatch.setattr(cli, "apply_orbital_generator", negated)
    [(name, residual, tol)] = cli._check_appendix_b(0)
    assert name == "symmetrized_commutator"
    assert tol == 1e-12 < residual


def test_symmetrization_lemma_check_sees_the_last_case(monkeypatch):
    # Only the image of the last (exponent, axis) case is perturbed.
    from fuzzsphere import cli

    last = max(e for e in itertools.product(range(6), repeat=3) if sum(e) <= 5)

    def perturbed(axis, poly):
        image = apply_orbital_generator(axis, poly)
        if axis == 3 and [(m.alpha, m.beta, m.gamma) for m in poly] == [last]:
            return [Monomial3(m.alpha, m.beta, m.gamma, 1.001 * m.coefficient) for m in image]
        return image

    monkeypatch.setattr(cli, "apply_orbital_generator", perturbed)
    [(_, residual, tol)] = cli._check_appendix_b(0)
    assert tol == 1e-12 < residual


def test_commutation_relations_scaled_generators():
    for tj in (2, 3, 4, 6):
        fp = FuzzyParams(tj, tj % 2 if tj % 2 else 2)
        l1, l2, l3 = lambda_matrices(fp.ssh_params())
        k = fp.kappa
        pairs = [(l1, l2, l3), (l2, l3, l1), (l3, l1, l2)]
        for a, b, c in pairs:
            lhs = a.scaled(k).commutator(b.scaled(k))
            assert lhs.max_abs_diff(c.scaled(1j * k * k)) < 1e-13


def test_superop_intertwines_orbital_action():
    fp = FuzzyParams(4, 2)
    for _ in range(5):
        poly = [
            Monomial3(
                int(RNG.integers(0, 2)),
                int(RNG.integers(0, 2)),
                int(RNG.integers(0, 3)),
                complex(RNG.normal(), RNG.normal()),
            )
            for _ in range(3)
        ]
        poly = [m for m in poly if m.degree <= 4]
        for axis in (1, 2, 3):
            lhs = superop_action(fp.ssh_params(), axis, hat_map(fp, poly).matrix)
            rhs = hat_map(fp, apply_orbital_generator(axis, poly)).matrix
            assert lhs.max_abs_diff(rhs) < 1e-11


def test_joint_eigenspaces_one_dimensional():
    # On the 9-dimensional operator space at 2j = 2 the pair (axis-3
    # action, total action) pins each harmonic label to a single ray.
    p = SshParams(2, 2)
    l1, l2, l3 = lambda_matrices(p)
    dim = 3
    eye = np.eye(dim)

    def superop_matrix(lam):
        return np.kron(lam.entries, eye) - np.kron(eye, lam.entries.T)

    s3 = superop_matrix(l3)
    s_sq = sum(superop_matrix(lam) @ superop_matrix(lam) for lam in (l1, l2, l3))
    for ell in range(0, 3):
        for m in range(-ell, ell + 1):
            stacked = np.vstack([s3 - m * np.eye(9), s_sq - ell * (ell + 1) * np.eye(9)])
            rank = np.linalg.matrix_rank(stacked, tol=1e-10)
            assert 9 - rank == 1, (ell, m)


# --------------------------------------------------------- classical limit

def test_classical_limit_closed_values():
    rows = classical_limit_report(0, [2 * j for j in range(1, 9)], 1.0)
    for row in rows:
        j = row["two_j"] / 2
        assert row["commutator_norm"] == pytest.approx(1 / (j + 1), abs=1e-12)
    norms = [row["commutator_norm"] for row in rows]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert rows[7]["commutator_norm"] / rows[3]["commutator_norm"] == pytest.approx(
        5 / 9, abs=1e-12
    )


def test_classical_limit_spin1_value():
    rows = classical_limit_report(0, [2], 1.0)
    assert rows[0]["commutator_norm"] == pytest.approx(0.5, abs=1e-13)


def test_classical_limit_symbol_deviation_shrinks():
    rows = classical_limit_report(2, [2 * j for j in range(2, 9)], 1.0)
    devs = [row["symbol_deviation"] for row in rows]
    # closed value sigma (j - sigma) / (j (j+1)) with sigma = j - 1
    for row, dev in zip(rows, devs):
        j = row["two_j"] / 2
        sigma = row["two_sigma"] / 2
        want = sigma * (j - sigma) / (j * (j + 1))
        assert dev == pytest.approx(want, abs=1e-12)
    assert devs[-1] < devs[0]


def test_classical_limit_symbols_match_coherent_states():
    # The ring-sampled symbols agree with <x| K Lambda_3 |x> from coherent
    # states, at the pole and across the meridian.
    from fuzzsphere.csquant import cartesian_factor, lower_symbol

    for offset, tj in ((0, 6), (2, 7), (4, 12)):
        row = classical_limit_report(offset, [tj], 1.0)[0]
        p = SshParams(tj, tj - offset)
        x3 = lambda_matrices(p)[2].scaled(cartesian_factor(p))
        target = ((tj - offset) / 2) / (tj / 2 + 1)
        dev = max(
            abs(lower_symbol(p, x3, SpherePoint(float(t), 0.0)).real - target * math.cos(t))
            for t in np.linspace(0.0, math.pi, 181)
        )
        assert abs(row["symbol_deviation"] - dev) < 1e-15
    # sigma = j: the symbol is exactly (sigma / (j + 1)) cos(theta) up to rounding
    assert all(
        row["symbol_deviation"] < 4e-15
        for row in classical_limit_report(0, list(range(2, 17, 2)), 1.0)
    )


def test_classical_limit_validation():
    with pytest.raises(ValueError):
        classical_limit_report(1, [2], 1.0)  # non-integer offset
    with pytest.raises(ValueError):
        classical_limit_report(0, [0], 1.0)  # sigma = 0
    with pytest.raises(ValueError):
        FuzzyParams(2, 2, radius=-1.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0])
def test_hat_map_refuses_a_radius_that_is_not_positive_and_finite(radius):
    # At radius inf, kappa is inf and the hatted entries read inf or nan.
    with pytest.raises(ValueError, match="radius"):
        hat_map(FuzzyParams(4, 2, radius), ylm_as_polynomial(2, 1))
