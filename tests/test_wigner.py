"""Exact 3j-symbols and SU(2) matrix tests."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fuzzsphere.algebra import HalfInt, parity_sign, radical
from fuzzsphere.wigner import (
    D_MATRIX_MAX_TWO_J,
    Su2Element,
    ThreeJCacheInfo,
    ThreeJKey,
    rodrigues_matrix,
    so3_matrix,
    su2_from_rotation,
    three_j,
    three_j_cache_info,
    three_j_twice,
    wigner_D,
    wigner_D_columns,
    wigner_D_matrix,
    wigner_D_sum,
)


def random_element(rng) -> Su2Element:
    return Su2Element(
        float(rng.uniform(0.05, math.pi / 2 - 0.05)),
        float(rng.uniform(0, 2 * math.pi)),
        float(rng.uniform(0, 2 * math.pi)),
    )


# ----------------------------------------------------------------- 3j values

def test_three_j_110_000():
    v = three_j_twice(2, 2, 0, 0, 0, 0)
    assert v == radical(Fraction(-1, 3), 3)
    assert v.to_float() == pytest.approx(-0.5773502691896258, abs=1e-15)


def test_three_j_111_000_vanishes():
    # The alternating sum cancels; odd column swap maps the key to itself
    # with sign (-1)^3, forcing zero.
    assert three_j_twice(2, 2, 2, 0, 0, 0).is_zero()


def test_three_j_selection_rules():
    assert not three_j_twice(2, 2, 4, 2, -2, 0).is_zero()
    assert three_j_twice(2, 2, 4, 2, 0, 0).is_zero()  # m-sum 1
    assert three_j_twice(2, 2, 6, 0, 0, 0).is_zero()  # triangle fails
    assert three_j_twice(2, 2, 4, 4, -2, -2).is_zero()  # |m1| > j1
    # a half-integer total spin cannot satisfy the m-sum rule, so any such
    # key is already zero through it
    assert three_j_twice(1, 2, 2, 1, 0, 0).is_zero()


def test_three_j_negative_spin_rejected():
    with pytest.raises(ValueError):
        three_j_twice(-2, 2, 0, 0, 0, 0)


def test_three_j_key_parity_enforced():
    with pytest.raises(ValueError):
        ThreeJKey.from_twice(2, 2, 0, 1, -1, 0)


def test_three_j_keyed_entry_point():
    key = ThreeJKey(
        HalfInt(2), HalfInt(2), HalfInt(4), HalfInt(2), HalfInt(-2), HalfInt(0)
    )
    assert three_j(key) == radical(Fraction(1, 30), 30)


def test_three_j_against_independent_sum_oracle():
    # Racah-formula oracle built directly from floating factorials.
    def oracle(tj1, tj2, tj3, tm1, tm2, tm3):
        f = math.factorial
        j1, j2, j3 = tj1 / 2, tj2 / 2, tj3 / 2
        m1, m2, m3 = tm1 / 2, tm2 / 2, tm3 / 2
        if tm1 + tm2 + tm3 != 0:
            return 0.0
        pref = math.sqrt(
            f(int(j1 + j2 - j3)) * f(int(j1 - j2 + j3)) * f(int(-j1 + j2 + j3))
            / f(int(j1 + j2 + j3 + 1))
            * f(int(j1 + m1)) * f(int(j1 - m1)) * f(int(j2 + m2)) * f(int(j2 - m2))
            * f(int(j3 + m3)) * f(int(j3 - m3))
        )
        total = 0.0
        for s in range(0, int(j1 + j2 + j3) + 1):
            args = [
                s,
                int(j2 + m2) - s,
                int(j1 - m1) - s,
                int(j3 - j2 + m1) + s,
                int(j3 - j1 - m2) + s,
                int(j1 + j2 - j3) - s,
            ]
            if any(a < 0 for a in args):
                continue
            den = 1
            for a in args:
                den *= f(a)
            total += (-1) ** s / den
        return (-1) ** int(j1 - j2 - m3) * pref * total

    for tjs in [(2, 2, 4), (3, 1, 2), (4, 4, 4), (3, 3, 2), (4, 2, 2)]:
        tj1, tj2, tj3 = tjs
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tm3 = -tm1 - tm2
                if abs(tm3) > tj3:
                    continue
                got = three_j_twice(tj1, tj2, tj3, tm1, tm2, tm3).to_float()
                assert got == pytest.approx(
                    oracle(tj1, tj2, tj3, tm1, tm2, tm3), abs=1e-13
                )


def test_three_j_symmetries_exact_up_to_j2():
    for tj1 in range(0, 5):
        for tj2 in range(0, 5):
            for tj3 in range(abs(tj1 - tj2), min(4, tj1 + tj2) + 1, 2):
                sign = -1 if ((tj1 + tj2 + tj3) // 2) % 2 else 1
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        tm3 = -tm1 - tm2
                        if abs(tm3) > tj3:
                            continue
                        v = three_j_twice(tj1, tj2, tj3, tm1, tm2, tm3)
                        assert three_j_twice(tj2, tj3, tj1, tm2, tm3, tm1) == v
                        assert three_j_twice(tj3, tj1, tj2, tm3, tm1, tm2) == v
                        swapped = three_j_twice(tj2, tj1, tj3, tm2, tm1, tm3)
                        assert swapped.scaled(sign) == v
                        negated = three_j_twice(tj1, tj2, tj3, -tm1, -tm2, -tm3)
                        assert negated.scaled(sign) == v


def test_racah_kernel_symmetries_up_to_2j_6():
    # All 12 images of every symbol, straight from the Racah kernel.
    from fuzzsphere import wigner as _w

    evaluations = 0
    for tjs in itertools.product(range(7), repeat=3):
        tj1, tj2, tj3 = tjs
        if sum(tjs) % 2 or not abs(tj1 - tj2) <= tj3 <= tj1 + tj2:
            continue
        sign = parity_sign(sum(tjs) // 2)
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tm3 = -tm1 - tm2
                if abs(tm3) > tj3:
                    continue
                cols = ((tj1, tm1), (tj2, tm2), (tj3, tm3))
                num, den, free = _w._three_j_parts(cols)
                for perm in itertools.permutations(range(3)):
                    # the odd permutations, the swaps, fix exactly one column
                    odd_perm = sum(i == p for i, p in enumerate(perm)) == 1
                    for flip in (1, -1):
                        image = tuple((cols[i][0], flip * cols[i][1]) for i in perm)
                        n, d, f = _w._three_j_parts(image)
                        want = num * sign if odd_perm != (flip == -1) else num
                        assert (Fraction(n, d), f) == (Fraction(want, den), free), image
                        evaluations += 1
    assert evaluations == 16_608


def test_threej_check_catches_a_sign_fault_in_the_kernel(monkeypatch):
    # A kernel that flips the sign whenever the first column's spin exceeds
    # the second's breaks the swap symmetry but no squared value.
    from fuzzsphere import cli
    from fuzzsphere import wigner as _w

    kernel = _w._three_j_parts

    def faulty(cols):
        num, den, free = kernel(cols)
        return (-num if cols[0][0] > cols[1][0] else num), den, free

    _w.three_j_cache_clear()
    monkeypatch.setattr(_w, "_three_j_parts", faulty)
    try:
        residuals = {name: r for name, r, _tol in cli._check_threej(4)}
    finally:
        _w.three_j_cache_clear()
    assert residuals["threej_symmetry_exact"] > 0
    assert residuals["threej_orthogonality_exact"] == 0


def test_three_j_cache_thread_safety():
    import threading

    from fuzzsphere import wigner as _w

    _w._CACHE.clear()
    results = {}

    def worker(tag):
        acc = []
        for tm1 in range(-4, 5, 2):
            for tm2 in range(-4, 5, 2):
                tm3 = -tm1 - tm2
                if abs(tm3) > 4:
                    continue
                acc.append(three_j_twice(4, 4, 4, tm1, tm2, tm3))
        results[tag] = acc

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    baseline = results[0]
    for tag in range(1, 8):
        assert results[tag] == baseline


def test_factorial_table_and_cache_thread_safety():
    # Cold factorial-parity table and cold cache, filled by racing threads
    # switching often; a lost table entry breaks the values.  The hit and
    # miss counts may drift under threads, so only the entries are pinned.
    import sys
    import threading

    from fuzzsphere import algebra as _a
    from fuzzsphere import wigner as _w

    symbols = [
        (20, 20, 2 * ell, -tmu, tmu - 2 * m, 2 * m)
        for ell in (3, 11, 20)
        for m in range(-ell, ell + 1, 3)
        for tmu in range(-20, 21, 4)
        if abs(tmu - 2 * m) <= 20
    ]
    _w.three_j_cache_clear()
    sequential = [three_j_twice(*k) for k in symbols]
    _w.three_j_cache_clear()
    with _a._FACTORIAL_LOCK:
        del _a._FACTORIAL_PARITY[2:]
        _a._PRIMES.clear()
    results = {}

    def worker(tag):
        order = symbols if tag % 2 else symbols[::-1]
        results[tag] = {k: three_j_twice(*k) for k in order}

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
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
    for tag in range(6):
        assert [results[tag][k] for k in symbols] == sequential
    assert three_j_cache_info().entries == len(set(symbols))


# ------------------------------------------------------- 3j lookup and cache

def test_three_j_cache_info_counts_hits_and_misses():
    from fuzzsphere import wigner as _w

    _w.three_j_cache_clear()
    assert three_j_cache_info() == (0, 0, 0)
    v = three_j_twice(4, 2, 2, 2, -2, 0)
    assert three_j_cache_info() == ThreeJCacheInfo(entries=1, hits=0, misses=1)
    # The same symbol hits; its image under a column swap is summed anew.
    assert three_j_twice(4, 2, 2, 2, -2, 0) == v
    assert three_j_cache_info() == ThreeJCacheInfo(entries=1, hits=1, misses=1)
    assert three_j_twice(2, 4, 2, -2, 2, 0) == v
    assert three_j_cache_info() == ThreeJCacheInfo(entries=2, hits=1, misses=2)
    # Symbols that vanish by a selection rule never reach the cache.
    three_j_twice(2, 2, 6, 0, 0, 0)
    assert three_j_cache_info() == ThreeJCacheInfo(entries=2, hits=1, misses=2)
    _w._CACHE.clear()
    _w.three_j_cache_clear()
    assert three_j_cache_info() == (0, 0, 0)
    three_j_twice(4, 2, 2, 2, -2, 0)
    assert three_j_cache_info() == (1, 0, 1)


def test_three_j_band_table_is_read_only_and_cleared_with_the_cache():
    from fuzzsphere import wigner as _w

    table = _w._three_j_band(6, 2)
    assert table.shape == (5, 7)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    # Row l + m, column r: (-1)^r (j j l; -mu, mu-m, m) with mu = -j + r.
    for m in range(-2, 3):
        for r in range(7):
            tmu = 2 * r - 6
            want = (-1) ** r * three_j_twice(6, 6, 4, -tmu, tmu - 2 * m, 2 * m).to_float()
            assert table[2 + m, r] == want
    assert _w._factorial_pair_roots.cache_info().currsize > 0
    _w.three_j_cache_clear()
    assert _w._three_j_band.cache_info().currsize == 0
    assert _w._factorial_pair_roots.cache_info().currsize == 0


def test_three_j_band_cold_fill_seeds_each_row_once(monkeypatch):
    from fuzzsphere import wigner as _w

    calls = []
    kernel = _w._three_j_parts

    def counted(cols):
        calls.append(cols)
        return kernel(cols)

    monkeypatch.setattr(_w, "_three_j_parts", counted)
    for tj, ell in ((6, 2), (24, 13), (40, 40)):
        _w.three_j_cache_clear()
        calls.clear()
        _w._three_j_band(tj, ell)
        assert len(calls) == ell + 1, (tj, ell)
    _w.three_j_cache_clear()


def _band_by_exact_lookups(tj, ell):
    """The band table of (2j, l) as one exact lookup per entry, each
    rounded by ``to_float``: the reference for bit-identity."""
    return np.array([
        [
            (-1) ** r * three_j_twice(tj, tj, 2 * ell, tj - 2 * r, 2 * r - tj - 2 * m, 2 * m).to_float()
            for r in range(tj + 1)
        ]
        for m in range(-ell, ell + 1)
    ])


def test_three_j_band_matches_exact_lookups_bitwise():
    from fuzzsphere import wigner as _w

    cases = [(tj, range(tj + 1)) for tj in range(41)]
    cases += [(tj, (0, 1, tj // 3, tj - 1, tj)) for tj in (64, 100)]
    # the recurrence through nontrivial zeros, and at large spin
    cases += [(28, (20,)), (52, (4,)), (56, (7,)), (72, (8,)), (200, (1, 3))]
    for tj, ells in cases:
        for ell in ells:
            # bytes, so that signed zeros must agree too
            got = _w._three_j_band(tj, ell).tobytes()
            assert got == _band_by_exact_lookups(tj, ell).tobytes(), (tj, ell)
        _w.three_j_cache_clear()  # no symbol recurs at another 2j


def _racah_radical(cols):
    """The symbol as radical(rational Racah sum, factorial ratio): the sum
    term by term in Fractions, the root normalized by trial division."""
    (tj1, tm1), (tj2, tm2), (tj3, tm3) = cols
    f = math.factorial
    total = Fraction(0)
    for s in range(tj1 + tj2 + tj3):
        args = (
            s, (tj3 - tj2 + tm1) // 2 + s, (tj3 - tj1 - tm2) // 2 + s,
            (tj1 + tj2 - tj3) // 2 - s, (tj1 - tm1) // 2 - s, (tj2 + tm2) // 2 - s,
        )
        if min(args) >= 0:
            total += Fraction((-1) ** s, math.prod(f(a) for a in args))
    top = (
        (tj1 + tj2 - tj3) // 2, (tj1 - tj2 + tj3) // 2, (-tj1 + tj2 + tj3) // 2,
        (tj1 + tm1) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2,
        (tj2 - tm2) // 2, (tj3 + tm3) // 2, (tj3 - tm3) // 2,
    )
    ratio = Fraction(math.prod(f(n) for n in top), f((tj1 + tj2 + tj3) // 2 + 1))
    sign = -1 if (tj1 - tj2 - tm3) // 2 % 2 else 1
    return radical(sign * total, ratio)


def test_cold_sweep_symbols_match_trial_division_radical():
    from fuzzsphere import algebra as _a
    from fuzzsphere import wigner as _w

    tj, ts = 24, 2
    symbols = [(tj, tj, 2 * ell, -ts, ts, 0) for ell in range(tj + 1)]
    symbols += [
        (tj, tj, 2 * ell, -tmu, tmu - 2 * m, 2 * m)
        for ell in range(tj + 1)
        for m in range(ell + 1)
        for tmu in range(2 * m - tj, m + 1, 2)
    ]
    keys = {
        _twelve_image_canonical(((tj1, tm1), (tj2, tm2), (tj3, tm3)))[0]
        for tj1, tj2, tj3, tm1, tm2, tm3 in symbols
    }
    assert len(keys) == 2769
    with _a._FACTORIAL_LOCK:
        del _a._FACTORIAL_PARITY[2:]
        _a._PRIMES.clear()
    for key in sorted(keys):
        want = _racah_radical(key)
        num, den, free = _w._three_j_parts(key)
        assert _w._three_j_raw(key) == want, key
        if num:
            assert radical(Fraction(num, den), free) == want, key
        assert _a.radical_to_float(num, den, free) == want.to_float(), key


def _mp_stretched(tj):
    """(j j 2j; j -j 0) = sqrt((2j)!^2 / (4j+1)!), to 50 digits."""
    mp = pytest.importorskip("mpmath")
    f = math.factorial
    with mp.workdps(50):
        return mp.sqrt(mp.mpf(f(tj) ** 2) / f(2 * tj + 1))


def _mp_zero_projections(tj):
    """(j j j; 0 0 0) for even 3j, g = 3j/2, to 50 digits:
    (-1)^g sqrt((2g-2j)!^3 / (2g+1)!) g! / (g-j)!^3."""
    mp = pytest.importorskip("mpmath")
    f = math.factorial
    g = 3 * tj // 4
    with mp.workdps(50):
        root = mp.sqrt(mp.mpf(f(2 * g - tj) ** 3) / f(2 * g + 1))
        return (-1) ** g * root * f(g) / f(g - tj // 2) ** 3


@pytest.mark.parametrize(
    "args, oracle",
    [
        ((800, 800, 800, 0, 0, 0), lambda: _mp_zero_projections(800)),
        ((600, 600, 1200, 600, -600, 0), lambda: _mp_stretched(600)),
        ((1000, 1000, 2000, 1000, -1000, 0), lambda: _mp_stretched(1000)),
    ],
)
def test_three_j_float_past_float_range_of_its_parts(args, oracle):
    # Radicands past 2^1024, or coefficients below the smallest normal float.
    got = three_j_twice(*args).to_float()
    assert abs(got / oracle() - 1) <= 1e-15, (args, got)


def _twelve_image_canonical(cols):
    """The lexicographically smallest of the 12 images of the columns under
    permutations and global m-negation, scanned in a fixed order; odd
    permutations and negation each contribute (-1)^(j1+j2+j3)."""
    even = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    odd = ((0, 2, 1), (2, 1, 0), (1, 0, 2))
    swap_sign = (-1) ** (sum(c[0] for c in cols) // 2)
    best = None
    for perms, psign in ((even, 1), (odd, swap_sign)):
        for p in perms:
            for neg, nsign in ((1, 1), (-1, swap_sign)):
                cand = tuple((cols[i][0], neg * cols[i][1]) for i in p)
                if best is None or cand < best[0]:
                    best = (cand, psign * nsign)
    return best


def _sympy_value(sympy, wigner_3j, tj1, tj2, tj3, tm1, tm2, tm3):
    half = sympy.Rational(1, 2)
    return wigner_3j(tj1 * half, tj2 * half, tj3 * half, tm1 * half, tm2 * half, tm3 * half)


def _assert_matches_sympy(sympy, wigner_3j, args):
    from sympy.ntheory.factor_ import core

    got = three_j_twice(*args)
    want = _sympy_value(sympy, wigner_3j, *args)
    square = want**2
    assert square.is_Rational, (args, want)
    signed = Fraction(int(square.p), int(square.q)) * int(sympy.sign(want))
    assert got.signed_square() == signed, (args, got, want)
    # normalized: integer square-free radicand, zero as (0, 1)
    assert got.radicand.denominator == 1
    assert core(int(got.radicand)) == int(got.radicand)
    if want == 0:
        assert got.coeff == 0 and got.radicand == 1


@pytest.mark.parametrize("tj", [5, 8])
def test_three_j_matches_sympy_on_closed_form_symbols(tj):
    # Every (j j ell; -mu nu m) the closed form can ask for, coupled or not,
    # one ell past the band included.
    sympy = pytest.importorskip("sympy")
    from sympy.physics.wigner import wigner_3j

    for ell in range(tj + 2):
        for m in range(-ell, ell + 1):
            for tmu in range(-tj, tj + 1, 2):
                for tnu in range(-tj, tj + 1, 2):
                    _assert_matches_sympy(
                        sympy, wigner_3j, (tj, tj, 2 * ell, -tmu, tnu, 2 * m)
                    )


def _symbol_strategy():
    from hypothesis import strategies as st

    @st.composite
    def symbols(draw):
        tj1 = draw(st.integers(0, 40))
        tm1 = draw(st.sampled_from(range(-tj1, tj1 + 1, 2)))
        if draw(st.booleans()):  # two equal columns
            tj2, tm2 = tj1, tm1
        else:
            tj2 = draw(st.integers(0, 40))
            tm2 = draw(st.sampled_from(range(-tj2, tj2 + 1, 2)))
        tj3 = draw(st.sampled_from(range(abs(tj1 - tj2), min(40, tj1 + tj2) + 1, 2)))
        cols = [(tj1, tm1), (tj2, tm2), (tj3, -tm1 - tm2)]
        cols = draw(st.permutations(cols))
        return tuple(c[0] for c in cols) + tuple(c[1] for c in cols)

    return symbols()


def test_three_j_matches_sympy_on_random_symbols():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    from sympy.physics.wigner import wigner_3j

    seen = {"repeated": 0, "odd_sum": 0}

    @hypothesis.settings(
        max_examples=300, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(_symbol_strategy())
    # two equal columns with an odd j1+j2+j3 (vanishes), and a nonzero one
    @hypothesis.example((5, 5, 8, 3, 3, -6))
    @hypothesis.example((40, 40, 2, 0, 0, 0))
    @hypothesis.example((40, 40, 6, 10, -12, 2))
    def check(args):
        tjs, tms = args[:3], args[3:]
        if len(set(zip(tjs, tms))) < 3:
            seen["repeated"] += 1
        if sum(tjs) % 4 == 2:
            seen["odd_sum"] += 1
        _assert_matches_sympy(sympy, wigner_3j, args)

    check()
    assert seen["repeated"] >= 10 and seen["odd_sum"] >= 10, seen


# ------------------------------------------------------------- D matrices

def test_wigner_d_identity():
    xi = Su2Element.identity()
    for tj in (0, 1, 2, 3, 4):
        mat = wigner_D_matrix(tj, xi)
        assert np.abs(mat - np.eye(tj + 1)).max() < 1e-15


def test_wigner_d_half_reproduces_defining_entries():
    rng = np.random.default_rng(1)
    for _ in range(5):
        xi = random_element(rng)
        m = xi.matrix()
        d = wigner_D_matrix(1, xi)
        # ascending-m arrangement carries the defining entries directly
        pattern = np.array(
            [[m[0, 0], -m[0, 1]], [np.conj(m[0, 1]), np.conj(m[0, 0])]]
        )
        assert np.abs(d - pattern).max() < 1e-15


def test_wigner_d_matches_sum_oracle():
    rng = np.random.default_rng(2)
    for tj in (1, 2, 3, 4, 5):
        for _ in range(4):
            xi = random_element(rng)
            for tm1 in range(-tj, tj + 1, 2):
                for tm2 in range(-tj, tj + 1, 2):
                    a = wigner_D(tj, tm1, tm2, xi)
                    b = wigner_D_sum(tj, tm1, tm2, xi)
                    assert abs(a - b) < 1e-12


def test_wigner_d_sum_takes_an_array_of_omega():
    rng = np.random.default_rng(8)
    omegas = rng.uniform(0.0, math.pi / 2, size=7)
    for tj in (0, 3, 8):
        for tm1 in range(-tj, tj + 1, 2):
            for tm2 in (-tj, tj):
                got = wigner_D_sum(tj, tm1, tm2, Su2Element(omegas, 0.4, 1.3))
                want = [
                    wigner_D_sum(tj, tm1, tm2, Su2Element(w, 0.4, 1.3)) for w in omegas.tolist()
                ]
                assert got.shape == (7,)
                assert np.abs(got - want).max() < 1e-14
                assert isinstance(want[0], complex)


def test_wigner_d_unitary():
    rng = np.random.default_rng(3)
    for tj in (1, 2, 3, 4):
        xi = random_element(rng)
        d = wigner_D_matrix(tj, xi)
        assert np.abs(d @ d.conj().T - np.eye(tj + 1)).max() < 1e-12


def test_wigner_d_group_homomorphism():
    rng = np.random.default_rng(4)
    for tj in (1, 2, 3, 4):
        for _ in range(4):
            x1, x2 = random_element(rng), random_element(rng)
            lhs = wigner_D_matrix(tj, x1) @ wigner_D_matrix(tj, x2)
            rhs = wigner_D_matrix(tj, x1 * x2)
            assert np.abs(lhs - rhs).max() < 1e-10


def test_wigner_d_entry_column_and_matrix_agree():
    # Same kernel; only the summation order and the rounding of the psi
    # phases (arguments up to j * 4 pi) differ.
    rng = np.random.default_rng(7)
    for tj in (0, 1, 4, 9, 40):
        xi = Su2Element(*rng.uniform(0, 2 * math.pi, 3))
        d = wigner_D_matrix(tj, xi)
        for c, tm2 in enumerate(range(-tj, tj + 1, 2)):
            column = wigner_D_columns(tj, tm2, (xi.omega,), xi.psi1, xi.psi2)[0]
            assert np.abs(column - d[:, c]).max() < 1e-14
            for r, tm1 in enumerate(range(-tj, tj + 1, 2)):
                assert abs(wigner_D(tj, tm1, tm2, xi) - d[r, c]) < 1e-14


def test_wigner_d_exact_at_omega_zero():
    # The middle factor is the identity exactly, so off-diagonal entries
    # are exact zeros and the diagonal is the pure psi1 phase.
    for tj in (1, 4, 7):
        xi = Su2Element(0.0, 0.6, 1.9)
        d = wigner_D_matrix(tj, xi)
        assert np.count_nonzero(d - np.diag(np.diag(d))) == 0
        assert np.abs(np.diag(d) - np.exp(-1j * 0.6 * np.arange(-tj, tj + 1, 2))).max() < 1e-15
        assert wigner_D(tj, -tj, tj, xi) == 0
        column = wigner_D_columns(tj, tj, (xi.omega,), xi.psi1, xi.psi2)[0]
        assert np.count_nonzero(column[:-1]) == 0


def test_wigner_d_refuses_past_working_range():
    xi = Su2Element(0.3, 0.2, 0.1)
    top = D_MATRIX_MAX_TWO_J
    for tj in (top + 1, top + 2):
        with pytest.raises(ValueError, match=str(top)):
            wigner_D_matrix(tj, xi)
        with pytest.raises(ValueError, match=str(top)):
            wigner_D(tj, tj, tj, xi)
        with pytest.raises(ValueError, match=str(top)):
            wigner_D_columns(tj, -tj, (xi.omega,), xi.psi1, xi.psi2)
        # the pole is refused too, not answered from the exact branch
        with pytest.raises(ValueError, match=str(top)):
            wigner_D_matrix(tj, Su2Element.identity())


def _spin_and_elements():
    from hypothesis import strategies as st

    angle = st.floats(0.0, 2 * math.pi, allow_nan=False)
    element = st.builds(Su2Element, angle, angle, angle)
    # every small spin, and a few large ones up to the top of the range
    two_j = st.one_of(
        st.integers(0, 64), st.sampled_from([100, 201, 500, D_MATRIX_MAX_TWO_J])
    )
    return two_j, element


def test_wigner_d_properties_over_working_range():
    hypothesis = pytest.importorskip("hypothesis")
    two_j, element = _spin_and_elements()

    @hypothesis.settings(
        max_examples=30, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(two_j, element, element)
    @hypothesis.example(D_MATRIX_MAX_TWO_J, Su2Element(1.1, 0.4, 2.9), Su2Element(0.7, 5.0, 0.3))
    def check(tj, x1, x2):
        d1 = wigner_D_matrix(tj, x1)
        eye = np.eye(tj + 1)
        assert np.abs(d1 @ d1.conj().T - eye).max() < 1e-13
        # column sum rule: every column is a unit vector
        assert np.abs(np.sum(np.abs(d1) ** 2, axis=0) - 1.0).max() < 1e-13
        # The product element carries the rounding of its angles, which
        # the entries amplify by up to j.
        lhs = d1 @ wigner_D_matrix(tj, x2)
        rhs = wigner_D_matrix(tj, x1 * x2)
        assert np.abs(lhs - rhs).max() < 2e-15 * (tj + 10)

    check()


def test_su2_element_matrix_unitary():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = random_element(rng).matrix()
        assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-14
        assert abs(np.linalg.det(m) - 1) < 1e-14


# --------------------------------------------------------------- rotations

def test_su2_from_rotation_identity():
    xi = su2_from_rotation([0.0, 0.0, 1.0], 0.0)
    assert xi.omega == 0.0 and xi.psi1 == 0.0


def test_su2_from_rotation_z_half_turn():
    xi = su2_from_rotation([0.0, 0.0, 1.0], math.pi)
    out = so3_matrix(xi) @ np.array([1.0, 0.0, 0.0])
    assert np.abs(out - np.array([-1.0, 0.0, 0.0])).max() < 1e-12
    # branch: xi_0 ~ 0 tie broken toward xi_3 >= 0
    a = xi.matrix()[0, 0]
    assert a.real == pytest.approx(0.0, abs=1e-12)
    assert a.imag > 0


def test_su2_from_rotation_rodrigues_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = float(rng.uniform(-3.0, 3.0))
        xi = su2_from_rotation(axis, angle)
        r = so3_matrix(xi)
        assert np.abs(r - rodrigues_matrix(axis, angle)).max() < 1e-12
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        assert xi.matrix()[0, 0].real >= -1e-12


def test_su2_from_rotation_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        su2_from_rotation([1.0, 1.0, 0.0], 0.5)


# ----------------------------------------------------------- orthogonality

def orthogonality_defect(two_j: int, two_jp: int, order: int) -> float:
    """Worst deviation of quadrature D-matrix inner products from
    8 pi^2 / (2j+1) times the triple Kronecker delta.

    The group is sampled on a Gauss-Legendre grid in cos(2 omega) crossed
    with uniform psi1 over 2 pi and psi2 over 4 pi (total Haar volume
    8 pi^2).  Low orders under-resolve the psi frequencies and report a
    large defect; adequate orders converge to machine precision.
    """
    n_u = order
    n_p1 = 2 * order
    n_p2 = 4 * order
    u_nodes, u_weights = np.polynomial.legendre.leggauss(n_u)
    psi1 = 2 * math.pi * np.arange(n_p1) / n_p1
    psi2 = 4 * math.pi * np.arange(n_p2) / n_p2

    dims = (two_j + 1, two_jp + 1)
    acc = np.zeros((dims[0], dims[0], dims[1], dims[1]), dtype=complex)
    for u, wu in zip(u_nodes, u_weights):
        omega = math.acos(u) / 2.0
        for p1 in psi1:
            for p2 in psi2:
                xi = Su2Element(omega, p1, p2)
                dj = wigner_D_matrix(two_j, xi)
                djp = dj if two_jp == two_j else wigner_D_matrix(two_jp, xi)
                w = (wu / 2.0) / (n_p1 * n_p2)
                acc += w * np.einsum("ab,cd->abcd", dj, djp.conj())
    acc *= 8 * math.pi**2

    target = np.zeros_like(acc)
    if two_jp == two_j:
        for r in range(dims[0]):
            for c in range(dims[0]):
                target[r, c, r, c] = 8 * math.pi**2 / (two_j + 1)
    return float(np.max(np.abs(acc - target)))


def test_orthogonality_defect_half_spin():
    assert orthogonality_defect(1, 1, 4) < 1e-10


def test_orthogonality_defect_cross_spins():
    assert orthogonality_defect(0, 2, 4) < 1e-10
    assert orthogonality_defect(1, 2, 5) < 1e-10


def test_orthogonality_defect_underresolved():
    assert orthogonality_defect(1, 1, 1) > 1e-3
