"""Pade construction, evaluation, and critical-coupling tests."""

import json
import math
import re
from fractions import Fraction
from math import factorial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from make_pade_digests import DIGEST_FILE, golden_pade_digests, pade_digest
from seaqm import resummation
from seaqm.errors import NoSignChange, PoleProximity, SingularPadeSystem
from seaqm.exact import horner
from seaqm.resummation import (
    PadeApproximant,
    _float_pade_rows,
    _leftmost_root,
    _scaled,
    _track_root,
    critical_lambda,
    default_pade_pair,
    float_pade_block,
    pade,
    pade_eval,
    pade_with_fallback,
    reconstruct_energy,
    reexpand,
)
from seaqm.spectra import anharmonic_energy_series, hulthen_energy_series

F = Fraction


# -------------------------------------------------------------- construction -


def test_pade_geometric():
    series = [F(1)] * 4
    P = pade(series, 0, 1)
    assert P.numerator == (F(1),)
    assert P.denominator == (F(1), F(-1))


def test_pade_constant_series():
    series = [F(7, 3)] + [F(0)] * 6
    P = pade_with_fallback(series, 2, 2)
    assert pade_eval(P, 0.35) == pytest.approx(7 / 3, rel=1e-15)


def test_pade_exponential_2_2():
    series = [F(1, factorial(k)) for k in range(5)]
    P = pade(series, 2, 2)
    assert P.numerator == (F(1), F(1, 2), F(1, 12))
    assert P.denominator == (F(1), F(-1, 2), F(1, 12))


def test_pade_requires_enough_coefficients():
    with pytest.raises(ValueError):
        pade([F(1), F(1)], 2, 2)


def test_pade_singular_raises_and_fallback_recovers():
    # a degree-2 polynomial series: every n >= 1 Hankel system is singular
    series = [F(1), F(2), F(3)] + [F(0)] * 10
    with pytest.raises(SingularPadeSystem):
        pade(series, 5, 4)
    P = pade_with_fallback(series, 5, 4)
    assert P.n == 0
    assert pade_eval(P, 2.0) == pytest.approx(1 + 4 + 12)


@given(
    st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=40), min_size=7, max_size=7
    )
)
@settings(max_examples=40)
def test_pade_reexpansion_identity(series):
    try:
        P = pade(series, 3, 3)
    except SingularPadeSystem:
        return
    assert reexpand(P, 6) == series


def _reference_pade(series, m, n):
    """The numerator and denominator of [m/n] (denominator constant term 1) by
    Gaussian elimination over the rationals, the numerator by convolution and
    the re-expansion check: the Fraction construction that the integer
    (Bareiss) build of `pade` must reproduce exactly."""
    c = [F(x) for x in series[: m + n + 1]]
    A = [[c[m + i - j] if m + i >= j else F(0) for j in range(1, n + 1)] + [-c[m + i]]
         for i in range(1, n + 1)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            raise SingularPadeSystem("singular")
        A[col], A[piv] = A[piv], A[col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            A[r] = [A[r][j] - f * A[col][j] for j in range(n + 1)]
    q = [F(0)] * n
    for r in range(n - 1, -1, -1):
        q[r] = (A[r][n] - sum(A[r][j] * q[j] for j in range(r + 1, n))) / A[r][r]
    q = [F(1)] + q
    p = [sum(q[j] * c[i - j] for j in range(min(i, n) + 1)) for i in range(m + 1)]
    taylor = []
    for k in range(m + n + 1):
        taylor.append((p[k] if k <= m else F(0)) - sum(q[j] * taylor[k - j] for j in range(1, min(k, n) + 1)))
    if taylor != c:
        raise SingularPadeSystem("re-expansion check failed")
    return tuple(p), tuple(q)


_coefficient = st.one_of(
    st.just(F(0)),  # zero blocks, singular and row-swapping systems
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.integers(-10**12, 10**12).map(F),
)


@st.composite
def _pade_case(draw):
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    extra = draw(st.integers(0, 2))
    series = draw(st.lists(_coefficient, min_size=m + n + 1 + extra, max_size=m + n + 1 + extra))
    # lattice series, as the Hulthen levels' (E_k = 0 at odd k >= 3): past the
    # first two terms, zero off k = offset (mod stride), which splits the
    # Hankel rows into `stride` independent blocks
    stride = draw(st.sampled_from([1, 2, 3]))
    offset = draw(st.integers(0, stride - 1))
    return [c if k < 2 or k % stride == offset else F(0) for k, c in enumerate(series)], m, n


def _views(series, m, n):
    P = pade(series, m, n)
    return P.numerator, P.denominator


@given(_pade_case())
@example(([F(1), F(0), F(2), F(3)], 1, 2))  # first pivot c_1 = 0: a row swap
@example(([F(1, 3), F(0), F(0), F(5, 7), F(0), F(-2, 9)], 2, 3))
@example(([F(1), F(2), F(3)] + [F(0)] * 6, 4, 4))  # all-zero tail: singular
@settings(max_examples=300, deadline=None)
def test_pade_matches_fraction_elimination(case):
    series, m, n = case
    try:
        expected = _reference_pade(series, m, n)
    except SingularPadeSystem:
        with pytest.raises(SingularPadeSystem):
            pade(series, m, n)
        return
    assert _views(series, m, n) == expected


def _pade_or_singular(series, m, n, build):
    try:
        return build(series, m, n)
    except SingularPadeSystem:
        return SingularPadeSystem


@given(_pade_case().filter(lambda case: case[1] >= 1 and case[2] >= 1))
@example(([F(1), F(0), F(2), F(3)], 1, 2))
@example(([F(1), F(2), F(3)] + [F(0)] * 6, 4, 4))  # shared rows lose rank
@example(([F(1), F(0), F(-1, 6), F(0), F(5, 72), F(0), F(-7, 144), F(0)], 4, 3))  # checkerboard
@settings(max_examples=200, deadline=None)
def test_pade_pairs_share_one_elimination(case):
    # [m/n] then [m-1/n] eliminates the shared rows once; the reverse order
    # eliminates twice (once if two row blocks happen to be equal) and cold
    # builds once each; all equal the Fraction reference
    series, m, n = case
    expected = {mm: _pade_or_singular(series, mm, n, _reference_pade) for mm in (m, m - 1)}
    for order, eliminations in (((m, m - 1), {1}), ((m - 1, m), {1, 2})):
        resummation._KERNELS.clear()
        with mock.patch.object(resummation, "_kernel", wraps=resummation._kernel) as kernel:
            assert {mm: _pade_or_singular(series, mm, n, _views) for mm in order} == expected
        assert kernel.call_count in eliminations
    for mm in (m, m - 1):
        resummation._KERNELS.clear()
        assert _pade_or_singular(series, mm, n, _views) == expected[mm]


def _lattice(stride, last, override=None):
    # 1/(k + 1) on k = 0 (mod stride) and at k < 2, else 0, through `last`
    c = [F(1, k + 1) if k < 2 or k % stride == 0 else F(0) for k in range(last + 1)]
    for k, v in (override or {}).items():
        c[k] = v
    return c


def _blocks(series, m, n):
    """The (rows, columns) shapes `_kernel` eliminates for a cold [m/n], and
    the build's outcome."""
    resummation._KERNELS.clear()
    with mock.patch.object(resummation, "_eliminate", wraps=resummation._eliminate) as eliminate:
        outcome = _pade_or_singular(series, m, n, _views)
    return [(len(rows), width) for (rows, width), _ in eliminate.call_args_list], outcome


@pytest.mark.parametrize(
    "series, m, n, shapes, dim",
    [
        # stride 2: even rows on the even columns, odd rows on the odd ones
        (_lattice(2, 11), 6, 5, [(2, 3), (2, 3)], 2),
        # stride 3: three residue classes, one a nonsingular 2 x 2 block
        (_lattice(3, 11), 6, 5, [(1, 2), (2, 2), (1, 2)], 2),
        # c_4..c_10 geometric, c_2 off it: the even block's two rows are
        # proportional, so its two kernel vectors beside the odd block's one
        # make the system singular
        (_lattice(2, 11, {4: F(1, 16), 6: F(1, 64), 8: F(1, 256), 10: F(1, 1024)}), 6, 5,
         [(2, 3), (2, 3)], 3),
        # c_3 = 0 leaves column 1 untouched by the one row: a free unit vector
        (_lattice(2, 5), 3, 2, [(1, 2), (0, 1)], 2),
    ],
)
def test_kernel_eliminates_each_block_on_its_own(series, m, n, shapes, dim):
    got, outcome = _blocks(series, m, n)
    assert sorted(got) == sorted(shapes)
    assert outcome == _pade_or_singular(series, m, n, _reference_pade)
    assert (outcome is SingularPadeSystem) == (dim > 2)
    D = math.lcm(*(c.denominator for c in series))
    rows = [resummation._row([0] * n + [int(c * D) for c in series], t, n) for t in range(m + 1, m + n)]
    basis = resummation._kernel(rows, n + 1)
    assert len(basis) == dim
    for v in basis:  # each vector solves every row
        assert not any(sum(a * b for a, b in zip(row, v)) for row in rows)


def test_table_and_energy_pairs_eliminate_their_blocks():
    # Hulthen E_k vanish at odd k >= 3, so the 13 x 15 rows of (5,2) [15/14]
    # split by parity; the anharmonic series has no zero term and one block
    hulthen = hulthen_energy_series(5, 2, 30).coeffs
    assert _blocks(hulthen, 15, 14)[0] == [(7, 8), (6, 7)]
    assert _blocks(anharmonic_energy_series(0, 41).coeffs, 21, 20)[0] == [(19, 21)]


@given(_pade_case())
@settings(max_examples=100, deadline=None)
def test_pade_integer_form_is_canonical(case):
    series, m, n = case
    try:
        P = pade(series, m, n)
    except SingularPadeSystem:
        return
    assert math.gcd(*P.p, *P.q) == 1 and P.q[0] > 0
    floats = P.float_coefficients
    assert [x.hex() for x in floats[0]] == [float(c).hex() for c in P.numerator]
    assert [x.hex() for x in floats[1]] == [float(c).hex() for c in P.denominator]


@given(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=6),
       st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=6))
def test_float_coefficients_round_like_the_fraction_views(p, q):
    # p_i / q_0 in integers rounds correctly, as float() of the reduced Fraction
    if not q[0]:
        return
    g = math.gcd(*p, *q) * (1 if q[0] > 0 else -1)
    P = PadeApproximant(len(p) - 1, len(q) - 1, tuple(a // g for a in p), tuple(b // g for b in q))
    assert [x.hex() for x in P.float_coefficients[0]] == [float(c).hex() for c in P.numerator]
    assert [x.hex() for x in P.float_coefficients[1]] == [float(c).hex() for c in P.denominator]


@pytest.mark.parametrize(
    "m, n, p, q, problem",
    [
        (1, 1, (2, 4), (2, 6), "gcd 1"),  # a common factor 2
        (0, 1, (1,), (-1, 1), "positive"),  # the same value as (-1,), (1, -1)
        (0, 1, (1,), (0, 1), "positive"),
        (1, 1, (1,), (1, 1), "lengths"),
    ],
)
def test_non_canonical_integer_forms_are_refused(m, n, p, q, problem):
    with pytest.raises(ValueError, match=problem):
        PadeApproximant(m, n, p, q)


def test_kernel_memo_stays_bounded():
    # the memo keeps only the last elimination, which the next [m-1/n] takes
    resummation._KERNELS.clear()
    series = [F(1, k + 1) for k in range(40)]
    for n in range(1, 32):
        for m in (2, 1):
            pade(series, m, n)
            assert len(resummation._KERNELS) == (m == 2)


def test_anharmonic_pairs_through_shared_kernel_match_golden_digests():
    expected = json.loads(DIGEST_FILE.read_text())
    for r in (0, 1):
        coeffs = anharmonic_energy_series(r, 41).coeffs
        resummation._KERNELS.clear()
        with mock.patch.object(resummation, "_kernel", wraps=resummation._kernel) as kernel:
            pair = [pade(coeffs, 21, 20), pade(coeffs, 20, 20)]
        assert kernel.call_count == 1
        for P in pair:
            assert pade_digest(P) == expected[f"anharmonic r={r} K=41 [{P.m}/{P.n}]"]


def test_golden_pade_digests():
    # tests/make_pade_digests.py wrote the file from the Fraction-elimination
    # build; every approximant must still serialize byte for byte the same
    expected = json.loads(DIGEST_FILE.read_text())
    assert golden_pade_digests() == expected


# ---------------------------------------------------------------- evaluation -


def test_pade_eval_geometric_at_half():
    P = pade([F(1)] * 3, 0, 1)
    assert pade_eval(P, 0.5) == pytest.approx(2.0)


def test_pade_eval_at_zero_returns_constant():
    series = [F(-1, 4), F(1), F(-5, 6)] + [F(0)] * 4
    P = pade_with_fallback(series, 2, 1)
    assert pade_eval(P, 0.0) == -0.25


def test_pade_eval_pole_proximity():
    P = pade([F(1)] * 3, 0, 1)  # 1/(1-x)
    with pytest.raises(PoleProximity):
        pade_eval(P, 1.0)


# ----------------------------------------------------------------- float Pade -


def _rational_series(K):
    # (1 + x/3) / ((1 - x/2)(1 + x/5)), poles at 2 and -5
    num, den = [F(1), F(1, 3)], [F(1), F(-3, 10), F(-1, 10)]
    out = []
    for k in range(K + 1):
        s = num[k] if k < len(num) else F(0)
        out.append(s - sum(den[j] * out[k - j] for j in range(1, min(k, 2) + 1)))
    return out


@pytest.mark.parametrize(
    "series, m, n",
    [
        (_rational_series(8), 1, 2),
        (_rational_series(8), 3, 2),
        ([F(1, factorial(k)) for k in range(11)], 5, 5),
        ([F(1, factorial(k)) for k in range(9)], 4, 3),
        ([F((-3) ** k, factorial(k)) for k in range(11)], 5, 5),
    ],
)
def test_float_pade_matches_exact_pade(series, m, n):
    exact = pade(series, m, n)
    floats = [float(c) for c in series]
    for lam in (-0.7, 0.0, 0.3, 0.9, 1.5):
        (value,), (pole,) = float_pade_block([floats], m, n, lam)
        assert pole is None
        assert value == pytest.approx(pade_eval(exact, lam), rel=1e-13, abs=0.0)


def test_float_pade_zero_tail_steps_down_to_polynomial():
    # as in pade_with_fallback: every n >= 1 system of a degree-2 series is singular
    series = [1.0, 2.0, 3.0] + [0.0] * 10
    numerator, denominator = _float_pade_rows([series], 5, 4)
    assert pade_with_fallback([F(c) for c in series], 5, 4).n == 0
    assert denominator.tolist() == [[1.0, 0.0, 0.0, 0.0, 0.0]]
    assert numerator.tolist() == [series[:6]]
    assert float_pade_block([series], 5, 4, 2.0) == ([1 + 4 + 12], [None])


def test_float_pade_pole_proximity():
    values, (pole,) = float_pade_block([[1.0] * 3], 0, 1, 1.0)  # 1/(1-x)
    assert isinstance(pole, PoleProximity)
    assert str(pole) == "denominator 0.000e+00 too small at lam=1.0"


def test_float_pade_requires_enough_coefficients():
    with pytest.raises(ValueError, match=r"\[2/2\] needs 5 coefficients, got 4"):
        float_pade_block([[1.0] * 4], 2, 2, 0.5)


def _pointwise_float_pade(series, m, n, lam):
    """The per-row rule the block routine keeps: one LU solve per order from n
    down, stepping down on a singular system or a non-finite solution, then
    Horner; ("pole", message) where the pole rule fires, else the value."""
    c = np.asarray(series[: m + n + 1], dtype=float)
    padded = np.concatenate(([0.0], c))
    num, den = c[: m + 1].tolist(), [1.0]
    for nn in range(n, 0, -1):
        i, j = np.ogrid[1 : nn + 1, 1 : nn + 1]
        try:
            q = np.linalg.solve(padded[np.maximum(m + i - j + 1, 0)], -c[m + 1 : m + nn + 1])
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(q)):
            den = [1.0, *q.tolist()]
            num = np.convolve(den, c[: m + 1])[: m + 1].tolist()
            break
    p, d = horner(num, lam), horner(den, lam)
    if abs(d) < 1e-12 or abs(d) < 1e-12 * abs(p):
        return "pole", f"denominator {d:.3e} too small at lam={lam}"
    return p / d


def _row_outcome(row, m, n, lam):
    """The row solved on its own, a one-row block."""
    (value,), (pole,) = float_pade_block([row], m, n, lam)
    return ("pole", str(pole)) if pole is not None else value.hex()


@st.composite
def _pade_blocks(draw):
    """A block of rows for one [m/n] and lam: finite rows, zero tails, all-zero
    rows, rows with an inf or a NaN, rows with a pole at lam (the geometric
    series of 1/(1 - x/lam)) and constant rows, whose singular systems make a
    stacked solve raise."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    length = m + n + 1 + draw(st.integers(0, 2))
    lam = draw(st.sampled_from([0.5, -0.75, 1.5, 3.0]) | st.floats(-3.0, 3.0))
    finite = st.lists(st.floats(-1e3, 1e3), min_size=length, max_size=length)
    zero_tail = st.tuples(finite, st.integers(1, length)).map(lambda t: t[0][: t[1]] + [0.0] * (length - t[1]))
    broken = st.tuples(finite, st.integers(0, length - 1), st.sampled_from([math.inf, -math.inf, math.nan]))
    pole = [lam**-k for k in range(length)] if abs(lam) >= 0.1 else [1.0] * length
    rows = st.one_of(
        finite,
        zero_tail,
        st.just([0.0] * length),
        broken.map(lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1] + 1 :]),
        st.just(pole),
        st.just([1.0] * length),
    )
    return m, n, lam, draw(st.lists(rows, min_size=1, max_size=12))


@given(_pade_blocks())
@settings(max_examples=300, deadline=None)
def test_float_pade_block_matches_each_row_bit_for_bit(block):
    m, n, lam, rows = block
    values, poles = float_pade_block(rows, m, n, lam)
    for row, value, pole in zip(rows, values, poles):
        got = ("pole", str(pole)) if pole is not None else value.hex()
        assert got == _row_outcome(row, m, n, lam)
        expected = _pointwise_float_pade(row, m, n, lam)
        assert got == (expected if isinstance(expected, tuple) else expected.hex())


def test_float_pade_block_singular_stack_steps_down_per_row(monkeypatch):
    # the constant row's 2 x 2 system is singular, so the stacked [2/2] solve
    # raises; each row is then solved on its own and keeps its own order
    raised, real = [], np.linalg.solve

    def solve(A, b):
        try:
            return real(A, b)
        except np.linalg.LinAlgError:
            raised.append(np.ndim(A))
            raise

    rows = [[1.0] * 5, [1.0, 0.5, 0.25, 0.125, 0.0625], [1.0, -1.0, 0.5, 0.0, 0.0], [0.0] * 5]
    monkeypatch.setattr(np.linalg, "solve", solve)
    values, poles = float_pade_block(rows, 2, 2, 0.5)
    assert 3 in raised
    assert poles == [None] * 4
    monkeypatch.undo()
    assert [v.hex() for v in values] == [_row_outcome(row, 2, 2, 0.5) for row in rows]
    assert _float_pade_rows(rows[:1], 2, 2)[1].tolist() == [[1.0, -1.0, 0.0]]  # stepped down to [2/1]


# ----------------------------------------------------------- critical values -


def test_critical_terminating_levels_exact():
    res = critical_lambda(1, 0)
    assert res.lambda_c == 2.0 and res.uncertainty == 0.0
    res = critical_lambda(3, 0)
    assert res.lambda_c == pytest.approx(2.0 / 9.0, abs=1e-15)


def test_critical_2p_matches_table():
    res = critical_lambda(2, 1, 30, ((15, 14), (14, 14)))
    assert abs(res.lambda_c - 0.3767388) <= 5e-7
    assert res.uncertainty < 1e-5
    assert res.pade_used == "[15/14] [14/14]"


def test_critical_3d_matches_table():
    res = critical_lambda(3, 2, 30, ((15, 14), (14, 14)))
    assert abs(res.lambda_c - 0.1576540) <= 5e-7


def test_critical_requires_series_depth():
    with pytest.raises(ValueError, match=r"^\[15/14\] needs 30 coefficients, got 11$"):
        critical_lambda(2, 1, 10, ((15, 14), (14, 14)))


@pytest.mark.parametrize(
    "K, pair",
    [(0, ((1, 0), (0, 0))), (1, ((1, 0), (0, 0))), (3, ((2, 1), (1, 1))), (20, ((10, 9), (9, 9))),
     (30, ((15, 14), (14, 14))), (41, ((21, 20), (20, 20)))],
)
def test_default_pade_pair(K, pair):
    assert default_pade_pair(K) == pair


def test_critical_default_pair_follows_series_order():
    assert critical_lambda(2, 1) == critical_lambda(2, 1, 30, ((15, 14), (14, 14)))
    assert critical_lambda(2, 1, 20).pade_used == "[10/9] [9/9]"


def test_critical_series_through_order_one_fails_typed():
    # a two-term series has no quadratic to solve in closed form, and its
    # default pair holds [0/0], whose constant numerator never crosses zero:
    # a ValueError before any series is built, not an index past the series
    with pytest.raises(ValueError, match=r"^\[0/0\] has a constant numerator"):
        critical_lambda(1, 0, 1)


def test_critical_monotone_bracketing():
    # the resummed level starts negative and crosses zero exactly once below
    # the located root (sign pattern on a fine grid)
    res = critical_lambda(2, 1, 30, ((15, 14), (14, 14)))
    P = res.approximants[0]
    grid = [res.lambda_c * (i + 1) / 1000 for i in range(1000)]
    signs = [pade_eval(P, x) < 0 for x in grid]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert signs[0] is True
    assert flips <= 1


def test_no_sign_change_reported():
    from seaqm.resummation import _track_root

    # a series with a positive resummed limit never crosses zero
    series = [F(1), F(1, 2)] + [F(0)] * 30
    with pytest.raises(NoSignChange):
        _track_root(series, 15, 14)


# ------------------------------------------------------------ reconstruction -


def test_reconstruct_polynomial_series_is_exact():
    series = hulthen_energy_series(1, 0, 30)
    ((value, unc),) = reconstruct_energy(series.coeffs, [1.0], ((15, 14), (14, 14)))
    assert value == pytest.approx(-0.25, abs=1e-15)
    assert unc == pytest.approx(0.0, abs=1e-15)


def test_reconstruct_at_zero():
    series = anharmonic_energy_series(0, 41)
    assert reconstruct_energy(series.coeffs, [0.0], default_pade_pair(41)) == [(1.0, 0.0)]


def test_reconstruct_small_coupling_tight():
    series = anharmonic_energy_series(0, 41)
    ((value, unc),) = reconstruct_energy(series.coeffs, [0.125], ((21, 20), (20, 20)))
    assert unc / abs(value) < 1e-3
    assert value == pytest.approx(1.0794103952102574, rel=1e-12)


def test_reconstruct_builds_the_pair_once_for_all_couplings(monkeypatch):
    # one exact build per approximant, on the series tuple itself, and per
    # coupling the first value with its distance from the second
    coeffs, builds = anharmonic_energy_series(0, 41).coeffs, []
    real = resummation.pade

    def spy(series, m, n):
        builds.append((series is coeffs, m, n))
        return real(series, m, n)

    monkeypatch.setattr(resummation, "pade", spy)
    lams = [0.0, 0.05, 0.125]
    got = reconstruct_energy(coeffs, lams, ((21, 20), (20, 20)))
    assert builds == [(True, 21, 20), (True, 20, 20)]
    first, second = real(coeffs, 21, 20), real(coeffs, 20, 20)
    assert got == [(pade_eval(first, x), abs(pade_eval(first, x) - pade_eval(second, x))) for x in lams]


def _pole_series(p):
    # Taylor series of (x - 3/10) / (1 - x/p): its [1/1] approximant is the
    # function itself, with the zero at 3/10 and the pole at p
    return [F(-3, 10)] + [(1 - F(3, 10) / p) / p ** (j - 1) for j in range(1, 8)]


def test_spurious_pole_detector():
    # a pole 5e-4 below the zero is a defect on the physical interval: n steps
    # down to [1/0], whose numerator -3/10 - x/599 has no root in (0, 2)
    with pytest.raises(NoSignChange, match=re.escape(
        "the [1/0] numerator has no root in (0, 2) "
        "([1/1] denominator zero at or below the root 0.3; reduced n)"
    )):
        _track_root(_pole_series(F(2995, 10000)), 1, 1)
    # a pole 5e-4 above the root is physical (level disappearance), not a defect
    root, P, notes = _track_root(_pole_series(F(3005, 10000)), 1, 1)
    assert (root, P.n, notes) == (pytest.approx(0.3, abs=1e-16), 1, [])
    # a clean approximant of the same orders is not flagged either
    root, P, notes = _track_root([F(-3, 10), F(1), F(0), F(0)], 1, 1)
    assert (root, P.n, notes) == (pytest.approx(0.3, abs=1e-16), 1, [])


def test_table_cells_need_no_pole_retry():
    for (n, l) in [(2, 1), (5, 4)]:
        res = critical_lambda(n, l, 30, ((15, 14), (14, 14)))
        assert res.notes == ()
        assert res.pade_used == "[15/14] [14/14]"


def test_10_7_isolates_at_the_default_pair():
    # [15/14] of (10,7) has a denominator zero at 0.0160017, 0.0014 above its
    # root: a pole past the root is expected, so the default pair stands
    res = critical_lambda(10, 7)
    assert res.notes == ()
    assert res.pade_used == "[15/14] [14/14]"
    assert res.lambda_c == pytest.approx(0.0145734765, abs=1e-10)
    assert res.uncertainty == pytest.approx(4.8e-10, abs=1e-11)
    # between its neighbours in l, as the table is monotone in l
    assert critical_lambda(10, 8).lambda_c < res.lambda_c < critical_lambda(10, 6).lambda_c


# ------------------------------------------------------------ root isolation -


def _poly(*roots, lead=1):
    # integer coefficients, constant term first, of lead * prod (d x - c) for
    # each root c / d
    p = [lead]
    for r in map(F, roots):
        p = [a * r.denominator - b * r.numerator for a, b in zip([0] + p, p + [0])]
    return p


def _root(p):
    # leftmost root of p in (0, 2) as `_track_root` reads it, on p(2x), and
    # its dyadic bracket on the coupling scale
    root = _leftmost_root(_scaled(p, 2, 0))
    return root and (F(root[0], 1 << root[2] - 1), F(root[1], 1 << root[2] - 1))


def _brackets(root, at):
    lo, hi = root
    return lo < at < hi and hi - lo == F(1, 2**56)


def test_isolates_a_simple_root():
    assert _root(_poly(F(1, 4), F(3))) == (F(1, 4), F(1, 4))
    assert _brackets(_root(_poly(F(1, 3), F(-2))), F(1, 3))


def test_isolates_the_leftmost_of_two_roots():
    assert _root(_poly(F(1, 3), F(1, 4), lead=-7)) == (F(1, 4), F(1, 4))
    assert _brackets(_root(_poly(F(2, 5), F(1, 3))), F(1, 3))


def test_no_root_in_0_2():
    assert _root(_poly(F(5, 2), F(-1, 5))) is None
    assert _root(_poly(F(2), F(-1))) is None  # the end points are not in (0, 2)
    assert _root([1, 0, 1]) is None  # 1 + x^2: a Descartes bound of 0
    assert _root([101, -200, 100]) is None  # 1/100 + (x - 1)^2: bound 2, then 0


def test_dyadic_roots_are_exact():
    # 1/2 is a split point of the isolation tree, which bounds 2/3 with it;
    # 5/4 is the first midpoint of the sign bisection of its isolating (1, 3/2)
    assert _root(_poly(F(2, 3), F(1, 2))) == (F(1, 2), F(1, 2))
    assert _root(_poly(F(5, 4), F(9, 5))) == (F(5, 4), F(5, 4))


def test_double_roots_end():
    # a double root bounds two roots at every width: on a dyadic it is found
    # exactly at a split point, off them the node of width 2^-56 is returned
    assert _root(_poly(F(1, 4), F(1, 4))) == (F(1, 4), F(1, 4))
    assert _brackets(_root(_poly(F(1, 3), F(1, 3))), F(1, 3))


def test_table_through_n_15_falls_with_l():
    # past the tabulated n <= 9, lambda_c is 0.006-0.02 and an approximant's
    # first pole often lies within 0.002 above it
    table = {(n, l): critical_lambda(n, l, 30) for l in range(1, 15) for n in range(l + 1, 16)}
    for n in range(2, 16):
        lams = [table[n, l].lambda_c for l in range(1, n)]
        assert all(a > b for a, b in zip(lams, lams[1:])), n
    assert all(res.uncertainty > 0.0 for res in table.values())
    # mesh values, 50 bisection steps on the sign of the radial mesh level
    assert table[12, 3].lambda_c == pytest.approx(0.0125488, abs=2e-6)
    assert table[12, 4].lambda_c == pytest.approx(0.0120802, abs=2e-6)
    assert table[15, 1].lambda_c == pytest.approx(0.0086786, abs=1e-7)
