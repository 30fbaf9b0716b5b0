"""Pade construction, evaluation, and critical-coupling tests."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seaqm.errors import NoSignChange, PoleProximity, SingularPadeSystem
from seaqm.resummation import (
    critical_lambda,
    float_pade,
    float_pade_eval,
    pade,
    pade_eval,
    pade_with_fallback,
    reconstruct_energy,
    reexpand,
)
from seaqm.spectra import hulthen_energy_series

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
        assert float_pade_eval(floats, m, n, lam) == pytest.approx(
            pade_eval(exact, lam), rel=1e-13, abs=0.0
        )


def test_float_pade_zero_tail_steps_down_to_polynomial():
    # as in pade_with_fallback: every n >= 1 system of a degree-2 series is singular
    series = [1.0, 2.0, 3.0] + [0.0] * 10
    numerator, denominator = float_pade(series, 5, 4)
    assert pade_with_fallback([F(c) for c in series], 5, 4).n == 0
    assert denominator == [1.0]
    assert numerator == series[:6]
    assert float_pade_eval(series, 5, 4, 2.0) == 1 + 4 + 12


def test_float_pade_pole_proximity():
    with pytest.raises(PoleProximity):
        float_pade_eval([1.0] * 3, 0, 1, 1.0)  # 1/(1-x)


def test_float_pade_requires_enough_coefficients():
    with pytest.raises(ValueError, match=r"\[2/2\] needs 5 coefficients, got 4"):
        float_pade([1.0] * 4, 2, 2)


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
    with pytest.raises(ValueError):
        critical_lambda(2, 1, 10, ((15, 14), (14, 14)))


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
    value, unc = reconstruct_energy(series, 1.0, 15, 14, (14, 14))
    assert value == pytest.approx(-0.25, abs=1e-15)
    assert unc == pytest.approx(0.0, abs=1e-15)


def test_reconstruct_at_zero():
    from seaqm.spectra import anharmonic_energy_series

    series = anharmonic_energy_series(0, 41)
    value, unc = reconstruct_energy(series, 0.0, 21, 20, (20, 20))
    assert value == 1.0 and unc == 0.0


def test_reconstruct_small_coupling_tight():
    from seaqm.spectra import anharmonic_energy_series

    series = anharmonic_energy_series(0, 41)
    value, unc = reconstruct_energy(series, 0.125, 21, 20, (20, 20))
    assert unc / abs(value) < 1e-3
    assert value == pytest.approx(1.0794103952102574, rel=1e-12)


def test_spurious_pole_detector():
    from seaqm.resummation import spurious_pole_near_root

    # Taylor series of (x - 3/10) / (1 - x/p) with a pole at p = 2995/10000,
    # 5e-4 below the zero at 3/10: the [1/1] approximant reproduces it exactly
    # and the on-interval defect must be flagged (the retry trigger)
    p = F(2995, 10000)
    series = [F(-3, 10)]
    for j in range(1, 8):
        series.append((F(1) - F(3, 10) / p) / p ** (j - 1))
    P = pade(series, 1, 1)
    pole = spurious_pole_near_root(P, 0.3)
    assert pole == pytest.approx(0.2995, abs=1e-9)
    # a pole just beyond the root is physical (level disappearance), not a defect
    p2 = F(3005, 10000)
    series2 = [F(-3, 10)]
    for j in range(1, 8):
        series2.append((F(1) - F(3, 10) / p2) / p2 ** (j - 1))
    assert spurious_pole_near_root(pade(series2, 1, 1), 0.3) is None
    # a clean approximant of the same orders is not flagged either
    clean = pade([F(-3, 10), F(1), F(0), F(0)], 1, 1)
    assert spurious_pole_near_root(clean, 0.3) is None


def test_table_cells_need_no_pole_retry():
    for (n, l) in [(2, 1), (5, 4)]:
        res = critical_lambda(n, l, 30, ((15, 14), (14, 14)))
        assert res.notes == ()
        assert res.pade_used == "[15/14] [14/14]"
