"""Energy-series assembly and closed-form tests."""

import math
from fractions import Fraction

import pytest
from scipy import integrate

from seaqm.errors import OrderExceeded, OutOfBoundDomain
from seaqm.reference import BENDER_WU, hulthen_energy_coefficient
from seaqm.spectra import (
    anharmonic_energy_series,
    evaluate_truncated,
    hulthen_energy_closed_l0,
    hulthen_energy_series,
    hulthen_l0_state,
)

F = Fraction


# --------------------------------------------------------- screened Coulomb -


def test_hulthen_series_2p():
    # the order-2 coefficient is -5/6 at (n=2, l=1): both the recurrence and the
    # closed (n^2, L^2) polynomial -(3n^2 - L^2)/12 give -10/12
    series = hulthen_energy_series(2, 1, 2)
    assert series.coeffs == (F(-1, 4), F(1), F(-5, 6))


def test_hulthen_series_1s_truncates():
    series = hulthen_energy_series(1, 0, 5)
    assert series.coeffs == (F(-1), F(1), F(-1, 4), F(0), F(0), F(0))


def test_hulthen_series_coulomb_limit():
    assert hulthen_energy_series(3, 2, 0).coeffs == (F(-1, 9),)


def test_hulthen_series_label_validation():
    with pytest.raises(ValueError):
        hulthen_energy_series(2, 2, 3)
    with pytest.raises(ValueError):
        hulthen_energy_series(0, 0, 3)


def test_closed_l0_values():
    assert hulthen_energy_closed_l0(1, 0.0) == -1.0
    assert hulthen_energy_closed_l0(2, 0.5) == 0.0  # the critical point itself
    assert hulthen_energy_closed_l0(1, 1.0) == -0.25
    with pytest.raises(OutOfBoundDomain):
        hulthen_energy_closed_l0(2, 0.6)
    with pytest.raises(OutOfBoundDomain):
        hulthen_energy_closed_l0(1, -0.1)


def test_l0_state_eta_shapes():
    s1 = hulthen_l0_state(1)
    # eta_1 is proportional to y
    assert dict(s1.c[1].items()) == {0: F(1)}
    s2 = hulthen_l0_state(2)
    # eta_2 ~ y - (1/2)(1/lam + 1) y^2 under the c_1 = 1 normalization
    assert dict(s2.c[2].items()) == {0: F(-1, 2), 1: F(-1, 2)}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_l0_state_quantization_terminates(n):
    assert hulthen_l0_state(n).quantization_residual().is_zero


def test_l0_ground_state_matches_sinh_form():
    s = hulthen_l0_state(1)
    lam = 0.8
    for x in (0.4, 1.7, 6.0):
        expected = 2.0 * math.exp(-x) * math.sinh(lam * x / 2.0)
        assert s.wavefunction(x, lam) == pytest.approx(expected, rel=1e-12)


def test_l0_normalized_closed_forms_have_unit_norm():
    # the closed forms with their quoted prefactors integrate to one
    lam = 0.6
    phi1 = lambda x: 2 * math.sqrt(4 - lam**2) / lam * math.exp(-x) * math.sinh(lam * x / 2)
    val, _ = integrate.quad(lambda x: phi1(x) ** 2, 0, 80)
    assert val == pytest.approx(1.0, rel=1e-10)
    lam2 = 0.2  # level 2 is bound for lam < 1/2
    pref = math.sqrt(2) * math.sqrt(1 - 4 * lam2**2) / lam2
    phi2 = lambda x: pref * math.exp(-(1 - lam2) / 2 * x) * math.sinh(lam2 * x / 2) * (
        1 - (1 / lam2 + 1) * math.exp(-lam2 * x / 2) * math.sinh(lam2 * x / 2)
    )
    val, _ = integrate.quad(lambda x: phi2(x) ** 2, 0, 300, limit=300)
    assert val == pytest.approx(1.0, rel=1e-9)
    s = hulthen_l0_state(2)
    # same shape up to normalization: constant ratio at two abscissas
    ratios = [phi2(x) / s.wavefunction(x, lam2) for x in (1.0, 7.0)]
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-10)


# --------------------------------------------------------------- anharmonic -


def test_anharmonic_series_ground():
    series = anharmonic_energy_series(0, 3)
    assert series.coeffs == (F(1), F(3, 4), F(-21, 16), F(333, 64))


def test_anharmonic_series_r2_leading():
    assert anharmonic_energy_series(2, 0).coeffs == (F(5),)


def test_anharmonic_series_first_excited():
    # eps_{1,1} = 15/4: the two tabulated forms (3/2)(r^2+r+1/2) and
    # (3/4)(2r^2+2r+1) agree with the recurrence here
    series = anharmonic_energy_series(1, 2)
    assert series.coeffs == (F(3), F(15, 4), F(-165, 16))


def _richardson(seq: dict[int, float], N: int) -> float:
    """The k -> oo limit of seq(k) = c_0 + c_1/k + ... + c_N/k^N through its
    last N + 1 terms (Bender & Orszag, Advanced Mathematical Methods, 8.1)."""
    k0 = max(seq) - N
    return sum(
        (-1) ** (j + N) * (k0 + j) ** N * seq[k0 + j] / (math.factorial(j) * math.factorial(N - j))
        for j in range(N + 1)
    )


@pytest.mark.parametrize("r", [0, 1])
def test_anharmonic_series_follows_bender_wu_at_large_order(r):
    """Orders 20..41 against the Bender-Wu large-order law, a check that does
    not come from the engine.

    Bender & Wu, Phys. Rev. D 7 (1973) 1620, expand level K of
    H = p^2 + x^2/4 + g x^4/4 as E_K(g) = K + 1/2 + sum_n A_n g^n and find
    A_n ~ (-1)^(n+1) (sqrt(6)/pi^(3/2)) (12^K/K!) 3^n Gamma(n + K + 1/2),
    with the ground level's next term a factor 1 - 95/(72 n).  Here
    H = -d^2/dx^2 + x^2 + lam x^4; x -> x/sqrt(2) makes it twice theirs at
    g = lam/2, so a_k = 2 A_k / 2^k (`BENDER_WU` holds A_1..A_3 of the ground
    level), and a_k over (-1)^(k+1) (2 sqrt(6)/pi^(3/2)) (12^r/r!) (3/2)^k
    Gamma(k + r + 1/2) tends to 1 from below.
    """
    a = anharmonic_energy_series(r, 41).coeffs
    if r == 0:
        assert {k: 2 ** (k - 1) * a[k] for k in BENDER_WU} == BENDER_WU
    law = 2 * math.sqrt(6) / math.pi**1.5 * 12**r / math.factorial(r)
    ratio = {k: float(a[k]) / ((-1) ** (k + 1) * law * 1.5**k * math.gamma(k + r + 0.5)) for k in range(20, 42)}
    assert all(ratio[k - 1] < ratio[k] < 1 for k in range(21, 42))
    assert _richardson(ratio, 4) == pytest.approx(1, abs=1e-3)
    if r == 0:  # k^2 (ratio(k) - ratio(k-1)) tends to -c_1
        slope = {k: -k * (k - 1) * (ratio[k] - ratio[k - 1]) for k in range(21, 42)}
        assert _richardson(slope, 4) == pytest.approx(-95 / 72, abs=1e-2)


# --------------------------------------------------------------- evaluation -


def test_evaluate_truncated_examples():
    l0 = hulthen_energy_series(1, 0, 3)
    assert evaluate_truncated(l0, 2.0, 2) == pytest.approx(0.0, abs=1e-14)
    assert evaluate_truncated(l0, 0.0, 3) == -1.0
    anh = anharmonic_energy_series(0, 2)
    assert evaluate_truncated(anh, 0.1, 1) == pytest.approx(1.075)
    with pytest.raises(OrderExceeded):
        evaluate_truncated(anh, 0.1, 5)


# -------------------------------------------------- invariants & properties -


def test_energy_depends_only_on_n2_L2():
    for (n, l) in [(3, 1), (4, 2), (5, 1)]:
        series = hulthen_energy_series(n, l, 8)
        n2, L2 = F(n * n), F(l * (l + 1))
        for k in range(9):
            assert series.coeffs[k] == hulthen_energy_coefficient(k, n2, L2)


def test_even_orders_vanish_at_l0():
    series = hulthen_energy_series(4, 0, 10)
    for k in range(4, 11, 2):
        assert series.coeffs[k] == 0


def test_edge_state_consistency_order_two():
    # at l = n - 1 the chain is a single rung; eps_2 specializes to -n(2n+1)/12
    for n in (2, 3, 6):
        series = hulthen_energy_series(n, n - 1, 2)
        assert series.coeffs[2] == -F(n * (2 * n + 1), 12)
        L2 = F(n * n - n)
        assert hulthen_energy_coefficient(2, F(n * n), L2) == -F(n * (2 * n + 1), 12)


def test_bender_wu_bridge():
    series = anharmonic_energy_series(0, 3)
    doubled = [F(2) ** (k - 1) * series.coeffs[k] for k in range(4)]
    assert doubled[1:] == [F(3, 4), F(-21, 8), F(333, 16)]


# ------------------------------------------------------------- serialization -


def test_energy_series_json():
    series = hulthen_energy_series(2, 1, 2)
    assert series.to_json() == {
        "family": "hulthen",
        "n": 2,
        "l": 1,
        "K": 2,
        "coeffs": ["-1/4", "1", "-5/6"],
    }


def test_energy_series_csv_thirty_digits():
    series = hulthen_energy_series(2, 1, 2)
    rows = series.to_csv_rows()
    assert rows[0] == (0, "-0.25")
    k, text = rows[2]
    assert k == 2
    assert text.startswith("-0.8333333333333333333333333333")
    assert len(text.replace("-0.", "")) == 30
