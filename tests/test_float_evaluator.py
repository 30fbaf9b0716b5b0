"""The shared float evaluator: every coupling-series evaluation goes through
`exact.horner` with the operation order of the original per-site loops, so
the values below (recorded with those loops, as float.hex) must come out
bit for bit."""

import math

import pytest

from seaqm.engine import Anharmonic, Hulthen
from seaqm.errors import DomainError
from seaqm.exact import LambdaSeries, LaurentPoly
from seaqm.resummation import pade, pade_eval
from seaqm.spectra import evaluate_truncated, hulthen_energy_series
from seaqm.states import StateRep, build_eigenstate, evaluate_state, state_lambda_series

P = LaurentPoly


@pytest.fixture(scope="module")
def hulthen_52():
    return build_eigenstate(Hulthen(2), 14, n=5, l=2)


@pytest.fixture(scope="module")
def anharmonic_2():
    return build_eigenstate(Anharmonic(), 8, r=2)


def test_evaluate_state_bits_hulthen(hulthen_52):
    expected = {
        0.0: "0x0.0p+0",
        0.5: "0x1.aa1676171ce42p+2",
        3.0: "0x1.2891d3394df6ap+9",
        12.0: "-0x1.d9f84962813eap+8",
        40.0: "0x1.372f1d87ff7d0p+11",
    }
    for x, bits in expected.items():
        assert evaluate_state(hulthen_52, x, 0.02) == float.fromhex(bits)


def test_evaluate_state_bits_full_line(anharmonic_2):
    # nonzero at the origin, so the x = 0 rule is seen with a real value
    expected = {0.0: "-0x1.1f7bfa03bbb0cp+1", -1.5: "0x1.45a024d3ee41cp+1", 0.7: "0x1.c24664da70000p-4"}
    for x, bits in expected.items():
        assert evaluate_state(anharmonic_2, x, 0.05) == float.fromhex(bits)


def test_state_lambda_series_bits(hulthen_52, anharmonic_2):
    odd = "0x0.0p+0"
    expected = [
        "0x1.280fda549414ap+9", odd, "0x1.3c50eff833d53p+11", odd, "0x1.31ffe28d6d732p+14", odd,
        "0x1.cef82fe4ac716p+19", odd, "0x1.455a6e7886890p+26", odd, "0x1.274e718efea30p+33", odd,
        "0x1.36298ee4fcfe0p+40", odd, "0x1.6592b8a774959p+47",
    ]
    assert state_lambda_series(hulthen_52, 3.0) == [float.fromhex(b) for b in expected]
    at_origin = [
        "-0x1.0000000000000p+1", "-0x1.8000000000000p+2", "0x1.c200000000000p+4",
        "-0x1.f920000000000p+7", "0x1.7504d00000000p+11", "-0x1.4592bb8000000p+15",
        "0x1.402dc14080000p+19", "-0x1.59b72c8644000p+23", "0x1.937ce45a75fd0p+27",
    ]
    assert state_lambda_series(anharmonic_2, 0.0) == [float.fromhex(b) for b in at_origin]


def test_energy_evaluation_bits():
    series = hulthen_energy_series(2, 1, 14)
    assert evaluate_truncated(series, 0.1, 14) == float.fromhex("-0x1.4451a8d78da8cp-3")
    assert pade_eval(pade(series.coeffs, 7, 7), 0.2) == float.fromhex("-0x1.5721693e23d78p-4")


def test_pade_float_coefficients_converted_once():
    series = hulthen_energy_series(2, 1, 14).coeffs
    P = pade(series, 7, 7)
    floats = P.float_coefficients
    assert floats == (tuple(map(float, P.numerator)), tuple(map(float, P.denominator)))
    assert P.float_coefficients is floats
    assert pade_eval(P, 0.2) == float.fromhex("-0x1.5721693e23d78p-4")
    # the cache is not part of the value: equality and JSON see only the exact fields
    fresh = pade(series, 7, 7)
    assert P == fresh and P.to_json() == fresh.to_json()


def test_prefactor_built_once(hulthen_52, monkeypatch):
    evaluate_state(hulthen_52, 1.0, 0.02)
    calls = []
    mul = LaurentPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    for x in (0.0, 0.25, 2.0, 9.0):
        evaluate_state(hulthen_52, x, 0.02)
        evaluate_state(hulthen_52, x, 0.01, K=6)
    state_lambda_series(hulthen_52, 2.0)
    assert calls == []


def test_pole_at_origin_rejected_by_both_evaluators():
    # x^0 * (1/x + 1) keeps its pole, which only the origin exposes
    st = StateRep(
        family=Hulthen(0),
        base_rung=0,
        power=0,
        decay=P({1: 1}),
        prefactor=LambdaSeries([P({-1: 1, 0: 1})]),
        G=LambdaSeries([P.zero()]),
    )
    assert evaluate_state(st, 1.0, 0.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)
    with pytest.raises(DomainError, match="pole"):
        evaluate_state(st, 0.0, 0.0)
    with pytest.raises(DomainError, match="pole"):
        state_lambda_series(st, 0.0)


def test_negative_x_rejected_by_both_evaluators_for_radial_states(hulthen_52, anharmonic_2):
    with pytest.raises(DomainError, match="radial"):
        evaluate_state(hulthen_52, -2.0, 0.02)
    with pytest.raises(DomainError, match="radial"):
        state_lambda_series(hulthen_52, -2.0)
    assert len(state_lambda_series(anharmonic_2, -2.0)) == anharmonic_2.order + 1


def test_order_beyond_state_rejected_by_both_evaluators(hulthen_52):
    with pytest.raises(DomainError):
        evaluate_state(hulthen_52, 1.0, 0.02, K=15)
    with pytest.raises(DomainError):
        state_lambda_series(hulthen_52, 1.0, K=15)
