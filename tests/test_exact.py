"""Exact-arithmetic substrate tests."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seaqm.errors import NonIntegrableTerm, OrderExceeded
from seaqm.exact import (
    LambdaSeries,
    LaurentPoly,
    bernoulli_minus,
    horner,
    rational_to_str,
)

from family_recurrences import bernoulli_at

F = Fraction
P = LaurentPoly


# ---------------------------------------------------------------- Bernoulli -


def test_bernoulli_known_values():
    assert bernoulli_minus(0) == 1
    assert bernoulli_minus(1) == F(-1, 2)
    assert bernoulli_minus(2) == F(1, 6)
    assert bernoulli_minus(3) == 0
    assert bernoulli_minus(4) == F(-1, 30)


def test_bernoulli_odd_vanish_through_31():
    for k in range(3, 32, 2):
        assert bernoulli_minus(k) == 0


def test_bernoulli_matches_independent_scheme():
    # double sum (package) vs Akiyama-Tanigawa (test helper)
    for k in range(0, 25):
        assert bernoulli_minus(k) == bernoulli_at(k)


def test_bernoulli_h1_matches_first_order_energy():
    # the order-1 potential coefficient -2*B_1 must equal the exact eps_1 = 1
    assert -2 * bernoulli_minus(1) == 1


def test_bernoulli_negative_index_rejected_every_time():
    # the cache must not swallow the error after a first rejection
    for _ in range(2):
        with pytest.raises(ValueError):
            bernoulli_minus(-1)


# ------------------------------------------------------------- LaurentPoly -


def test_poly_mul_monomials():
    assert P.monomial(1) * P.monomial(1) == P.monomial(2)


@pytest.mark.parametrize("b", [1, 2, 5, F(3, 2)])
def test_poly_mul_binomial_square(b):
    w = P({0: F(1, b) if b != 0 else 0, -1: -F(b)})
    expected = P({0: F(1, b) ** 2, -1: F(-2), -2: F(b) ** 2})
    assert w * w == expected


def test_poly_mul_scaled_monomials():
    b = F(7)
    p = P({1: -b / 12})
    assert p * p == P({2: b * b / 144})


def test_poly_derivative_cases():
    b = F(3)
    assert P({-1: -b}).derivative() == P({-2: b})
    assert P.monomial(3).derivative() == P({2: 3})
    assert P.constant(F(5, 7)).derivative() == P.zero()


def test_poly_antiderivative_cases():
    b = F(5)
    assert P({1: -b / 12}).antiderivative() == P({2: -b / 24})
    assert P.zero().antiderivative() == P.zero()
    with pytest.raises(NonIntegrableTerm):
        P.monomial(-1).antiderivative()


def test_degree_bounds_and_canonical_form():
    p = P({3: F(1), -2: F(4), 5: F(0)})
    assert p.min_exponent == -2 and p.max_exponent == 3
    assert len(p) == 2  # the explicit zero was dropped
    assert P.zero().min_exponent is None and P.zero().max_exponent is None


def test_poly_evaluation():
    p = P({-1: F(1), 2: F(3)})
    assert p(2.0) == pytest.approx(0.5 + 12.0)
    assert p.eval_exact(F(1, 2)) == F(2) + F(3, 4)


coeffs = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
polys = st.dictionaries(st.integers(min_value=-6, max_value=8), coeffs, max_size=6).map(P)


@given(polys)
def test_derivative_inverts_antiderivative(p):
    assume(p.coeff(-1) == 0)  # the roundtrip holds whenever the antiderivative exists
    assert p.antiderivative().derivative() == p


@given(polys, polys)
def test_poly_mul_commutes(a, b):
    assert a * b == b * a


@given(polys)
@settings(max_examples=60)
def test_poly_json_roundtrip(p):
    assert P.from_json(p.to_json()) == p


def test_poly_json_format():
    assert P({-1: F(1, 3), 2: F(-5)}).to_json() == {"-1": "1/3", "2": "-5"}


def test_rational_string_forms():
    assert rational_to_str(F(3, 1)) == "3"
    assert rational_to_str(F(-7, 12)) == "-7/12"


# ------------------------------------------------------------------ horner -


def test_horner_operation_order():
    # from the top coefficient down, starting at 0.0: ((0*t + c2)*t + c1)*t + c0
    t = 0.3
    expected = ((0.0 * t + float(F(1, 7))) * t - 2.5) * t + 1.0
    assert horner([1, -2.5, F(1, 7)], t) == expected
    assert horner((), t) == 0.0
    assert horner([F(3, 4)], 123.0) == 0.75


# ------------------------------------------------------------ LambdaSeries -


def _series(*polys):
    return LambdaSeries(list(polys))


def test_convolution_order_zero():
    w = _series(P.monomial(1), P.zero())
    assert (w * w)[0] == P.monomial(2)


def test_convolution_order_one():
    # 2 * x * (3/4 x + 1/2 x^3) = 3/2 x^2 + x^4
    w = _series(P.monomial(1), P({1: F(3, 4), 3: F(1, 2)}))
    assert (w * w)[1] == P({2: F(3, 2), 4: F(1)})


def test_convolution_zero_inputs():
    w = _series(P.zero(), P.zero(), P.monomial(2))
    assert (w * w)[1] == P.zero()


def test_convolution_order_exceeded():
    w = _series(P.monomial(1))
    with pytest.raises(OrderExceeded):
        (w * w)[1]


@given(st.lists(polys, min_size=1, max_size=4), st.lists(polys, min_size=1, max_size=4))
@settings(max_examples=40)
def test_convolution_symmetric(a, b):
    sa, sb = LambdaSeries(a), LambdaSeries(b)
    k = min(sa.order, sb.order)
    assert (sa * sb)[k] == (sb * sa)[k]


def test_series_binary_ops_use_min_order():
    a = _series(P.monomial(1), P.monomial(2), P.monomial(3))
    b = _series(P.constant(1), P.constant(2))
    assert (a + b).order == 1
    assert (a * b).order == 1
    assert (a * b)[1] == P.monomial(1) * F(2) + P.monomial(2)


def test_series_indexing_bounds():
    a = _series(P.zero())
    with pytest.raises(OrderExceeded):
        a[1]
    with pytest.raises(OrderExceeded):
        a.truncated(3)
