"""Exact-arithmetic substrate tests."""

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seaqm.errors import NonIntegrableTerm
from seaqm.exact import (
    LaurentPoly,
    _dense_dot,
    _dense_poly,
    _dense_reduced,
    bernoulli_minus,
    horner,
    rational_from_str,
    rational_to_str,
)
from seaqm.states import _cauchy

from family_recurrences import bernoulli_at, dict_add, dict_derivative, dict_mul, plain

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
    # recurrence (package) vs Akiyama-Tanigawa (test helper)
    for k in range(0, 61):
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


@st.composite
def kernel_terms(draw):
    """`_dense_dot` inputs the small `polys` never reach: numerators up to
    2^400, operands with every s-th term only (s = 1, 2 or 3: odd-only and
    even-only polynomials at s = 2), lowest exponents on one residue class
    mod s or anywhere (an odd difference forces s = 1 on stride-2 operands),
    weights of 0, and sums that cancel in some slots or in all of them."""
    s = draw(st.sampled_from([1, 2, 3]))
    base = draw(st.integers(min_value=-4, max_value=4))
    aligned = draw(st.booleans())

    def operand():
        lo = base + s * draw(st.integers(-2, 3)) if aligned else draw(st.integers(-6, 8))
        nums = draw(st.lists(st.integers(-(2**400), 2**400), min_size=1, max_size=8))
        den = draw(st.integers(1, 2**64))
        return P({lo + s * i: F(n, den) for i, n in enumerate(nums)})

    terms = [(draw(st.integers(-3, 3)), operand(), operand()) for _ in range(draw(st.integers(1, 5)))]
    cancel = draw(st.sampled_from(["none", "some", "all"]))
    if cancel == "all":  # the same products, operands swapped: every slot cancels
        terms += [(-c, b, a) for c, a, b in terms]
    elif cancel == "some":  # one term of b changed: only a's span, shifted, survives
        terms += [(-c, a, b + P.monomial(b.min_exponent or 0, 1)) for c, a, b in terms]
    return terms


small_terms = st.lists(st.tuples(st.integers(min_value=-3, max_value=3), polys, polys), max_size=5)


@given(st.one_of(small_terms, kernel_terms()))
@example([(1, P({1: 2**400, 3: -5}), P({-1: F(1, 3), 1: 7}))])  # odd times odd: s = 2
@example([(2, P({0: 1, 3: -(2**300), 6: 5}), P({2: F(3, 7), 5: 1})), (-1, P({3: 1}), P({2: 1}))])  # s = 3
@example([(1, P({1: 1, 3: 1}), P({1: 1, 3: 1})), (1, P({0: 1, 2: 1}), P({1: 1}))])  # odd shift: s = 1
@example([(0, P({1: 5}), P({2: 7})), (3, P({0: F(1, 2), 2: 1}), P({0: 2**400}))])  # a zero weight
@example([(2, P({0: 2**400, 2: -1}), P({1: F(1, 9)})), (-2, P({1: F(1, 9)}), P({0: 2**400, 2: -1}))])  # all cancel
@example([(1, P({0: 3, 2: 1}), P({0: 1, 2: 5})), (-1, P({0: 3, 2: 1}), P({0: 2, 2: 5}))])  # some cancel
@example([(-3, P(dict.fromkeys(range(150), 2**400 - 1)), P(dict.fromkeys(range(150), 2**400 - 1)))])  # digits near N
@settings(max_examples=120, deadline=None)
def test_integer_kernel_matches_fraction_products(terms):
    # weighted sums of products by the one product kernel, over the lcm of the
    # products' denominators, and LaurentPoly's operators, which are that
    # kernel and the integer combination, against plain {exponent: Fraction}
    # arithmetic
    expected: dict = {}
    for c, a, b in terms:
        expected = dict_add(expected, dict_mul(plain(a), plain(b)), c)
    lo, nums, den = _dense_dot(terms)
    assert den == lcm(*(a._dense[2] * b._dense[2] for c, a, b in terms if c and a and b))
    got = _dense_poly(_dense_reduced(lo, nums, den))
    assert plain(got) == expected
    assert got == P(expected)  # the canonical form, whichever route built it
    for c, a, b in terms:
        assert plain(a + b) == dict_add(plain(a), plain(b))
        assert plain(a - b) == dict_add(plain(a), plain(b), -1)
        assert plain(-a) == dict_add({}, plain(a), -1)
        assert plain(a * b) == dict_mul(plain(a), plain(b))
        assert plain(a * c) == plain(c * a) == dict_add({}, plain(a), c)
        assert plain(a.derivative()) == dict_derivative(plain(a))


@given(polys)
@example(P({1: 1, 2: 1}))
def test_float_terms_do_not_depend_on_the_route(p):
    # a Mapping in either key order, a sum, a product and a JSON round trip
    # all give one canonical form, so the same floats in the same order
    terms = list(p.items())
    routes = [
        P(dict(terms)),
        P(dict(reversed(terms))),
        sum((P.monomial(e, c) for e, c in reversed(terms)), P.zero()),
        P.monomial(1) * P({e - 1: c for e, c in terms}),
        P.from_json(p.to_json()),
    ]
    expected = tuple((e, float(c)) for e, c in reversed(terms))
    for q in routes:
        assert q.float_terms == expected


def test_exponents_must_be_integers():
    # a float exponent is an error, never truncated to an integer one
    with pytest.raises(TypeError):
        P({1.5: 1})
    with pytest.raises(ValueError):
        P.from_json({"1.5": "1"})
    assert P({np.int64(2): F(1, 3)}) == P.monomial(2, F(1, 3))


@given(st.fractions())
@example(F(0))
@example(F(-7, 3))
def test_rational_from_str_inverts_rational_to_str(q):
    assert rational_from_str(rational_to_str(q)) == q


def test_rational_from_str_reads_only_its_grammar():
    assert rational_from_str("-0012/4") == F(-3)
    for bad in ("1/0", "1e5", "1.5", "+1", " 1", "1 ", "1_0", "-", "/2", "1/-2", "١", "", 1, F(1)):
        with pytest.raises(ValueError):
            rational_from_str(bad)


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


def test_horner_on_arrays_is_the_scalar_horner():
    # a grid array for t, or array coefficients (a state's table rows), give
    # each element's scalar value bit for bit; Fractions still enter as floats
    coeffs = [1, -2.5, F(1, 7), 3e-17, F(-10**30, 3)]
    ts = [0.3, -1.7, 0.0, -0.0, 1e5, float("inf")]
    with np.errstate(all="ignore"):
        grid = horner(coeffs, np.array(ts))
        rows = horner([np.array([float(c)] * 2) for c in coeffs], 0.3)
    assert [v.hex() for v in grid.tolist()] == [horner(coeffs, t).hex() for t in ts]
    assert rows.tolist() == [horner(coeffs, 0.3)] * 2


# ------------------------------------- Cauchy product of coupling series -


def test_convolution_order_zero():
    w = (P.monomial(1), P.zero())
    assert _cauchy(w, w)[0] == P.monomial(2)


def test_convolution_order_one():
    # 2 * x * (3/4 x + 1/2 x^3) = 3/2 x^2 + x^4
    w = (P.monomial(1), P({1: F(3, 4), 3: F(1, 2)}))
    assert _cauchy(w, w)[1] == P({2: F(3, 2), 4: F(1)})


def test_convolution_zero_inputs():
    w = (P.zero(), P.zero(), P.monomial(2))
    assert _cauchy(w, w)[1] == P.zero()


@given(st.lists(polys, min_size=1, max_size=4), st.lists(polys, min_size=1, max_size=4))
@settings(max_examples=40)
def test_convolution_symmetric(a, b):
    assert _cauchy(a, b) == _cauchy(b, a)


@given(st.lists(polys, min_size=1, max_size=5), st.lists(polys, min_size=1, max_size=5))
@settings(max_examples=60)
def test_convolution_is_one_sum_of_its_products(a, b):
    # each order is one integer-kernel sum of its products; the definition, a
    # left-to-right sum of LaurentPoly products, gives the same polynomials
    expected = tuple(
        reduce(add, (a[m] * b[k - m] for m in range(1, k + 1)), a[0] * b[k])
        for k in range(min(len(a), len(b)))
    )
    assert _cauchy(a, b) == expected


def test_convolution_truncates_at_shorter_series():
    a = (P.monomial(1), P.monomial(2), P.monomial(3))
    b = (P.constant(1), P.constant(2))
    assert _cauchy(a, b) == _cauchy(b, a) == (P.monomial(1), P.monomial(1) * F(2) + P.monomial(2))
