"""Chain solver tests: leading terms, triangular orders, partner ladders."""

import json
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seaqm.engine as engine
from seaqm.engine import (
    Anharmonic,
    ChainSolution,
    GenericPerturbed,
    Hulthen,
    LeadingSuperpotential,
    ProblemFamily,
    riccati_residual,
    solve_chain,
)
from seaqm.engine import _back_substitute, _self_convolution, _solve_chain_cached
from seaqm.errors import InvalidLeading, ResidualNonzero, UnsolvableOrder
from seaqm.exact import LaurentPoly, _dense_combine, _dense_dot, _dense_sum

from family_recurrences import (
    anharmonic_ladder,
    dict_add,
    dict_derivative,
    dict_mul,
    hulthen_ladder,
    plain,
)
from make_chain_digests import DIGEST_FILE, chain_digest, golden_chains

F = Fraction
P = LaurentPoly

# sparse Laurent polynomials with poles, zero polynomials and mixed denominators
polys = st.dictionaries(
    st.integers(min_value=-4, max_value=6),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    max_size=5,
).map(P)


# ------------------------------------------------------ potential expansion -


def test_hulthen_potential_order_zero():
    for l in (0, 1, 3):
        expected = P({-2: F(l * (l + 1)), -1: F(-2)})
        assert solve_chain(Hulthen(l), 0, 0).rung(0).potential[0] == expected


def test_anharmonic_potential_orders():
    v = solve_chain(Anharmonic(), 0, 7).rung(0).potential
    assert v[0] == P.monomial(2)
    assert v[1] == P.monomial(4)
    assert v[2] == P.zero()
    assert v[7] == P.zero()


def test_partner_potential_order_zero():
    for l in (0, 2):
        got = solve_chain(Hulthen(l), 1, 0).rung(1).potential[0]
        assert got == P({-2: F((l + 1) * (l + 2)), -1: F(-2)})


def test_partner_potential_needs_chain():
    # a loaded rung's potential comes from the rung below it, so a chain
    # document must hold rungs 0..rMax in order, each through order K
    doc = solve_chain(Hulthen(0), 2, 2).to_json()
    rungs = doc["rungs"]
    with pytest.raises(ValueError, match="rungs 0..rMax"):
        ChainSolution.from_json({**doc, "rungs": [rungs[0], rungs[2]]})  # rung 1 dropped
    with pytest.raises(ValueError, match="rungs 0..rMax"):
        ChainSolution.from_json({**doc, "rungs": [rungs[1], rungs[0], rungs[2]]})
    short = {**rungs[1], "superpotential": rungs[1]["superpotential"][:2]}
    with pytest.raises(ValueError, match="orders 0..2"):
        ChainSolution.from_json({**doc, "rungs": [rungs[0], short, rungs[2]]})


# ------------------------------------------------------------ leading terms -


def test_hulthen_leading_examples():
    lead = Hulthen(0).rung_leading(0)
    assert lead.as_poly() == P({0: F(1), -1: F(-1)}) and lead.leading_energy == -1
    lead = Hulthen(1).rung_leading(3)
    assert lead.as_poly() == P({0: F(1, 5), -1: F(-5)}) and lead.leading_energy == F(-1, 25)
    # rung r of Hulthen(l) is the Coulomb term of n = l + 1 + r
    for l in range(4):
        for r in range(7):
            b = l + 1 + r
            assert Hulthen(l).rung_leading(r) == LeadingSuperpotential(-b, F(1, b), 0, F(-1, b * b))


def test_anharmonic_leading_examples():
    lead = Anharmonic().rung_leading(3)
    assert lead.as_poly() == P.monomial(1) and lead.leading_energy == 7
    lead = Anharmonic().rung_leading(0)
    assert lead.leading_energy == 1


def stepwise_rung_leading(lead: LeadingSuperpotential, r: int) -> LeadingSuperpotential:
    """The partner rule one rung at a time: each new order-0 term must solve
    ``v_{s+1,0} = v_{s,0} + 2 w_{s,0}'``, checked at every step."""
    v0 = lead.order_zero_potential()
    for _ in range(r):
        v0 = v0 + 2 * lead.as_poly().derivative()
        if lead.pole != 0:
            pole = lead.pole - 1
            const = lead.constant * lead.pole / pole
            lead = LeadingSuperpotential(pole, const, 0, lead.leading_energy + lead.constant**2 - const**2)
        else:
            lead = LeadingSuperpotential(0, lead.constant, lead.linear, lead.leading_energy + 2 * lead.linear)
        assert lead.order_zero_potential() == v0
    return lead


@pytest.mark.parametrize("lead", [
    LeadingSuperpotential(-2, F(1, 2), 0, F(-1, 4)),
    LeadingSuperpotential(F(-3, 2), 1, 0, -1),
    LeadingSuperpotential(0, F(1, 2), 1, F(3, 4)),
])
def test_closed_form_rung_leading_matches_stepwise_partner_rule(lead):
    family = GenericPerturbed(lead, P.monomial(1))
    for r in range(7):
        assert family.rung_leading(r) == stepwise_rung_leading(lead, r), r


def test_positive_integer_pole_terminates_the_ladder():
    family = GenericPerturbed(LeadingSuperpotential(2, 1, 0, -1), P.monomial(1))
    assert family.rung_leading(1).pole == 1
    for r in (2, 3):
        with pytest.raises(InvalidLeading, match="ladder terminates"):
            family.rung_leading(r)
    with pytest.raises(InvalidLeading, match="non-negative"):
        family.rung_leading(-1)


def test_wrong_order_zero_term_fails_the_residual_check(monkeypatch):
    # the closed form is not checked on its own: the order-0 row of the exact
    # Riccati check that every solved rung passes must catch a wrong term
    closed_form = ProblemFamily.rung_leading

    def shifted(family, r):
        lead = closed_form(family, r)
        return replace(lead, leading_energy=lead.leading_energy + F(1, 7)) if r == 1 else lead

    monkeypatch.setattr(ProblemFamily, "rung_leading", shifted)
    lead = LeadingSuperpotential(-2, F(1, 3), 0, F(-1, 9))  # a family no other test solves
    with pytest.raises(ResidualNonzero, match=r"rung 1 .* orders \[0\]$"):
        solve_chain(GenericPerturbed(lead, P.monomial(5)), 1, 3)


def test_leading_shape_validation():
    with pytest.raises(InvalidLeading):
        LeadingSuperpotential(pole=F(1), constant=F(0), linear=F(1), leading_energy=F(0))
    with pytest.raises(InvalidLeading):
        LeadingSuperpotential(pole=F(0), constant=F(1), linear=F(0), leading_energy=F(0))


# -------------------------------------------------------------- convolution -


def B(w, k):
    """``B_k = sum_{m+n=k, m,n>=1} w_m w_n`` from the solver's kernel terms."""
    return _dense_sum([(1, _dense_dot(_self_convolution(w, k)))])


def plain_B(w, k):
    """``B_k`` by plain {exponent: Fraction} products of every pair m + n = k,
    which share no code with the product kernel."""
    out: dict = {}
    for m in range(1, k):
        out = dict_add(out, dict_mul(plain(w[m]), plain(w[k - m])))
    return out


def test_convolution_B_order_one_empty():
    chain = solve_chain(Hulthen(2), 0, 3)
    assert _self_convolution(chain.rung(0).w, 1) == []
    assert B(chain.rung(0).w, 1) == P.zero()


@pytest.mark.parametrize("l", [0, 1, 2])
def test_convolution_B_hulthen_k4(l):
    b = F(l + 1)
    chain = solve_chain(Hulthen(l), 0, 4)
    # only the square of the order-2 term contributes at x^2
    assert B(chain.rung(0).w, 4).coeff(2) == b * b / 144


def test_convolution_B_anharmonic_k2():
    chain = solve_chain(Anharmonic(), 0, 2)
    assert B(chain.rung(0).w, 2).coeff(4) == F(3, 4)


@given(st.lists(polys, min_size=1, max_size=7))
@settings(max_examples=50)
def test_convolution_B_matches_fraction_sum(w):
    for k in range(len(w) + 1):
        expected: dict = {}
        for m in range(1, k):
            expected = dict_add(expected, dict_mul(plain(w[m]), plain(w[k - m])))
        assert plain(B(w, k)) == expected


@given(st.lists(st.tuples(polys, polys, st.fractions(max_denominator=40)), min_size=1, max_size=6))
@settings(max_examples=40)
def test_riccati_residual_matches_series_product(orders):
    # reference: the Cauchy product C = W * W in plain {exponent: Fraction}
    # arithmetic, term by term
    W, v, eps = (list(col) for col in zip(*orders))
    K = len(W) - 1
    expected = []
    for k in range(K + 1):
        C_k: dict = {}
        for m in range(k + 1):
            C_k = dict_add(C_k, dict_mul(plain(W[m]), plain(W[k - m])))
        C_k = dict_add(C_k, dict_derivative(plain(W[k])), -1)
        expected.append(dict_add(dict_add(C_k, plain(v[k]), -1), {0: eps[k]}))
    assert [plain(res) for res in riccati_residual(W, v, eps, K)] == expected


# ------------------------------------------------------------ single orders -


@pytest.mark.parametrize("l", [0, 1, 4])
def test_hulthen_order_two_and_three(l):
    b = F(l + 1)
    rung = solve_chain(Hulthen(l), 0, 3).rung(0)
    assert rung.w[2] == P({1: -b / 12})
    assert rung.energy[2] == -b * (2 * b + 1) / 12
    assert rung.w[3] == P.zero() and rung.energy[3] == 0


@pytest.mark.parametrize("l", [0, 2, 3])
def test_hulthen_order_four_matches_closed_form(l):
    b = F(l + 1)
    rung = solve_chain(Hulthen(l), 0, 4).rung(0)
    assert rung.w[4] == P({
        1: -b**3 * (b - 1) * (b + 1) / 480,
        2: -b**2 * (b - 1) / 480,
        3: b / 720,
    })
    assert rung.energy[4] == -b**3 * (b - 1) * (b + 1) * (2 * b + 1) / 480


def test_anharmonic_order_two():
    rung = solve_chain(Anharmonic(), 0, 2).rung(0)
    assert rung.w[2] == P({1: F(-21, 16), 3: F(-11, 16), 5: F(-1, 8)})
    assert rung.energy[2] == F(-21, 16)


def test_anharmonic_order_five_energy():
    assert solve_chain(Anharmonic(), 0, 5).rung(0).energy[5] == F(916731, 4096)


# ------------------------------------------------- integer back-substitution -


def fraction_back_substitution(
    leading: LeadingSuperpotential, rhs: LaurentPoly
) -> tuple[LaurentPoly, Fraction]:
    """The per-coefficient Fraction loop the integer kernel replaced, kept
    verbatim as the reference."""
    mn = rhs.min_exponent
    if mn is not None and mn < 0:
        raise UnsolvableOrder(f"inhomogeneity has a pole (min exponent {mn})")
    top = rhs.max_exponent if rhs.max_exponent is not None else 0
    w: dict[int, Fraction] = {}
    if leading.pole != 0:
        c, p = leading.constant, leading.pole
        if c == 0:
            raise UnsolvableOrder("Coulomb-type leading term with zero constant part")
        # row x^beta, beta >= 1:  2c*w_beta + (2p - beta - 1)*w_{beta+1} = rhs_beta
        for beta in range(top, 0, -1):
            val = (rhs.coeff(beta) - (2 * p - beta - 1) * w.get(beta + 1, Fraction(0))) / (2 * c)
            if val:
                w[beta] = val
        eps = rhs.coeff(0) - (2 * p - 1) * w.get(1, Fraction(0))
    else:
        c, om = leading.constant, leading.linear
        # row x^beta, beta >= 1:  2om*w_{beta-1} + 2c*w_beta - (beta+1)*w_{beta+1} = rhs_beta
        for beta in range(top, 0, -1):
            val = (
                rhs.coeff(beta)
                - 2 * c * w.get(beta, Fraction(0))
                + (beta + 1) * w.get(beta + 1, Fraction(0))
            ) / (2 * om)
            if val:
                w[beta - 1] = val
        w0 = w.pop(0, Fraction(0))
        eps = rhs.coeff(0) - 2 * c * w0 + w.get(1, Fraction(0))
        if w0:
            w[0] = w0
    return LaurentPoly(w), eps


nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=9).filter(bool)
coulomb_leads = st.builds(lambda p, c: LeadingSuperpotential(p, c, 0, 0), nonzero, nonzero)
oscillator_leads = st.builds(
    lambda c, om: LeadingSuperpotential(0, c, om, 0),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
    nonzero,
)
# pole-free right-hand sides with mixed denominators, including 0 and constants
rhs_polys = st.dictionaries(
    st.integers(min_value=0, max_value=9),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    max_size=6,
).map(P)


@given(st.one_of(coulomb_leads, oscillator_leads), rhs_polys, polys)
@example(LeadingSuperpotential(-3, F(1, 3), 0, 0), P.zero(), P.zero())
@example(LeadingSuperpotential(0, F(1, 2), F(3, 4), 0), P.zero(), P.zero())
@example(LeadingSuperpotential(F(-5, 2), F(2, 7), 0, 0), P.constant(F(-7, 6)), P.monomial(-2))
@example(LeadingSuperpotential(0, F(-1, 3), F(5, 2), 0), P.constant(F(4, 9)), P.monomial(3))
@settings(max_examples=100)
def test_integer_back_substitution_matches_fraction_loop(lead, rhs, cancel):
    expected = fraction_back_substitution(lead, rhs)
    # the same right-hand side as the rung loop forms it: an unreduced integer
    # combination over a larger denominator, with zero numerators at its ends
    combined = _dense_combine([(1, rhs._dense), (3, cancel._dense), (-3, cancel._dense)])
    top_first = tuple((e, float(c)) for e, c in reversed(list(expected[0].items())))
    for w, eps in (_back_substitute(lead, rhs._dense), _back_substitute(lead, combined)):
        assert (w, eps) == expected
        assert w.float_terms == top_first


def test_integer_back_substitution_errors():
    coulomb = LeadingSuperpotential(F(-3, 2), F(1, 5), 0, 0)
    oscillator = LeadingSuperpotential(0, F(1, 2), 1, 0)
    pole = P({-1: F(2, 3), 2: F(1)})
    for lead in (coulomb, oscillator):
        with pytest.raises(UnsolvableOrder, match="pole"):
            _back_substitute(lead, pole._dense)
        with pytest.raises(UnsolvableOrder, match="pole"):
            _back_substitute(lead, _dense_combine([(1, pole._dense), (-1, P.monomial(2)._dense)]))
    no_constant = LeadingSuperpotential(-1, 0, 0, 0)
    for rhs in (P.zero(), P({0: F(1), 3: F(-2, 7)})):
        with pytest.raises(UnsolvableOrder, match="zero constant"):
            _back_substitute(no_constant, rhs._dense)


def test_solved_orders_list_terms_top_exponent_first():
    # LaurentPoly evaluates its float sum over float_terms, so their order
    # fixes the last bits of every state value; the chain digests sort the
    # terms and cannot see it
    for label, spec in golden_chains().items():
        for rung in solve_chain(*spec).rungs:
            for k, w_k in enumerate(rung.w[1:], start=1):
                exps = [e for e, _ in w_k.float_terms]
                assert exps == sorted(exps, reverse=True), (label, rung.index, k)
                assert w_k.float_terms == tuple((e, float(w_k.coeff(e))) for e in exps)


# -------------------------------------------------------------- full chains -


def test_hulthen_ground_chain():
    chain = solve_chain(Hulthen(0), 0, 2)
    assert chain.rung(0).energy == (F(-1), F(1), F(-1, 4))


def test_anharmonic_ground_chain():
    chain = solve_chain(Anharmonic(), 0, 1)
    assert chain.rung(0).energy == (F(1), F(3, 4))


def test_hulthen_l1_coulomb_level():
    chain = solve_chain(Hulthen(1), 0, 0)
    assert chain.rung(0).energy == (F(-1, 4),)


def test_riccati_residual_zero_for_solutions():
    chain = solve_chain(Hulthen(1), 2, 6)
    for r in range(3):
        rung = chain.rung(r)
        res = riccati_residual(rung.w, rung.potential, rung.energy, 6)
        assert all(p.is_zero for p in res)


def test_riccati_residual_oscillator_order_zero():
    assert riccati_residual([P.monomial(1)], [P.monomial(2)], [F(1)], 0) == [P.zero()]


def test_riccati_residual_detects_corruption():
    chain = solve_chain(Hulthen(0), 0, 3)
    rung = chain.rung(0)
    w = list(rung.w)
    w[2] = w[2] + P.monomial(1, F(1, 1000))  # perturb the order-2 coefficient
    res = riccati_residual(w, rung.potential, rung.energy, 3)
    assert not res[2].is_zero
    assert res[0].is_zero and res[1].is_zero
    # changing any one coefficient of any solved w_k is seen at order k
    perturbed = set()
    for family, r, K in [(Hulthen(1), 2, 8), (Anharmonic(), 2, 6)]:
        rung = solve_chain(family, r, K).rung(r)
        for k in range(K + 1):
            for e, c in rung.w[k].items():
                w = list(rung.w)
                w[k] = w[k] + P.monomial(e, c / 7)
                res = riccati_residual(w, rung.potential, rung.energy, K)
                assert not res[k].is_zero, (family, k, e)
                assert all(p.is_zero for p in res[:k]), (family, k, e)
        # changing any one term of w_0 is seen at order 0 and at every order
        # k whose 2 w_0 w_k reads it, that is wherever w_k is not zero
        for e, c in rung.w[0].items():
            w = list(rung.w)
            w[0] = w[0] + P.monomial(e, c / 7)
            res = riccati_residual(w, rung.potential, rung.energy, K)
            assert [not p.is_zero for p in res] == [True] + [not wk.is_zero for wk in rung.w[1:]], (family, e)
            perturbed.add(e)
    assert perturbed == {-1, 0, 1}  # the Hulthen pole and constant, the oscillator's linear term


# ------------------------------------------- the solver's B_k in the check -


def test_solver_hands_the_check_each_B_k_formed_afresh(monkeypatch):
    # the check takes B_k from the solver; it must equal the convolution
    # formed afresh from the rung's final w_1..w_(k-1) at every order
    handed = []
    check = riccati_residual

    def recording(w, v, eps, K, *, B=None):
        handed.append((w, B))
        return check(w, v, eps, K, B=B)

    monkeypatch.setattr(engine, "riccati_residual", recording)
    _solve_chain_cached.cache_clear()
    specs = [*golden_chains().values(), (Anharmonic(), 1, 41), (Hulthen(2), 4, 30)]
    try:
        for spec in specs:
            solve_chain(*spec)
    finally:
        _solve_chain_cached.cache_clear()
    # one check per rung solved: the cache holds only the last ladder, so the
    # anharmonic r <= 1 ladder (a prefix of the golden r <= 4 one, solved
    # three chains earlier) and the Hulthen l = 2 ladder are solved again
    assert len(handed) == sum(r_max + 1 for _, r_max, _ in specs)
    # B(w, k) runs the solver's kernel on both sides; the anharmonic r = 0, 1
    # rungs at K = 41 and the Hulthen (7, 2) rung at K = 30 are checked
    # against plain Fraction convolution instead
    plain_checked = {id(handed[i][0]) for i in (-7, -6, -1)}
    for w, B_handed in handed:
        assert len(B_handed) == len(w)
        for k, B_k in enumerate(B_handed):
            got = _dense_sum([(1, B_k)])
            if id(w) in plain_checked:
                assert plain(got) == plain_B(w, k), k
            else:
                assert got == B(w, k), k


def test_corrupt_B_k_is_seen_at_exactly_that_order():
    for family, r, K in [(Hulthen(1), 2, 8), (Anharmonic(), 1, 9)]:
        rung = solve_chain(family, r, K).rung(r)
        fresh = [_dense_dot(_self_convolution(rung.w, k)) for k in range(K + 1)]
        for k in range(K + 1):
            B_bad = list(fresh)
            B_bad[k] = _dense_combine([(1, fresh[k]), (1, P.monomial(k % 3, F(1, 11))._dense)])
            res = riccati_residual(rung.w, rung.potential, rung.energy, K, B=B_bad)
            assert [bool(p) for p in res] == [j == k for j in range(K + 1)], (family, k)


@pytest.mark.parametrize("family", [Hulthen(2), Anharmonic()])
@pytest.mark.parametrize("target", ["w", "eps"])
def test_wrong_back_substitution_fails_the_shared_check(monkeypatch, family, target):
    # a solver that gets one order wrong must fail the check at that order,
    # though the check reuses the B_k the solver formed
    solve = _back_substitute
    orders = iter(range(1, 100))

    def perturbed(lead, rhs):
        w_k, eps_k = solve(lead, rhs)
        if next(orders) == 7:
            if target == "w":
                w_k = w_k + P.monomial(2, F(1, 1000))
            else:
                eps_k += F(1, 1000)
        return w_k, eps_k

    monkeypatch.setattr(engine, "_back_substitute", perturbed)
    _solve_chain_cached.cache_clear()
    try:
        with pytest.raises(ResidualNonzero, match=r"rung 0 .* orders \[7\]$"):
            solve_chain(family, 0, 10)
    finally:
        _solve_chain_cached.cache_clear()


# -------------------------------------------------- invariants & properties -


def test_partner_identity_all_orders():
    chain = solve_chain(Hulthen(1), 3, 8)
    for r in range(1, 4):
        prev, cur = chain.rung(r - 1), chain.rung(r)
        for k in range(9):
            assert cur.potential[k] == prev.potential[k] + 2 * prev.w[k].derivative()


def test_hulthen_parity_and_degree_bounds():
    chain = solve_chain(Hulthen(2), 2, 11)
    for r in range(3):
        rung = chain.rung(r)
        for k in range(3, 12, 2):
            assert rung.energy[k] == 0
        for k in range(1, 12):
            if rung.w[k]:
                assert rung.w[k].max_exponent <= k - 1
                assert rung.w[k].min_exponent >= 1
    for k in range(3, 12, 2):
        assert chain.rung(0).w[k].is_zero


def test_anharmonic_parity_and_degree_bounds():
    chain = solve_chain(Anharmonic(), 2, 9)
    for r in range(3):
        rung = chain.rung(r)
        for k in range(2, 10):
            assert rung.w[k].max_exponent <= 2 * k + 1
            for alpha, _ in rung.w[k].items():
                assert alpha % 2 == 1


def test_specialized_recurrences_match_generic_hulthen():
    for l in (0, 1, 3):
        r_max = 4
        chain = solve_chain(Hulthen(l), r_max, 10)
        oracle = hulthen_ladder(l, r_max, 10)
        for r in range(r_max + 1):
            w_o, eps_o = oracle[r]
            rung = chain.rung(r)
            assert list(rung.energy) == eps_o
            for k in range(11):
                assert dict(rung.w[k].items()) == {e: c for e, c in w_o[k].items()}


def test_specialized_recurrences_match_generic_anharmonic():
    r_max = 4
    chain = solve_chain(Anharmonic(), r_max, 10)
    oracle = anharmonic_ladder(r_max, 10)
    for r in range(r_max + 1):
        w_o, eps_o = oracle[r]
        rung = chain.rung(r)
        assert list(rung.energy) == eps_o
        for k in range(11):
            assert dict(rung.w[k].items()) == {e: c for e, c in w_o[k].items()}


# ------------------------------------------------------------ generic family -


def test_generic_family_reproduces_anharmonic():
    lead = LeadingSuperpotential(pole=F(0), constant=F(0), linear=F(1), leading_energy=F(1))
    fam = GenericPerturbed(lead, P.monomial(4))
    chain = solve_chain(fam, 3, 8)
    ref = solve_chain(Anharmonic(), 3, 8)
    for r in range(4):
        assert chain.rung(r).energy == ref.rung(r).energy
        assert chain.rung(r).w == ref.rung(r).w


def test_generic_coulomb_family_with_linear_perturbation():
    # hydrogen-like leading plus a linear confinement at first order
    lead = LeadingSuperpotential(pole=F(-1), constant=F(1), linear=F(0), leading_energy=F(-1))
    fam = GenericPerturbed(lead, P.monomial(1))
    chain = solve_chain(fam, 2, 6)
    for r in range(3):
        rung = chain.rung(r)
        res = riccati_residual(rung.w, rung.potential, rung.energy, 6)
        assert all(p.is_zero for p in res)
    # rung leadings shift like the Coulomb ladder
    assert chain.rung(2).leading.pole == F(-3)
    assert chain.rung(2).leading.leading_energy == F(-1, 9)


def test_generic_rejects_pole_in_perturbation():
    lead = LeadingSuperpotential(pole=F(-1), constant=F(1), linear=F(0), leading_energy=F(-1))
    with pytest.raises(ValueError):
        GenericPerturbed(lead, P.monomial(-1))


def test_families_reject_out_of_range_labels():
    assert Anharmonic().rung_of(r=3) == 3
    with pytest.raises(ValueError, match="r=-1"):
        Anharmonic().rung_of(r=-1)
    lead = LeadingSuperpotential(pole=F(-1), constant=F(1), linear=F(0), leading_energy=F(-1))
    with pytest.raises(ValueError, match="r=-2"):
        GenericPerturbed(lead, P.monomial(1)).rung_of(r=-2)
    with pytest.raises(ValueError, match="l <= n-1"):
        Hulthen(1).rung_of(n=1, l=1)


def test_generic_unsolvable_without_constant_part():
    # Coulomb-type leading with zero constant: the triangular system pivots vanish
    lead = LeadingSuperpotential(pole=F(-1), constant=F(0), linear=F(0), leading_energy=F(0))
    fam = GenericPerturbed(lead, P.monomial(1))
    with pytest.raises(UnsolvableOrder):
        solve_chain(fam, 0, 2)


# ------------------------------------------------------------- serialization -


def test_chain_json_roundtrip_bit_exact():
    coulomb = LeadingSuperpotential(pole=F(-1), constant=F(1), linear=F(0), leading_energy=F(-1))
    generic = GenericPerturbed(coulomb, P({1: F(1), 2: F(-1, 3)}))
    for fam, r_max, K in [(Hulthen(1), 2, 6), (Anharmonic(), 1, 5), (generic, 2, 4)]:
        chain = solve_chain(fam, r_max, K)
        text = chain.dumps()
        back = ChainSolution.loads(text)
        assert back == chain
        assert back.dumps() == text
    # a reloaded w_k holds its terms in the solved order, so it evaluates to
    # the same floats, not only to the same rationals
    for fam in (Hulthen(1), Anharmonic()):
        chain = solve_chain(fam, 2, 30)
        back = ChainSolution.loads(chain.dumps())
        for rung, loaded in zip(chain.rungs, back.rungs):
            for k, (w_k, w_back) in enumerate(zip(rung.w, loaded.w)):
                for x in (0.7, 3.3, 11.0):
                    assert float(w_back(x)).hex() == float(w_k(x)).hex(), (fam, rung.index, k, x)


def test_golden_chain_digests():
    # tests/make_chain_digests.py wrote the file from the Fraction-dict solver;
    # every chain must still serialize byte for byte the same
    expected = json.loads(DIGEST_FILE.read_text())
    chains = golden_chains()
    assert list(expected) == list(chains)
    for label, spec in chains.items():
        assert chain_digest(*spec) == expected[label], label


def test_chain_json_bounds_exponents_before_building():
    # a document's terms are compared with the solved rung's, never built into
    # a dense polynomial, so a far exponent costs nothing before the refusal
    doc = solve_chain(Hulthen(0), 0, 2).to_json()
    for far in ("400000", "-1"):
        doc["rungs"][0]["superpotential"][2] = {"0": "1", far: "1"}
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ResidualNonzero, match=r"rung 0 differs at orders \[2\]"):
                ChainSolution.from_json(doc)
            assert time.perf_counter() - start < 0.1
            assert tracemalloc.get_traced_memory()[1] < 1_000_000
        finally:
            tracemalloc.stop()
    # every golden chain is its own solution
    for family, r_max, K in golden_chains().values():
        chain = solve_chain(family, r_max, K)
        assert ChainSolution.loads(chain.dumps()) == chain


def test_chain_json_bounds_leading_term_and_perturbation_before_building():
    # a far w_0 key is not the leading term; with K >= 1 a perturbation is
    # compared with the order-1 potential that w_1 and eps_1 imply before it is built
    hulthen = solve_chain(Hulthen(0), 0, 2).to_json()
    hulthen["rungs"][0]["superpotential"][0] = {"-1": "-1", "0": "1", "400000": "1"}
    oscillator = LeadingSuperpotential(pole=0, constant=0, linear=1, leading_energy=1)
    generic = solve_chain(GenericPerturbed(oscillator, P.monomial(1)), 0, 2).to_json()
    generic["family"]["perturbation"] = {"1": "1", "400000": "1"}
    # w_1 = x^-400000 and eps_1 = 1 on w_0 = -1/x + 1 imply this perturbation
    # exactly; its pole is refused before it is built
    coulomb = LeadingSuperpotential(pole=F(-1), constant=F(1), linear=F(0), leading_energy=F(-1))
    pole = solve_chain(GenericPerturbed(coulomb, P.monomial(1)), 0, 2).to_json()
    pole["family"]["perturbation"] = {"-400001": "399998", "-400000": "2", "0": "1"}
    pole["rungs"][0]["superpotential"][1] = {"-400000": "1"}
    pole["rungs"][0]["energy"][1] = "1"
    for doc, error, message in [
        (hulthen, ValueError, r"rung 0 order-0 superpotential is not the family's leading term"),
        (generic, ResidualNonzero, r"rung 0 violates the Riccati identity at orders \[1\]"),
        (pole, ValueError, r"perturbation must be a pure polynomial"),
    ]:
        tracemalloc.start()
        try:
            with pytest.raises(error, match=message):
                ChainSolution.from_json(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, message
    # a K = 0 document has no w_1 to check the perturbation against
    doc = solve_chain(GenericPerturbed(oscillator, P({1: 1, 9: 1})), 0, 0).to_json()
    assert ChainSolution.from_json(doc).family.perturbation == P({1: 1, 9: 1})


def test_chain_json_checks_order_one_top_term_before_building():
    # B_1 = 0, so rung 0's order 1 fixes the perturbation term by term: a
    # document whose perturbation and w_1 both reach far is refused on their
    # sparse terms alone
    oscillator = LeadingSuperpotential(pole=0, constant=0, linear=1, leading_energy=1)
    doc = solve_chain(GenericPerturbed(oscillator, P.monomial(1)), 0, 2).to_json()
    doc["family"]["perturbation"] = {"1": "1", "400000": "1"}
    doc["rungs"][0]["superpotential"][1] = {"0": "1/2", "399999": "1"}
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ResidualNonzero, match=r"rung 0 violates the Riccati identity at orders \[1\]$"):
            ChainSolution.from_json(doc)
        assert time.perf_counter() - start < 0.1
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()
    # Coulomb-type: a wrong w_1 top term; Hulthen's potential is not in the
    # document, so its w_1 is compared with the solved one
    coulomb = LeadingSuperpotential(pole=F(-1), constant=F(1), linear=F(0), leading_energy=F(-1))
    doc = solve_chain(GenericPerturbed(coulomb, P({1: 1, 2: -3})), 0, 2).to_json()
    doc["rungs"][0]["superpotential"][1] = {"1": "-5/2", "2": "-3"}
    with pytest.raises(ResidualNonzero, match=r"rung 0 violates the Riccati identity at orders \[1\]$"):
        ChainSolution.from_json(doc)
    doc = solve_chain(Hulthen(1), 0, 2).to_json()
    doc["rungs"][0]["superpotential"][1] = {"1": "3"}
    with pytest.raises(ResidualNonzero, match=r"rung 0 differs at orders \[1\]"):
        ChainSolution.from_json(doc)


def far_order_one_document(w1: dict[str, str]) -> dict:
    """An oscillator-type generic K = 2 document with the perturbation x + x^40000
    and the order 1 `w1`, whose far top term 1/2 x^39999 is the one x^40000 forces."""
    oscillator = LeadingSuperpotential(pole=0, constant=0, linear=1, leading_energy=1)
    doc = solve_chain(GenericPerturbed(oscillator, P.monomial(1)), 0, 2).to_json()
    doc["family"]["perturbation"] = {"1": "1", "40000": "1"}
    doc["rungs"][0]["superpotential"][1] = w1
    return doc


def consistent_far_order_one_document(S: int) -> dict:
    """An oscillator-type generic K = 2 document whose order 1, w_1 = (1 + x^S)/2
    with eps_1 = 0, is the one its perturbation x + x^(S+1) - (S/2) x^(S-1)
    forces, and whose order 2 is empty; the solved w_2 reaches x^(2S-1)."""
    oscillator = LeadingSuperpotential(pole=0, constant=0, linear=1, leading_energy=1)
    doc = solve_chain(GenericPerturbed(oscillator, P.monomial(1)), 0, 2).to_json()
    doc["family"]["perturbation"] = {"1": "1", str(S + 1): "1", str(S - 1): str(F(-S, 2))}
    doc["rungs"][0]["superpotential"][1:] = [{"0": "1/2", str(S): "1/2"}, {}]
    doc["rungs"][0]["energy"][1:] = ["0", "0"]
    return doc


def test_chain_json_refuses_far_forced_top_term_before_building():
    refusals = [
        (far_order_one_document(w1), r"rung 0 violates the Riccati identity at orders \[1\]$")
        for w1 in ({"0": "1/2", "39999": "1/2"}, {"39999": "1/2"})
    ]
    # order 1 matches, so it is solved; order 2 is compared row by row from
    # its top and refused at its first row, never solved to its ~2S rows of
    # growing numerators (S = 1000 took 0.15 s and 2.6 MB solved whole)
    refusals.append((consistent_far_order_one_document(1000), r"rung 0 differs at orders \[2\]"))
    for doc, message in refusals:
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ResidualNonzero, match=message):
                ChainSolution.from_json(doc)
            assert time.perf_counter() - start < 0.1, message
            assert tracemalloc.get_traced_memory()[1] < 1_000_000, message
        finally:
            tracemalloc.stop()
    # the same order 1 with its solved order 2 loads
    S = 30
    doc = consistent_far_order_one_document(S)
    oscillator = LeadingSuperpotential(pole=0, constant=0, linear=1, leading_energy=1)
    chain = solve_chain(GenericPerturbed(oscillator, P.from_json(doc["family"]["perturbation"])), 0, 2)
    assert chain.to_json()["rungs"][0]["superpotential"][1] == {"0": "1/2", str(S): "1/2"}
    assert ChainSolution.from_json(chain.to_json()) == chain


def test_chain_json_stops_at_first_differing_order(monkeypatch):
    # orders 2..3000 empty: refused once order 2 is solved, without the
    # potentials, solves or residuals of the orders above it
    K = 3000
    rung = solve_chain(Anharmonic(), 0, 1).to_json()["rungs"][0]
    doc = {
        "family": {"name": "anharmonic"},
        "b": 0,
        "rMax": 0,
        "K": K,
        "rungs": [
            {
                "r": 0,
                "energy": rung["energy"] + ["0"] * (K - 1),
                "superpotential": rung["superpotential"] + [{}] * (K - 1),
            }
        ],
    }
    solved = []
    back_substitute = engine._back_substitute
    monkeypatch.setattr(engine, "_back_substitute", lambda *a: solved.append(1) or back_substitute(*a))
    start = time.perf_counter()
    with pytest.raises(ResidualNonzero, match=r"rung 0 differs at orders \[2\]"):
        ChainSolution.from_json(doc)
    assert time.perf_counter() - start < 0.5
    assert len(solved) == 2


def test_chain_json_refuses_extra_terms_and_edited_energies():
    # a valid order with one more term above its top or below its lowest
    # solved exponent (x^1 under a Coulomb-type, x^0 under an oscillator-type
    # leading term) is refused, though every solved row matches; so is an
    # order whose w_k matches but whose eps_k, solved in row 0, does not
    for family in (Hulthen(1), Anharmonic()):
        doc = solve_chain(family, 1, 3).to_json()
        rung = doc["rungs"][1]
        w2 = rung["superpotential"][2]
        keys = [int(e) for e in w2]
        lowest = 1 if family.radial else 0
        edits = [{"superpotential": rung["superpotential"][:2] + [{**w2, str(e): "1"}] + rung["superpotential"][3:]}
                 for e in (max(keys) + 1, max(keys) + 7, lowest - 1)]
        energy = rung["energy"][:2] + [str(F(rung["energy"][2]) + F(1, 1000))] + rung["energy"][3:]
        for edit in edits + [{"energy": energy}]:
            edited = {**doc, "rungs": [doc["rungs"][0], {**rung, **edit}]}
            with pytest.raises(ResidualNonzero, match=r"rung 1 differs at orders \[2\]"):
                ChainSolution.from_json(edited)


def one_term_order_one(lead: LeadingSuperpotential, T: int) -> P:
    """The perturbation whose order 1 is w_1 = x^T exactly: 2 w_0 x^T - T x^(T-1)."""
    return 2 * lead.as_poly() * P.monomial(T) - P.monomial(T - 1, T)


coulomb_leads = st.builds(
    LeadingSuperpotential,
    pole=st.fractions(min_value=-3, max_value=7, max_denominator=4).filter(lambda p: p < 0 or p.denominator > 1),
    constant=st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
    linear=st.just(F(0)),
    leading_energy=st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
oscillator_leads = st.builds(
    LeadingSuperpotential,
    pole=st.just(F(0)),
    constant=st.fractions(min_value=-3, max_value=3, max_denominator=5),
    linear=st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
    leading_energy=st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
sparse_perturbations = st.dictionaries(
    st.integers(min_value=0, max_value=29),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    max_size=4,
).map(P)


@settings(max_examples=60, deadline=None)
@given(
    lead=st.one_of(coulomb_leads, oscillator_leads),
    perturbation=sparse_perturbations,
    r_max=st.integers(min_value=0, max_value=2),
    K=st.integers(min_value=0, max_value=4),
)
# one-term w_1 = x^T under a far perturbation: the order-1 row leaves the
# rest of w_1 empty, so w_1's term count says nothing about T
@example(LeadingSuperpotential(0, 0, 1, 1), P({10: 2, 8: -9}), 0, 2)
@example(LeadingSuperpotential(-1, 1, 0, -1), one_term_order_one(LeadingSuperpotential(-1, 1, 0, -1), 30), 1, 2)
@example(LeadingSuperpotential(F(7, 2), 2, 0, 0), one_term_order_one(LeadingSuperpotential(F(7, 2), 2, 0, 0), 25), 2, 3)
def test_every_solved_generic_chain_reloads_equal(lead, perturbation, r_max, K):
    chain = solve_chain(GenericPerturbed(lead, perturbation), r_max, K)
    text = chain.dumps()
    back = ChainSolution.loads(text)
    assert back == chain
    assert back.dumps() == text


def test_chain_json_unsolvable_family_raises_value_error():
    # w_1 = x^2 and eps_1 = 0 imply the perturbation -4x, but over a
    # Coulomb-type leading term with zero constant part the family has no order 1
    lead = LeadingSuperpotential(pole=F(-1), constant=F(0), linear=F(0), leading_energy=F(0))
    doc = solve_chain(GenericPerturbed(lead, P.monomial(1, -4)), 0, 0).to_json()
    doc["K"] = 1
    doc["rungs"][0]["superpotential"].append({"2": "1"})
    doc["rungs"][0]["energy"].append("0")
    with pytest.raises(ValueError, match="no chain through rung 0, order 1: .*zero constant part"):
        ChainSolution.from_json(doc)


def test_chain_json_infinite_numbers_raise_value_error():
    # Python's json reads Infinity and 1e400 as float('inf'), which Fraction cannot hold
    doc = solve_chain(Hulthen(1), 0, 2).to_json()
    rung = doc["rungs"][0]
    for field, edited in [
        ("energy", {**rung, "energy": rung["energy"][:2] + ["INF"]}),
        ("superpotential", {**rung, "superpotential": rung["superpotential"][:2] + [{"1": "INF"}]}),
    ]:
        text = json.dumps({**doc, "rungs": [edited]})
        for inf in ("Infinity", "-Infinity", "1e400"):
            with pytest.raises(ValueError, match=f"field '{field}'"):
                ChainSolution.loads(text.replace('"INF"', inf))


def test_chain_json_zero_denominator_raises_value_error():
    # Fraction("1/0") raises ZeroDivisionError; a document's rationals are read
    # in rational_to_str's grammar, whose denominator is nonzero
    oscillator = LeadingSuperpotential(pole=0, constant=F(1, 2), linear=1, leading_energy=F(3, 4))
    doc = solve_chain(GenericPerturbed(oscillator, P.monomial(1)), 0, 2).to_json()
    family, rung = doc["family"], doc["rungs"][0]
    w2 = rung["superpotential"][:2] + [{"1": "-3/0"}]
    for field, edited in [
        ("energy", {**doc, "rungs": [{**rung, "energy": rung["energy"][:2] + ["1/0"]}]}),
        ("superpotential", {**doc, "rungs": [{**rung, "superpotential": w2}]}),
        ("perturbation", {**doc, "family": {**family, "perturbation": {"1": "1/0"}}}),
        ("leadingEnergy", {**doc, "family": {**family, "leading": {**family["leading"], "leadingEnergy": "3/0"}}}),
    ]:
        with pytest.raises(ValueError, match=f"field '{field}'.*got '-?[13]/0'"):
            ChainSolution.from_json(edited)


def test_chain_json_reads_only_integers_and_ratios_in_time():
    # Fraction(str) expands a decimal exponent exactly: "1e10000000" takes
    # seconds; the loader refuses every number outside "p" and "p/q" on its text
    doc = solve_chain(Hulthen(1), 0, 2).to_json()
    rung = doc["rungs"][0]
    for bad in ("1e10000000", "1.5", "+1", "١", 1):
        for field, edited in [
            ("energy", {**rung, "energy": rung["energy"][:2] + [bad]}),
            ("superpotential", {**rung, "superpotential": rung["superpotential"][:2] + [{"1": bad}]}),
        ]:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"field '{field}'"):
                ChainSolution.from_json({**doc, "rungs": [edited]})
            assert time.perf_counter() - start < 0.1, (field, bad)
    for key in ("1e10000000", "1.0", "+1", "1/1"):
        edited = {**rung, "superpotential": rung["superpotential"][:2] + [{key: "1"}]}
        with pytest.raises(ValueError, match="field 'superpotential'.*exponent"):
            ChainSolution.from_json({**doc, "rungs": [edited]})


def test_chain_json_integer_fields_refuse_fractions():
    doc = solve_chain(Hulthen(1), 1, 2).to_json()
    for bad, field in [
        ({**doc, "K": 2.9}, "K"),
        ({**doc, "rMax": 1.0}, "rMax"),
        ({**doc, "b": 2.0}, "b"),
        ({**doc, "family": {"name": "hulthen", "l": 1.9}}, "l"),
        ({**doc, "rungs": [doc["rungs"][0], {**doc["rungs"][1], "r": 1.0}]}, "r"),
    ]:
        with pytest.raises(ValueError, match=f"field '{field}'"):
            ChainSolution.from_json(bad)


def test_chain_json_rejects_edited_coefficient():
    doc = solve_chain(Hulthen(1), 2, 6).to_json()
    w4 = doc["rungs"][1]["superpotential"][4]
    e = next(iter(w4))
    doc["rungs"][1]["superpotential"][4] = {**w4, e: str(F(w4[e]) + F(1, 1000))}
    with pytest.raises(ResidualNonzero, match=r"rung 1 .* orders \[4"):
        ChainSolution.from_json(doc)
    # the other root of the order-0 identity, 1/x - 1 with eps_0 = -1, is not
    # the family's leading term even where the residual would pass
    doc = solve_chain(Hulthen(1), 0, 0).to_json()
    doc["rungs"][0] = {"r": 0, "energy": ["-1"], "superpotential": [{"-1": "1", "0": "-1"}]}
    with pytest.raises(ValueError, match="leading term"):
        ChainSolution.from_json(doc)


def test_chain_json_malformed_documents_raise_value_error():
    with pytest.raises(ValueError, match="missing field 'family'"):
        ChainSolution.loads("{}")
    with pytest.raises(ValueError, match="'family'.* got list"):
        ChainSolution.loads("[]")
    doc = solve_chain(Hulthen(1), 1, 2).to_json()
    with pytest.raises(ValueError, match="missing field 'l'"):
        ChainSolution.from_json({**doc, "family": {"name": "hulthen"}})
    with pytest.raises(ValueError, match="field 'l'"):
        ChainSolution.from_json({**doc, "family": {"name": "hulthen", "l": "one"}})
    with pytest.raises(ValueError, match="field 'energy'"):
        ChainSolution.from_json({**doc, "rungs": [{**doc["rungs"][0], "energy": ["x"] * 3}, doc["rungs"][1]]})


def test_chain_json_rejects_unknown_family_and_wrong_b():
    doc = solve_chain(Hulthen(1), 1, 2).to_json()
    with pytest.raises(ValueError, match="unknown family"):
        ChainSolution.from_json({**doc, "family": {"name": "morse"}})
    with pytest.raises(ValueError, match="disagrees"):
        ChainSolution.from_json({**doc, "b": 3})
