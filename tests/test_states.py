"""Eigenstate assembly, evaluation, normalization and residual tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from seaqm.engine import Anharmonic, GenericPerturbed, Hulthen, LeadingSuperpotential, solve_chain
from seaqm.errors import DomainError, InvalidLeading, NonNormalizable, RungOrderViolation
from seaqm.exact import LaurentPoly
from seaqm.spectra import hulthen_l0_state
from seaqm.states import (
    apply_creation,
    build_eigenstate,
    build_G,
    count_nodes,
    edge_state,
    evaluate_state,
    evaluate_state_grid,
    hamiltonian_residual,
    normalize,
    normalize_function,
    state_lambda_series,
)

F = Fraction
P = LaurentPoly


# ------------------------------------------------------------------ build_G -


def test_build_G_hulthen():
    chain = solve_chain(Hulthen(2), 0, 4)
    G = build_G(chain, 0)
    b = F(3)
    assert G[0] == P.zero()
    assert G[1] == P.zero()  # order-1 superpotential coefficient vanishes
    assert G[2] == P({2: -b / 24})


def test_build_G_anharmonic():
    chain = solve_chain(Anharmonic(), 0, 2)
    G = build_G(chain, 0)
    assert G[1] == P({2: F(3, 8), 4: F(1, 8)})


# --------------------------------------------------------------- edge states -


def test_edge_state_coulomb_ground_shape():
    chain = solve_chain(Hulthen(0), 0, 0)
    st = edge_state(chain, 0)
    assert st.power == 1
    for x in (0.5, 2.0):
        assert evaluate_state(st, x, 0.0) == pytest.approx(x * math.exp(-x), rel=1e-14)


def test_edge_state_excited_is_nodeless():
    chain = solve_chain(Hulthen(4), 0, 0)  # b = 5 edge: x^5 e^(-x/5)
    st = edge_state(chain, 0)
    assert st.power == 5 and st.n == 5
    assert count_nodes(st, 0.0) == 0


def test_edge_state_harmonic_ground():
    chain = solve_chain(Anharmonic(), 0, 0)
    st = edge_state(chain, 0)
    assert evaluate_state(st, 0.0, 0.0) == 1.0
    assert evaluate_state(st, 1.5, 0.0) == pytest.approx(math.exp(-1.125), rel=1e-14)


def test_edge_state_generic_coulomb_is_radial():
    lead = LeadingSuperpotential(pole=F(-1), constant=F(1), linear=F(0), leading_energy=F(-1))
    chain = solve_chain(GenericPerturbed(lead, P.monomial(1)), 1, 2)
    st = edge_state(chain, 1)
    assert st.radial and st.power == 2 and st.r == 1
    with pytest.raises(DomainError):
        evaluate_state(st, -1.0, 0.0)


def test_edge_state_rejects_non_integral_pole():
    lead = LeadingSuperpotential(pole=F(-3, 2), constant=F(1), linear=F(0), leading_energy=F(-1))
    chain = solve_chain(GenericPerturbed(lead, P.monomial(1)), 0, 2)
    with pytest.raises(InvalidLeading):
        edge_state(chain, 0)


# ---------------------------------------------------------- creation ladder -


def test_apply_creation_hulthen_order_zero():
    for l in (0, 1, 2):
        b = F(l + 1)
        chain = solve_chain(Hulthen(l), 1, 0)
        st = apply_creation(edge_state(chain, 1), 0, chain)
        expected = P({0: 1 / b + 1 / (b + 1), -1: -(2 * b + 1)})
        assert st.prefactor[0] == expected


def test_apply_creation_harmonic_first_level():
    chain = solve_chain(Anharmonic(), 1, 0)
    st = apply_creation(edge_state(chain, 1), 0, chain)
    assert st.prefactor[0] == P({1: F(2)})


def test_apply_creation_handles_existing_pole():
    chain = solve_chain(Hulthen(0), 2, 0)
    st = apply_creation(edge_state(chain, 2), 1, chain)
    st = apply_creation(st, 0, chain)
    # two applications: poles no deeper than x^-2, and x^p clears them
    assert st.prefactor[0].min_exponent >= -2
    assert st.power == 3


def test_apply_creation_rung_order_violation():
    chain = solve_chain(Hulthen(0), 1, 0)
    st = edge_state(chain, 1)
    with pytest.raises(RungOrderViolation):
        apply_creation(st, 1, chain)
    with pytest.raises(RungOrderViolation):
        apply_creation(edge_state(chain, 0), 0, chain)


# --------------------------------------------------------------- eigenstates -


def test_build_eigenstate_identity_for_edge():
    st = build_eigenstate(Hulthen(0), 2, n=1, l=0)
    assert st.prefactor[0] == P.constant(1)
    assert st.base_rung == 0


def test_build_eigenstate_2s_shape():
    st = build_eigenstate(Hulthen(0), 0, n=2, l=0)
    assert st.prefactor[0] == P({0: F(3, 2), -1: F(-3)})
    assert count_nodes(st, 0.0) == 1
    # proportional to the standard 2s radial function: constant ratio
    ref = lambda x: (1 - x / 2) * x * math.exp(-x / 2)
    r1 = evaluate_state(st, 0.7, 0.0) / ref(0.7)
    r2 = evaluate_state(st, 3.1, 0.0) / ref(3.1)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_build_eigenstate_second_hermite():
    st = build_eigenstate(Anharmonic(), 0, r=2)
    assert st.prefactor[0] == P({0: F(-2), 2: F(4)})


@pytest.mark.parametrize("r", [0, 1, 2])
def test_build_eigenstate_generic_matches_anharmonic(r):
    harmonic = LeadingSuperpotential(pole=F(0), constant=F(0), linear=F(1), leading_energy=F(1))
    st = build_eigenstate(GenericPerturbed(harmonic, P.monomial(4)), 6, r=r)
    ref = build_eigenstate(Anharmonic(), 6, r=r)
    assert st.prefactor == ref.prefactor and st.G == ref.G
    assert st.power == ref.power and st.decay == ref.decay
    assert st.r == r and not st.radial


# ---------------------------------------------------------------- evaluation -


def test_evaluate_at_origin():
    st = build_eigenstate(Anharmonic(), 0, r=0)
    assert evaluate_state(st, 0.0, 0.0) == 1.0
    hyd = build_eigenstate(Hulthen(0), 0, n=2, l=0)
    assert evaluate_state(hyd, 0.0, 0.0) == 0.0  # x^p clears the pole, then vanishes


def test_state_lambda_series_consistency():
    # the coupling series is the exact order-K truncation; the factored form
    # keeps higher cross terms of exp(-G), so they agree up to O(lam^(K+1))
    st = build_eigenstate(Hulthen(1), 6, n=3, l=1)
    x = 2.5
    coeffs = state_lambda_series(st, x)
    for lam, tol in ((0.08, 1e-6), (0.02, 1e-10)):
        horner = 0.0
        for c in reversed(coeffs):
            horner = horner * lam + c
        assert horner == pytest.approx(evaluate_state(st, x, lam), rel=tol)


# ------------------------------------------------------------- normalization -


def test_normalize_hydrogenic_ground():
    st = build_eigenstate(Hulthen(0), 0, n=1, l=0)
    assert normalize(st, 0.0) == pytest.approx(2.0, rel=1e-10)


def test_normalize_harmonic_ground():
    st = build_eigenstate(Anharmonic(), 0, r=0)
    assert normalize(st, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-10)


def test_normalize_matches_closed_form_inside_radius():
    # lam = 0.2 keeps the tail window inside the expansion's convergence radius
    st = build_eigenstate(Hulthen(0), 12, n=1, l=0)
    lam = 0.2
    N = normalize(st, lam)
    closed = lambda x: 2 * math.sqrt(4 - lam**2) / lam * math.exp(-x) * math.sinh(lam * x / 2)
    for x in (1.0, 4.0):
        assert N * evaluate_state(st, x, lam) == pytest.approx(closed(x), rel=1e-10)


def test_normalize_near_radius_limit():
    # at lam = 1 the truncated exponent is only trustworthy inside x ~ 2*pi,
    # which caps the attainable accuracy of the norm at the per-mille level
    st = build_eigenstate(Hulthen(0), 16, n=1, l=0)
    lam = 1.0
    N = normalize(st, lam)
    closed = lambda x: 2 * math.sqrt(4 - lam**2) / lam * math.exp(-x) * math.sinh(lam * x / 2)
    assert N * evaluate_state(st, 2.0, lam) == pytest.approx(closed(2.0), rel=5e-3)


def test_normalize_detects_runaway_tail():
    # truncation order chosen so the residual exponent grows positive
    st = build_eigenstate(Hulthen(0), 14, n=1, l=0)
    with pytest.raises(NonNormalizable):
        normalize(st, 0.5)


def test_normalize_respects_domain_bound():
    # an evaluator that never decays reaches the end of the tail scan
    with pytest.raises(NonNormalizable, match="at the domain bound"):
        normalize_function(lambda xs: (1.0 for x in xs), True)


# -------------------------------------------------------- residual identity -


@pytest.mark.parametrize(
    "family,labels,depth",
    [
        (Hulthen(0), {"n": 2, "l": 0}, 1),
        (Hulthen(1), {"n": 4, "l": 1}, 2),
        (Anharmonic(), {"r": 3}, 3),
    ],
)
def test_hamiltonian_residual_zero(family, labels, depth):
    K = 5
    st = build_eigenstate(family, K, **labels)
    chain = solve_chain(family, depth, K)
    res = hamiltonian_residual(st, chain)
    assert all(p.is_zero for p in res)


def test_hamiltonian_residual_edge_equals_riccati():
    chain = solve_chain(Hulthen(2), 0, 4)
    res = hamiltonian_residual(edge_state(chain, 0), chain)
    assert all(p.is_zero for p in res)


def test_hamiltonian_residual_detects_corruption():
    chain = solve_chain(Hulthen(0), 1, 3)
    st = build_eigenstate(Hulthen(0), 3, n=2, l=0)
    bad_R = list(st.prefactor)
    bad_R[1] = bad_R[1] + P.monomial(1, F(1, 100))
    from dataclasses import replace

    corrupted = replace(st, prefactor=tuple(bad_R))
    res = hamiltonian_residual(corrupted, chain)
    assert any(not p.is_zero for p in res)


# ------------------------------------------------------------------- nodes --


def test_node_counts_at_zero_coupling():
    for (n, l) in [(1, 0), (3, 0), (3, 1), (4, 2), (5, 4)]:
        st = build_eigenstate(Hulthen(l), 2, n=n, l=l)
        assert count_nodes(st, 0.0) == n - 1 - l
    for r in range(5):
        st = build_eigenstate(Anharmonic(), 2, r=r)
        assert count_nodes(st, 0.0) == r


def test_edge_states_nodeless_in_bound_regime():
    st = build_eigenstate(Hulthen(1), 8, n=2, l=1)  # edge of its level
    for lam in (0.0, 0.15, 0.3):
        assert count_nodes(st, lam) == 0


@pytest.mark.parametrize(
    "family, K, labels, lam, nodes",
    [
        # the truncated exponent turns psi around inside the window: 429
        # growing samples are stripped from each end before counting
        (Anharmonic(), 8, {"r": 2}, 0.02, 2),
        (Hulthen(1), 10, {"n": 3, "l": 1}, 0.1, 1),  # 1,682 stripped at the far end
    ],
)
def test_node_count_strips_growing_edges(family, K, labels, lam, nodes):
    assert count_nodes(build_eigenstate(family, K, **labels), lam) == nodes


@pytest.mark.parametrize(
    "family, K, labels, lam, x",
    [
        # psi is inf from the window's left end on: no decaying part to count
        *((Anharmonic(), 8, {"r": 2}, lam, "-10") for lam in (0.03, 0.05, 0.1, 0.3)),
        (Anharmonic(), 20, {"r": 2}, 0.05, "-10"),
        (Hulthen(1), 10, {"n": 3, "l": 1}, 0.15, "88.0953"),
    ],
)
def test_node_count_of_runaway_state_raises(family, K, labels, lam, x):
    with pytest.raises(NonNormalizable, match=f"^psi is not finite at x = {x} inside the node-count window"):
        count_nodes(build_eigenstate(family, K, **labels), lam)


def test_creation_pole_bound():
    chain = solve_chain(Hulthen(0), 3, 2)
    st = edge_state(chain, 3)
    for j, q in enumerate((2, 1, 0), start=1):
        st = apply_creation(st, q, chain)
        mins = [p.min_exponent for p in st.prefactor if not p.is_zero]
        assert min(mins) >= -j
    assert st.power + min(mins) >= 0


# ------------------------------------------------ against the exact l = 0 state -


@pytest.mark.parametrize("n", [2, 3])
def test_plain_l0_states_follow_the_exact_eigenfunction(n):
    # the closed-form l = 0 eigenfunction at lam = 0.1 (0.2 and 0.45 of the
    # critical 2/n^2): the plain truncated state, built by `apply_creation`
    # and `_cauchy` on the product kernel, scaled by least squares, comes
    # closer to it at every order tried
    lam, xs = 0.1, np.linspace(0.05, 30, 600)
    exact = np.array([hulthen_l0_state(n).wavefunction(x, lam) for x in xs])
    errors = []
    for K in (6, 10, 14, 20):
        psi = np.array(list(evaluate_state_grid(build_eigenstate(Hulthen(0), K, n=n, l=0), xs, lam)))
        scale = (psi @ exact) / (psi @ psi)
        errors.append(np.max(np.abs(scale * psi - exact)) / np.max(np.abs(exact)))
    assert all(later < earlier for earlier, later in zip(errors, errors[1:])), errors
    assert errors[-1] < 1e-7, errors
