"""Lagrange-mesh oracle tests against exactly known spectra."""

import math

import numpy as np
import pytest

from seaqm.engine import Hulthen, solve_chain
from seaqm.errors import GridTooCoarse
from seaqm.oracle import MeshSpec, anharmonic_numeric, hulthen_numeric, mesh_eigenvalues
from seaqm.reference import critical_value
from seaqm.resummation import pade, pade_eval
from seaqm.spectra import evaluate_truncated, hulthen_energy_series


def test_harmonic_spectrum():
    vals, _ = mesh_eigenvalues(lambda x: x * x, MeshSpec(12.0, radial=False), 3)
    assert vals == pytest.approx([1.0, 3.0, 5.0], abs=5e-8)


def test_hydrogen_levels():
    vals, _ = mesh_eigenvalues(lambda x: -2.0 / x, MeshSpec(200.0, radial=True), 3)
    assert vals == pytest.approx([-1.0, -0.25, -1.0 / 9.0], abs=2e-6)


def test_hulthen_l0_closed_form():
    vals = hulthen_numeric(0, 0.5, 1, MeshSpec(200.0, radial=True))
    # the closed form -(1/n - n lam/2)^2 at n = 1, lam = 0.5
    assert vals[0] == pytest.approx(-0.5625, abs=1e-8)


def test_hulthen_coulomb_limit_l1():
    vals = hulthen_numeric(1, 0.01, 1, MeshSpec(400.0, radial=True))
    series = hulthen_energy_series(2, 1, 6)
    assert vals[0] == pytest.approx(evaluate_truncated(series, 0.01, 6), abs=1e-8)
    assert vals[0] == pytest.approx(-0.25, abs=1e-2)


def test_anharmonic_harmonic_limit():
    vals = anharmonic_numeric(0.0, 5, MeshSpec(12.0, radial=False))
    assert vals == pytest.approx([1.0, 3.0, 5.0, 7.0, 9.0], abs=1e-6)


def test_hulthen_near_critical_matches_pade():
    # (4,1) at lam = 0.08, lam/lam_c = 0.72: the default domain stretches to
    # x = 1778 and the mesh still agrees with the exact [15/14] Pade
    lam = 0.08
    exact = pade_eval(pade(hulthen_energy_series(4, 1, 30).coeffs, 15, 14), lam)
    oracle = hulthen_numeric(1, lam, 3)[2]
    assert abs(oracle - exact) <= 1e-9 * abs(exact)


def test_2p_still_bound_above_tabulated_critical_coupling():
    # a known deviation (README): at lam = 0.3768, above the tabulated
    # lambda_c(2,1) = 0.3767388 that `critical` reproduces, the mesh still
    # binds the 2p level, with the same energy on meshes of 150 to 400 points
    lam = 0.3768
    assert critical_value(2, 1) < lam
    for size in (150, 300, 400):
        (energy,) = hulthen_numeric(1, lam, 1, MeshSpec(2000.0, radial=True, size=size))
        assert energy == pytest.approx(-2.6849e-5, rel=1e-4)


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        mesh_eigenvalues(lambda x: x * x, MeshSpec(12.0, radial=False, size=8), 3)


def test_self_consistency_under_doubling():
    def v(x):
        return x * x + 0.5 * x**4

    v1, _ = mesh_eigenvalues(v, MeshSpec(8.0, radial=False), 2)
    v2, _ = mesh_eigenvalues(v, MeshSpec(8.0, radial=False, size=120), 2)
    for a, b in zip(v1, v2):
        assert abs(a - b) / abs(b) < 1e-8


def test_susy_degeneracy_witness():
    # partner potential built from the truncated series shares the upper
    # spectrum of the base problem: its lowest level matches level 2 of the
    # full screened Coulomb Hamiltonian.  The domain stays inside the
    # expansion's convergence radius 2*pi/lam.
    lam = 0.05
    chain = solve_chain(Hulthen(0), 1, 14)
    v1 = chain.rung(1).potential

    def partner(x):
        out = np.zeros_like(x)
        for k in range(14, -1, -1):
            term = np.zeros_like(x)
            for e, c in v1[k].items():
                term += float(c) * x ** float(e)
            out = out * lam + term
        return out

    mesh = MeshSpec(100.0, radial=True)
    lowest_partner = mesh_eigenvalues(partner, mesh, 1)[0][0]
    second_base = hulthen_numeric(0, lam, 2, mesh)[1]
    assert lowest_partner == pytest.approx(second_base, abs=1e-5)


def test_grid_validation():
    with pytest.raises(ValueError):
        MeshSpec(-1.0, radial=True)
    with pytest.raises(ValueError):
        MeshSpec(1.0, radial=True, size=1)
    with pytest.raises(ValueError):
        hulthen_numeric(0, 0.0, 1)
    with pytest.raises(ValueError, match="radial mesh"):
        hulthen_numeric(0, 0.1, 1, MeshSpec(8.0, radial=False))
    with pytest.raises(ValueError, match="full-line mesh"):
        anharmonic_numeric(1.0, 1, MeshSpec(8.0, radial=True))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: hulthen_numeric(-1, 0.1, 1), "l"),
        (lambda: hulthen_numeric(0, 0.1, 0), "count"),
        (lambda: hulthen_numeric(0, math.nan, 1), "lam"),
        (lambda: hulthen_numeric(0, math.inf, 1), "lam"),
        (lambda: anharmonic_numeric(1.0, 0), "count"),
        (lambda: anharmonic_numeric(math.nan, 1), "lam"),
        (lambda: anharmonic_numeric(-math.inf, 1), "lam"),
    ],
)
def test_bad_input_names_the_parameter(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call()
