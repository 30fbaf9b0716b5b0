"""The QAGS port against scipy's QUADPACK, compared bit for bit.

`scipy.integrate.quad` runs QUADPACK's `dqagse` on a finite interval; the port
must return the same value, error estimate, evaluation count and interval
count, and fail (a nonzero ier, which quad reports as a message) exactly when
it does.
"""

import math
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from seaqm import states
from seaqm.engine import Anharmonic, Hulthen
from seaqm.errors import NonNormalizable
from seaqm.quadrature import qags


def quadpack(f, a, b, **kw):
    """(value, abserr, neval, last, failed) from scipy's QUADPACK."""
    res = integrate.quad(f, a, b, full_output=1, **kw)
    value, abserr, info = res[:3]
    return value, abserr, info["neval"], info["last"], len(res) > 3


def port(panel, a, b, **kw):
    """The same tuple from the port, fed whole panels."""
    value, abserr, neval, ier, last = qags(panel, a, b, **kw)
    return value, abserr, neval, last, ier != 0


def pointwise(f):
    return lambda xs: [f(x) for x in xs]


def noise(x):
    """Deterministic noise in [-0.5, 0.5): a hash of the bits of x."""
    return zlib.crc32(struct.pack("<d", x)) / 2**32 - 0.5


TIGHT = {"epsabs": 0.0, "epsrel": 1e-10, "limit": 400}

CASES = {
    "gaussian": (lambda x: math.exp(-x * x), -5.0, 5.0, {}),
    "gaussian tight": (lambda x: math.exp(-x * x), -5.0, 5.0, TIGHT),
    "polynomial": (lambda x: x**5 - 3 * x**2 + 1, 0.0, 2.0, {}),
    "damped oscillation": (lambda x: math.sin(30 * x) * math.exp(-x), 0.0, 10.0, TIGHT),
    "lorentzian": (lambda x: 1 / (1e-4 + (x - 0.5) ** 2), 0.0, 1.0, {}),
    "sqrt endpoint": (math.sqrt, 0.0, 1.0, {}),
    "sqrt endpoint tight": (math.sqrt, 0.0, 1.0, TIGHT),
    "log endpoint": (math.log, 0.0, 1.0, {}),
    "log endpoint tight": (math.log, 0.0, 1.0, TIGHT),
    "x^-0.9": (lambda x: x**-0.9, 0.0, 1.0, {}),
    "x^-0.9 tight": (lambda x: x**-0.9, 0.0, 1.0, TIGHT),
    "log over sqrt": (lambda x: math.log(x) / math.sqrt(x), 0.0, 1.0, TIGHT),
    "interior singularity": (lambda x: abs(x - 1 / 3) ** -0.5, 0.0, 1.0, {}),
    "1/x": (lambda x: 1 / x, 0.0, 1.0, {}),
    "divergent x^-1.5": (lambda x: x**-1.5, 0.0, 1.0, {}),
    "interior pole": (lambda x: 1 / abs(x - 1 / 3), 0.0, 1.0, TIGHT),
    "step": (lambda x: 1.0 if x > 0.3 else 0.0, 0.0, 1.0, {}),
    "step tight": (lambda x: 1.0 if x > 0.3 else 0.0, 0.0, 1.0, TIGHT),
    "limit 10": (lambda x: math.sin(50 * x) ** 2, 0.0, 3.0, {"limit": 10}),
    "limit 1": (lambda x: math.sin(5 * x) ** 2, 0.0, 3.0, {"limit": 1}),
    "odd, zero integral": (lambda x: math.copysign(abs(x) ** 0.3, x), -1.0, 1.0, {}),
    "zero": (lambda x: 0.0, 0.0, 1.0, {}),
    "noisy gaussian": (lambda x: math.exp(-x * x) + 1e-9 * noise(x), -6.0, 6.0, TIGHT),
    "noisy spike": (lambda x: 1 / (1e-6 + x * x) + 1e-3 * noise(x), -1.0, 2.0, TIGHT),
    "noisy x^-0.9": (lambda x: x**-0.9 * (1 + 1e-8 * noise(x)), 0.0, 1.0, TIGHT),
    "infinite values": (lambda x: math.inf if x > 0.9 else 1.0, 0.0, 1.0, TIGHT),
    "overflowing sums": (lambda x: 1e308 if x > 0.5 else -1e308, 0.0, 1.0, TIGHT),
}


@pytest.mark.parametrize("name", CASES)
def test_fixed_cases_match_quadpack(name):
    f, a, b, kw = CASES[name]
    assert port(pointwise(f), a, b, **kw) == quadpack(f, a, b, **kw)


def test_fixed_cases_take_every_exit():
    ier = {qags(pointwise(f), a, b, **kw)[3] for f, a, b, kw in CASES.values()}
    assert ier == {0, 1, 2, 3, 4, 5}


def test_first_error_is_quadpacks():
    # the integrand fails at every x > 0.7: the port raises for the first such
    # abscissa in dqk21's order, as the pointwise callback does
    def f(x):
        if x > 0.7:
            raise ValueError(f"no value at {x!r}")
        return x

    with pytest.raises(ValueError) as expected:
        integrate.quad(f, 0.0, 1.0)
    with pytest.raises(ValueError) as got:
        qags(pointwise(f), 0.0, 1.0)
    assert str(got.value) == str(expected.value)


def test_integrand_error_after_bisections_propagates():
    f = lambda x: 1 / (1 - x)  # reaches x = 1 once the intervals are small enough
    with pytest.raises(ZeroDivisionError):
        integrate.quad(f, 0.0, 1.0, **TIGHT)
    with pytest.raises(ZeroDivisionError):
        qags(pointwise(f), 0.0, 1.0, **TIGHT)


@pytest.mark.parametrize("name", CASES)
def test_one_panel_call_per_bisection(name):
    # the first rule alone, then both halves of each bisection in one call;
    # the results are QUADPACK's, as in test_fixed_cases_match_quadpack
    f, a, b, kw = CASES[name]
    sizes = []

    def panel(xs):
        sizes.append(len(xs))
        return [f(x) for x in xs]

    value, abserr, neval, ier, last = qags(panel, a, b, **kw)
    assert sizes == [21] + [42] * (last - 1)
    assert neval == 42 * last - 21
    assert (value, abserr, neval, last, ier != 0) == quadpack(f, a, b, **kw)


def test_error_at_a_second_half_abscissa_propagates():
    # 0.75 is the centre of the right half of [0, 1]'s first bisection and no
    # node of the first rule: the error comes after the whole left half
    seen = []

    def f(x):
        if x == 0.75:
            raise ValueError("no value at 0.75")
        seen.append(x)
        return math.sqrt(x)

    with pytest.raises(ValueError, match="no value at 0.75"):
        integrate.quad(f, 0.0, 1.0)
    seen.clear()
    with pytest.raises(ValueError, match="no value at 0.75"):
        qags(pointwise(f), 0.0, 1.0)
    assert len(seen) == 42 and max(seen[21:]) <= 0.5


def test_invalid_input():
    assert qags(pointwise(math.exp), 0.0, 1.0, epsabs=0.0, epsrel=1e-15)[3] == 6
    assert qags(pointwise(math.exp), 0.0, 1.0, limit=0)[3] == 6


@given(
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    freq=st.floats(0.0, 20.0),
    a=st.floats(-3.0, 0.0),
    width=st.floats(0.1, 6.0),
    amplitude=st.sampled_from([0.0, 1e-14, 1e-9, 1e-4]),
    tol=st.sampled_from([{}, TIGHT, {"epsabs": 1e-12, "epsrel": 1e-8, "limit": 20}]),
)
@settings(max_examples=60, deadline=None)
def test_smooth_noisy_integrands_match_quadpack(coeffs, freq, a, width, amplitude, tol):
    def f(x):
        poly = 0.0
        for c in reversed(coeffs):
            poly = poly * x + c
        return poly * math.cos(freq * x) * math.exp(-x * x) + amplitude * noise(x)

    assert port(pointwise(f), a, a + width, **tol) == quadpack(f, a, a + width, **tol)


def _anharmonic_pade(r, K, lam, m, n):
    return states.normalize(states.build_eigenstate(Anharmonic(), K, r=r), lam, pade=(m, n))


def _hulthen(n, l, K, lam):
    return states.normalize(states.build_eigenstate(Hulthen(l), K, n=n, l=l), lam)


# normalizations, each a (function, arguments) pair
DENSITIES = {
    # the README `wavefunction anharmonic --r 0 --K 12 --lambda 3.0 --pade 5/5`
    "readme pade 5/5": (_anharmonic_pade, (0, 12, 3.0, 5, 5)),
    # QUADPACK ends with ier 5, 2 and 4; the last norm is rejected
    "anharmonic r=0 K=12 pade 6/6": (_anharmonic_pade, (0, 12, 3.0, 6, 6)),
    "anharmonic r=2 K=20 pade 9/9": (_anharmonic_pade, (2, 20, 0.5, 9, 9)),
    "anharmonic r=2 K=20 pade 10/10": (_anharmonic_pade, (2, 20, 0.5, 10, 10)),
    "hulthen (5,2) K=14": (_hulthen, (5, 2, 14, 0.02)),
    "hulthen (6,3) K=14": (_hulthen, (6, 3, 14, 0.01)),
}


def _normalization_quadrature(monkeypatch, name):
    """The panel, window and options `normalize_function` hands to `qags`."""
    calls = []

    def spy(panel, a, b, **kw):
        calls.append((panel, a, b, kw))
        return qags(panel, a, b, **kw)

    monkeypatch.setattr(states, "qags", spy)
    normalize, args = DENSITIES[name]
    try:
        normalize(*args)
    except NonNormalizable:
        pass
    (call,) = calls
    return call


@pytest.mark.parametrize("name", DENSITIES)
def test_state_densities_match_quadpack(name, monkeypatch):
    # scipy asks for one abscissa at a time; it reads the values the port's
    # panels computed, and the kernel evaluates only abscissae the port never
    # asked for (the block and one-abscissa kernels agree bit for bit, which
    # test_float_evaluator checks)
    panel, a, b, kw = _normalization_quadrature(monkeypatch, name)
    seen = {}

    def recording(xs):
        values = panel(xs)
        seen.update(zip(xs, values))
        return values

    expected = port(recording, a, b, **kw)
    assert expected == quadpack(lambda x: seen[x] if x in seen else panel([x])[0], a, b, **kw)


def test_readme_pade_norm_pinned(monkeypatch):
    # QUADPACK stops on roundoff in the extrapolation table on this noisy
    # density; the port must stop there too, with the same integral
    panel, a, b, kw = _normalization_quadrature(monkeypatch, "readme pade 5/5")
    value, abserr, neval, ier, last = qags(panel, a, b, **kw)
    assert (value, neval, ier, last) == (1.2834536225601654, 2583, 4, 62)
    assert 4e-5 < abserr < 6e-5


# (value, neval, ier, last) of the other `--pade` densities, recorded with the
# per-abscissa lambda-series that the block kernel replaced
PADE_NORMS = {
    "anharmonic r=0 K=12 pade 6/6": (1.2724757748447477, 1911, 5, 46),
    "anharmonic r=2 K=20 pade 9/9": (27.035575451376793, 3339, 2, 80),
    "anharmonic r=2 K=20 pade 10/10": (27.0536276644952, 2499, 4, 60),
}


@pytest.mark.parametrize("name", PADE_NORMS)
def test_pade_norms_pinned(name, monkeypatch):
    # the parity test above sees only the port; these pins also see a change
    # in the bits of the resummed psi
    panel, a, b, kw = _normalization_quadrature(monkeypatch, name)
    value, abserr, neval, ier, last = qags(panel, a, b, **kw)
    assert (value, neval, ier, last) == PADE_NORMS[name]
