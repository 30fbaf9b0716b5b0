"""The shared float evaluator: every coupling-series evaluation goes through
`exact.horner` with the operation order of the original per-site loops, so
the values below (recorded with those loops, as float.hex) must come out
bit for bit."""

import math
import struct
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seaqm.resummation
import seaqm.states
from seaqm.engine import Anharmonic, Hulthen
from seaqm.errors import DomainError, NonNormalizable, PoleProximity
from seaqm.exact import LaurentPoly, horner
from seaqm.resummation import float_pade_block, pade, pade_eval
from seaqm.spectra import evaluate_truncated, hulthen_energy_series
from seaqm.states import (
    StateRep,
    _columns,
    _scan_cutoff,
    _series,
    build_eigenstate,
    evaluate_state,
    evaluate_state_grid,
    state_lambda_series,
)

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
        12.0: "-0x1.d9f84962813f6p+8",
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
    state_lambda_series(hulthen_52, 2.0)
    assert calls == []


def test_pole_at_origin_rejected_by_both_evaluators():
    # x^0 * (1/x + 1) keeps its pole, which only the origin exposes
    st = StateRep(
        family=Hulthen(0),
        base_rung=0,
        power=0,
        decay=P({1: 1}),
        prefactor=(P({-1: 1, 0: 1}),),
        G=(P.zero(),),
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


def test_laurent_sum_runs_left_to_right():
    # a compensated sum (Python 3.12's `sum`) would give 1.0
    assert LaurentPoly({0: 10**16, 1: 1, 2: -10**16})(1.0) == 0.0


# -- the array and scalar kernels against the LaurentPoly evaluation ---------------


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _reference_pointwise(state, x):
    """Per-polynomial `LaurentPoly.__call__` values of x^p R_k and G_k, with
    the radial rule of `evaluate_state` and an explicit origin rule: the
    constant terms of x^p R_k, a pole rejected, and every G_k zero."""
    if state.family.radial and x < 0:
        raise DomainError("radial")
    K = state.order
    Q = [P.monomial(state.power) * p for p in state.prefactor]
    if x == 0.0:
        if any(p.min_exponent is not None and p.min_exponent < 0 for p in Q):
            raise DomainError("pole")
        return [float(p.coeff(0)) for p in Q], [0.0] * K
    return [p(x) for p in Q], [state.G[k](x) for k in range(1, K + 1)]


def _reference_psi(state, x, lam):
    q, g = _reference_pointwise(state, x)
    pref = horner(q, lam)
    expo = -state.decay(x) - horner(g, lam) * lam
    return math.copysign(math.inf, pref) if expo > 709.0 else pref * math.exp(expo)


def _reference_series(state, x):
    q, g = _reference_pointwise(state, x)
    K = state.order
    E = [1.0]
    for m in range(1, K + 1):
        acc = 0
        for j in range(1, m + 1):
            acc = acc + j * g[j - 1] * E[m - j]
        E.append(-acc / m)
    base = math.exp(-state.decay(x))
    out = []
    for k in range(K + 1):
        acc = 0
        for m in range(k + 1):
            acc = acc + q[m] * E[k - m]
        out.append(base * acc)
    return out


def _outcome(fn, *args):
    """The bits of fn's value, or the name of the error it raises."""
    try:
        v = fn(*args)
    except (DomainError, OverflowError) as exc:
        return type(exc).__name__
    return [_bits(c) for c in v] if isinstance(v, list) else _bits(v)


def _walk(values):
    """The bits of each value (or list of values) an iterator yields, ending
    with the name of the first error it raises."""
    out = []
    try:
        for v in values:
            out.append([_bits(c) for c in v] if isinstance(v, list) else _bits(v))
    except (DomainError, OverflowError) as exc:
        out.append(type(exc).__name__)
    return out


# name: (family, order, labels, physical abscissae, couplings)
STATES = {
    "hulthen (5,2)": (Hulthen(2), 14, {"n": 5, "l": 2}, (0.0, 150.0), 0.03),
    "hulthen (6,3)": (Hulthen(3), 14, {"n": 6, "l": 3}, (0.0, 200.0), 0.015),
    # seven rungs deep: x^p R_k runs from 1 to 19 terms and every odd order is zero
    "hulthen (9,1)": (Hulthen(1), 14, {"n": 9, "l": 1}, (0.0, 300.0), 0.01),
    "anharmonic r=0": (Anharmonic(), 8, {"r": 0}, (-40.0, 40.0), 0.3),
    "anharmonic r=1": (Anharmonic(), 8, {"r": 1}, (-40.0, 40.0), 0.3),
    "anharmonic r=2": (Anharmonic(), 8, {"r": 2}, (-40.0, 40.0), 0.3),
}


@lru_cache(maxsize=None)
def _state(name, K=None):
    """The state `name`, built at order K (its listed order by default)."""
    family, order, labels, _, _ = STATES[name]
    return build_eigenstate(family, order if K is None else K, **labels)


# the origin, tiny and negative abscissae, and abscissae past about 1e16,
# where a power overflows
edge_abscissae = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e-3, 1e-3), st.floats(-1e30, 1e30))


@given(
    data=st.data(),
    name=st.sampled_from(sorted(STATES)),
    K=st.integers(0, 14),
    block=st.sampled_from([1, 4, 7, 42, 256]),  # 42: the abscissae of one QAGS call
)
@settings(max_examples=150, deadline=None)
def test_kernels_match_laurent_evaluation_bit_for_bit(data, name, K, block):
    _, order, _, (lo, hi), lam_max = STATES[name]
    state = _state(name, min(K, order))
    xs = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=40))
    xs += data.draw(st.lists(edge_abscissae, max_size=2))
    xs = data.draw(st.permutations(xs))
    lam = data.draw(st.floats(-lam_max, lam_max))
    expected = _walk(_reference_psi(state, x, lam) for x in xs)
    expected_series = _walk(_reference_series(state, x) for x in xs)
    assert _walk(evaluate_state(state, x, lam) for x in xs) == expected
    assert _walk(state_lambda_series(state, x) for x in xs) == expected_series
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seaqm.states, "_BLOCK", block)
        assert _walk(evaluate_state_grid(state, xs, lam)) == expected
        assert _walk(c.tolist() for c in _columns(state, xs, _series)) == expected_series


def test_kernel_examples_cover_overflow_and_signed_zeros():
    # psi^2 overflows from |x| = 31.75 on anharmonic r = 0 at K = 2,
    # lambda = 0.01, a power (degree 6 at most) overflows at x = 1e60, and the Hulthen (5,2)
    # state is a signed zero at the origin
    state = build_eigenstate(Anharmonic(), 2, r=0)
    xs = [-32.0, -6.5, 0.0, 2.0, 6.5, 32.0]
    values = list(evaluate_state_grid(state, xs, 0.01))
    assert [_bits(v) for v in values] == [_outcome(_reference_psi, state, x, 0.01) for x in xs]
    with pytest.raises(OverflowError):
        values[-1] ** 2
    with pytest.raises(OverflowError):
        list(evaluate_state_grid(state, [1.0, 1e60], 0.01))
    hulthen = _state("hulthen (5,2)")
    at_origin = list(evaluate_state_grid(hulthen, [-0.0, 0.0, 3.0], -0.02))
    assert [_bits(v) for v in at_origin] == [_outcome(_reference_psi, hulthen, x, -0.02) for x in (-0.0, 0.0, 3.0)]
    assert _bits(at_origin[0]) in (_bits(0.0), _bits(-0.0))


def _scan_outcome(grid, stop):
    try:
        return _scan_cutoff(grid, stop)
    except NonNormalizable as exc:
        return str(exc)


def _one_row_pade(state, x, pade, lam):
    """The resummed psi at one x: a one-row `float_pade_block`, raising its pole."""
    (value,), (pole,) = float_pade_block([state_lambda_series(state, x)], *pade, lam)
    if pole is not None:
        raise pole
    return value


@pytest.mark.parametrize("block", [1, 5, 256])
@pytest.mark.parametrize(
    "family, K, labels, lam, ending",
    [
        (Anharmonic(), 2, {"r": 0}, 0.01, None),  # the block holding the cutoff overflows past it
        (Hulthen(2), 14, {"n": 5, "l": 2}, 0.02, None),
        (Hulthen(1), 10, {"n": 2, "l": 1}, 0.3, "overflows at x = 43.5"),
        (Anharmonic(), 6, {"r": 1}, 1.0, "diverges at x = "),
        # the README `--pade 5/5` state: labels may carry a resummation order
        (Anharmonic(), 12, {"r": 0, "pade": (5, 5)}, 3.0, None),
    ],
)
def test_scan_in_blocks_matches_a_point_walk(family, K, labels, lam, ending, block, monkeypatch):
    monkeypatch.setattr(seaqm.states, "_BLOCK", block)
    labels = dict(labels)
    pade = labels.pop("pade", None)
    state = build_eigenstate(family, K, **labels)
    if pade is None:
        psi = partial(evaluate_state, state, lam=lam)
    else:
        psi = partial(_one_row_pade, state, pade=pade, lam=lam)
    for stop in (2000.0,) if family.radial else (2000.0, -2000.0):
        blocked = _scan_outcome(partial(evaluate_state_grid, state, lam=lam, pade=pade), stop)
        assert blocked == _scan_outcome(partial(map, psi), stop)
        if ending is None:
            assert isinstance(blocked, float)
        else:
            assert ending in blocked


def test_scan_block_runs_past_overflowing_points():
    # anharmonic r = 0 at K = 2, lambda = 0.01: the density falls below the
    # tail cutoff at |x| = 6; further out the truncated exponent turns around
    # and psi^2 overflows from |x| = 31.75, inside the same block of the scan
    state = build_eigenstate(Anharmonic(), 2, r=0)
    grid = partial(evaluate_state_grid, state, lam=0.01)
    assert _scan_cutoff(grid, 2000.0) == 6.0
    assert _scan_cutoff(grid, -2000.0) == -6.0
    past = [2000.0 * i / seaqm.states._SCAN_POINTS for i in range(25, seaqm.states._BLOCK)]
    with pytest.raises(OverflowError):
        [evaluate_state(state, x, 0.01) ** 2 for x in past]


def test_scan_resums_few_rows_past_an_early_stop(monkeypatch):
    # the README `--pade 5/5` state stops at x = +-5.75, row 23 of each side:
    # the scan's short first chunk keeps the rows resummed past it few, and
    # the cutoffs are those of a walk over all the rows
    state = build_eigenstate(Anharmonic(), 12, r=0)
    grid = partial(evaluate_state_grid, state, lam=3.0, pade=(5, 5))
    rows, real = [], seaqm.resummation._float_pade_rows

    def spy(series, m, n):
        rows.append(len(series))
        return real(series, m, n)

    monkeypatch.setattr(seaqm.resummation, "_float_pade_rows", spy)
    for stop, cutoff in ((2000.0, 5.75), (-2000.0, -5.75)):
        rows.clear()
        assert _scan_cutoff(grid, stop) == cutoff
        assert sum(rows) < 64, rows
    rows.clear()  # the spy sees a full block when the scan starts with one
    monkeypatch.setattr(seaqm.states, "_FIRST_CHUNK", seaqm.states._BLOCK)
    assert _scan_cutoff(grid, 2000.0) == 5.75 and sum(rows) == 256


def test_scan_block_pole_past_the_cutoff_never_raises(monkeypatch):
    # the README `--pade 5/5` state with a pole put into the last row of each
    # block: the scan stops at x = 5.75 (row 23), inside its first chunk of 32
    # rows, so the pole is never reached; iterating a block that far raises it
    state = build_eigenstate(Anharmonic(), 12, r=0)
    grid = partial(evaluate_state_grid, state, lam=3.0, pade=(5, 5))
    clean = _scan_cutoff(grid, 2000.0)
    real = seaqm.states.float_pade_block

    def last_row_pole(series, m, n, lam):
        values, poles = real(series, m, n, lam)
        return values, poles[:-1] + [PoleProximity("injected")]

    monkeypatch.setattr(seaqm.states, "float_pade_block", last_row_pole)
    assert _scan_cutoff(grid, 2000.0) == clean == 5.75
    xs = [2000.0 * i / seaqm.states._SCAN_POINTS for i in range(seaqm.states._BLOCK)]
    values = grid(xs)
    for _ in range(seaqm.states._BLOCK - 1):
        next(values)
    with pytest.raises(PoleProximity, match="injected"):
        next(values)
    # an x that already has an error raises that error, not its pole
    radial = build_eigenstate(Hulthen(1), 10, n=2, l=1)
    with pytest.raises(DomainError, match="radial states are defined for x >= 0"):
        next(evaluate_state_grid(radial, [-1.0], 0.1, pade=(5, 5)))
