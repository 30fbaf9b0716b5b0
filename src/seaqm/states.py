"""Eigenstate assembly and evaluation.

A state is kept in the factored form

    psi(x, lam) = R(x, lam) * x^p * exp(-D(x)) * exp(-sum_{k>=1} lam^k G_k(x))

where ``x^p exp(-D)`` is the order-0 decay of the deepest rung's nodeless
state, the G_k are the antiderivatives of the higher-order superpotential
coefficients, and R is a Laurent-polynomial prefactor series.  The nodeless
("edge") state of rung r has R = 1; each application of a creation operator
from a lower rung q rewrites the prefactor in closed form,

    R  ->  -R' + (W_q + W_r) R,

which keeps the entire construction in exact rational arithmetic.  Only
evaluation, node counting and normalization are floating point.

A state is evaluated at the order it was built to.  Evaluation reads float
term columns of x^p R_k, G_k and D, compiled once per state at that order
(`_Tables`, kept on the `StateRep`).  One block kernel, `_table_values`,
turns `_BLOCK` abscissae at a time into those values, a column per x, with
the radial and overflow rules applied column by column; the origin takes the
general power rule, and a pole left there is a `DomainError`.  It adds one
term column at a time, so a block costs one array step per term position of
the longest polynomial.  psi is an `exact.horner` pass over the values, and
the coupling series of psi is the exponential's recursion and the prefactor
convolution, done elementwise on them, one array step per order;
`pade=(m, n)` resums those series a block at a time by stacked float
Pades (`resummation.float_pade_block`).  The wavefunction rows, `count_nodes`,
the normalization's tail scan and its quadrature (`quadrature.qags`, QUADPACK's
QAGS, which asks for both halves of a bisection, 42 abscissae, in one call) all
go through it; `evaluate_state` and `state_lambda_series` are one-abscissa calls.  It gives
`LaurentPoly.__call__`'s values bit for bit: powers come from Python's ``**``
and exponentials from `math.exp` (libm), not from `np.power` or `np.exp`,
whose vectorized versions differ in the last bit for some arguments; numpy
only adds and multiplies elementwise, in the scalar order, which IEEE
arithmetic makes exact (never by `np.add.reduce` or `reduceat`, which may
sum pairwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .engine import ChainSolution, ProblemFamily, solve_chain
from .errors import DomainError, InvalidLeading, NonNormalizable, RungOrderViolation
from .exact import LaurentPoly, _dense_derivative, _dense_dot, _dense_poly, _dense_reduced, _dense_sum, horner
from .quadrature import qags
from .resummation import float_pade_block

__all__ = [
    "StateRep",
    "build_G",
    "edge_state",
    "apply_creation",
    "build_eigenstate",
    "evaluate_state",
    "evaluate_state_grid",
    "normalize",
    "normalize_function",
    "hamiltonian_residual",
    "count_nodes",
    "state_lambda_series",
]

_EXP_MAX = 709.0  # stay inside double range


# Normalization quadrature: the integration window ends where the integrand
# has fallen below _TAIL_RATIO times its peak, found on a grid of _SCAN_POINTS
# steps; if that never happens inside _DOMAIN_BOUND the state is reported as
# non-normalizable.
_REL_TOL = 1e-10
_DOMAIN_BOUND = 2000.0
_TAIL_RATIO = 1e-16
_SCAN_POINTS = 8000

# Node counting samples _NODE_SAMPLES points on (0, max(40, 12 p^2)) for a
# radial state and on [-_NODE_HALF_WIDTH, _NODE_HALF_WIDTH] on the line.
_NODE_SAMPLES = 6000
_NODE_HALF_WIDTH = 10.0

# The array kernel takes at most _BLOCK abscissae at a time, so no table spans
# a grid.  The tail scan asks for _FIRST_CHUNK of them first, doubling up to
# _BLOCK, so it evaluates few points past an early stop.
_BLOCK = 256
_FIRST_CHUNK = 32


@dataclass(frozen=True)
class StateRep:
    """Eigenstate in prefactor-times-edge-exponential form (unnormalized)."""

    family: ProblemFamily
    base_rung: int
    power: int               # exponent of the x^p factor (0 on the full line)
    decay: LaurentPoly       # D(x): order-0 exponent, pure polynomial
    prefactor: tuple[LaurentPoly, ...]  # R_0..R_K of R(x, lam)
    G: tuple[LaurentPoly, ...]          # G_k for k >= 1; entry 0 is the zero polynomial
    n: int | None = None
    l: int | None = None
    r: int | None = None

    @property
    def order(self) -> int:
        return len(self.prefactor) - 1

    @property
    def radial(self) -> bool:
        return self.family.radial

    @cached_property
    def _tables(self) -> _Tables:
        """The float tables of the state at its own order, compiled on first use."""
        return _Tables(self)


def build_G(chain: ChainSolution, r: int) -> tuple[LaurentPoly, ...]:
    """Antiderivatives of the rung-r superpotential coefficients for k >= 1.

    The order-0 entry is zero: the leading decay is held separately in the
    state's ``power``/``decay`` fields.
    """
    return (LaurentPoly.zero(), *(w.antiderivative() for w in chain.rung(r).w[1 : chain.K + 1]))


def edge_state(chain: ChainSolution, r: int) -> StateRep:
    """The nodeless state of rung r: R = 1 with the rung's own decay."""
    lead = chain.rung(r).leading
    if lead.pole.denominator != 1:
        raise InvalidLeading(
            f"rung {r} has a non-integral pole {lead.pole}; its edge state x^{-lead.pole} "
            "is not a Laurent monomial"
        )
    decay = LaurentPoly({1: lead.constant, 2: lead.linear / 2})
    return StateRep(
        family=chain.family,
        base_rung=r,
        power=int(-lead.pole),
        decay=decay,
        prefactor=(LaurentPoly.constant(1),) + (LaurentPoly.zero(),) * chain.K,
        G=build_G(chain, r),
        **chain.family.labels(r),
    )


def apply_creation(state: StateRep, q: int, chain: ChainSolution) -> StateRep:
    """Apply the creation operator of rung q (< the state's base rung).

    Since the base factor's logarithmic derivative is -W_r, the operator
    ``-d/dx + W_q`` acts on ``R * u_r`` as the prefactor rewrite
    ``R -> -R' + (W_q + W_r) R``, truncated at the state's order.
    """
    r = state.base_rung
    if not 0 <= q < r:
        raise RungOrderViolation(f"creation rung q={q} must satisfy 0 <= q < {r}")
    R, W_q, W_r = state.prefactor, chain.rung(q).w, chain.rung(r).w
    W = [W_q[k] + W_r[k] for k in range(len(R))]
    prefactor = (
        _dense_sum([(1, _dense_dot(_products(W, R, k))), (-1, _dense_derivative(R[k]._dense))])
        for k in range(len(R))
    )
    return replace(state, prefactor=tuple(prefactor))


def _products(
    a: Sequence[LaurentPoly], b: Sequence[LaurentPoly], k: int
) -> list[tuple[int, LaurentPoly, LaurentPoly]]:
    """Order k of the Cauchy product of coupling series a and b as
    `_dense_dot` terms: the products ``a[m] b[k-m]`` for m = 0..k."""
    return [(1, a[m], b[k - m]) for m in range(k + 1)]


def _cauchy(a: Sequence[LaurentPoly], b: Sequence[LaurentPoly]) -> tuple[LaurentPoly, ...]:
    """Cauchy product of coupling series, truncated at the shorter: order k is
    the one canonical sum of `_products`."""
    return tuple(
        _dense_poly(_dense_reduced(*_dense_dot(_products(a, b, k)))) for k in range(min(len(a), len(b)))
    )


def build_eigenstate(
    family: ProblemFamily, K: int, n: int | None = None, l: int | None = None, r: int | None = None
) -> StateRep:
    """Assemble the eigenstate of the base problem with the given labels.

    Screened Coulomb: labels (n, l) with 0 <= l <= n-1; ladder depth is
    n - 1 - l.  Anharmonic and generic families: label r; ladder depth r.  The
    result is the edge state of the deepest rung with every lower-rung
    creation operator applied, and is unnormalized.
    """
    depth = family.rung_of(n, l, r)
    chain = solve_chain(family, depth, K)
    state = edge_state(chain, depth)
    for q in range(depth - 1, -1, -1):
        state = apply_creation(state, q, chain)
    return state


class _Tables:
    """x^p R_0..R_K, G_1..G_K and D of a state at its order K as float term
    columns.  The polynomials are held longest first; column j holds the j-th
    term, in `float_terms` order, of each polynomial that has one, so it covers
    a leading run of them: `(coeffs, slots)`, the terms `coeffs[i] *
    x**exps[slots[i]]` of the first ``len(coeffs)`` held polynomials.  Row
    `rows[j]` of the held values is polynomial j of x^p R_0..R_K, G_1..G_K, D.
    x^p R_k is pole-free for every valid state."""

    __slots__ = ("K", "exps", "columns", "rows")

    def __init__(self, state: StateRep):
        xp = LaurentPoly.monomial(state.power)
        self.K = state.order
        polys = (*(xp * q for q in state.prefactor), *state.G[1 : self.K + 1], state.decay)
        terms = [p.float_terms for p in polys]
        held = sorted(range(len(terms)), key=lambda j: len(terms[j]), reverse=True)
        slot: dict[int, int] = {}  # exponent -> its index in exps
        self.columns = []
        for j in range(len(terms[held[0]])):
            column = [terms[i][j] for i in held if len(terms[i]) > j]
            slots = [slot.setdefault(e, len(slot)) for e, _ in column]
            self.columns.append((np.array([c for _, c in column])[:, None], np.array(slots)))
        # Python's sort inverts `held`: np.argsort would page in numpy's sort
        # kernels, about 0.25 MB of resident memory, for a few dozen rows
        self.exps, self.rows = tuple(slot), np.array(sorted(range(len(held)), key=held.__getitem__))


def _table_values(state: StateRep, t: _Tables, xs: Sequence[float]) -> tuple[np.ndarray, list]:
    """The block kernel: polynomial j of the tables (x^p R_0..R_K, G_1..G_K,
    D) at each x of xs as row j, a column per x, and per x the error it
    raises or None.  Each distinct power is taken once by Python's ``**``,
    and the term columns are added one at a time into rows that start at
    +0.0, so each polynomial is summed left to right over its `float_terms`,
    as `LaurentPoly.__call__`.  A radial state is rejected at x < 0.  The
    origin takes the same rule as any x: a valid state's x^p R_k has no
    negative exponent and each G_k starts at x^1, so the sums there are the
    constant terms or +0.0, and a negative power is reported as a pole.
    """
    powers = np.ones((len(t.exps), len(xs)))
    errors: list[Exception | None] = [None] * len(xs)
    radial = state.radial
    for i, x in enumerate(map(float, xs)):
        if radial and x < 0:
            errors[i] = DomainError("radial states are defined for x >= 0")
            continue
        try:
            powers[:, i] = list(map(pow, repeat(x), t.exps))
        except OverflowError as exc:
            errors[i] = exc
        except ZeroDivisionError:
            errors[i] = DomainError("prefactor retains a pole at x = 0")
    held = np.zeros((len(t.rows), len(xs)))
    with np.errstate(all="ignore"):  # overflow to inf and nan unwarned, as Python floats do
        # one term column at a time, over only the polynomials that have that term
        for coeffs, slots in t.columns:
            held[: len(coeffs)] += coeffs * powers[slots]
    return held[t.rows], errors


def _psi(t: _Tables, vals: np.ndarray, errors: list, lam: float) -> list[float]:
    """psi at lam from a block's table values: `exact.horner` in lam over the
    rows x^p R_k and G_k, and an infinite value past `_EXP_MAX`."""
    with np.errstate(all="ignore"):
        pref = horner(vals[: t.K + 1], lam)
        expo = -vals[-1] - horner(vals[t.K + 1 : -1], lam) * lam
    return [
        math.copysign(math.inf, p) if e > _EXP_MAX else p * math.exp(e)
        for p, e in zip(pref.tolist(), expo.tolist())
    ]


def _series(t: _Tables, vals: np.ndarray, errors: list) -> np.ndarray:
    """The coupling series of psi from a block's table values, a row per x:
    exp(-sum_{k>=1} lam^k G_k) expanded termwise and convolved with the
    prefactor series, each sum left to right from +0.0.  An x where exp(-D)
    overflows gets the OverflowError in `errors`."""
    K = t.K
    q, g = vals[: K + 1], vals[K + 1 : -1]
    base = np.full(len(errors), math.nan)
    for i, d in enumerate(vals[-1].tolist()):
        try:
            base[i] = math.exp(-d)
        except OverflowError as exc:
            errors[i] = errors[i] or exc
    with np.errstate(all="ignore"):
        # E = exp(-sum_{k>=1} g_k lam^k):  m E_m = -sum_{j=1..m} j g_j E_{m-j}  (g_j is g[j - 1]);
        # np.add.accumulate sums in sequence from the first term, and + 0.0 makes
        # a zero +0.0, as a sum that starts at +0.0 leaves it
        jg = np.arange(1, K + 1)[:, None] * g
        E = np.ones_like(q)
        for m in range(1, K + 1):
            E[m] = -(np.add.accumulate(jg[:m] * E[m - 1 :: -1])[-1] + 0.0) / m
        # order k of the prefactor convolution gains q_j E_(k-j) at step j, for j = 0..k
        out = np.zeros_like(q)
        for j in range(K + 1):
            out[j:] += q[j] * E[: K + 1 - j]
        return (base * out).T


def _columns(state: StateRep, xs: Sequence[float], kernel) -> Iterator:
    """`kernel(tables, values, errors)` of `_table_values`, `_BLOCK` abscissae
    at a time, yielded per x.  Lazy: an x with an error raises it when the
    iteration reaches it, and points past it in its block never raise."""
    t = state._tables
    for start in range(0, len(xs), _BLOCK):
        vals, errors = _table_values(state, t, xs[start : start + _BLOCK])
        for value, error in zip(kernel(t, vals, errors), errors):
            if error is not None:
                raise error
            yield value


def _resummed(t: _Tables, vals: np.ndarray, errors: list, pade: tuple[int, int], lam: float) -> list[float]:
    """psi resummed at lam: `float_pade_block` of each x's coupling series, a pole going into `errors`."""
    values, poles = float_pade_block(_series(t, vals, errors), *pade, lam)
    errors[:] = [error or pole for error, pole in zip(errors, poles)]
    return values


def evaluate_state_grid(
    state: StateRep, xs: Sequence[float], lam: float, pade: tuple[int, int] | None = None
) -> Iterator[float]:
    """psi(x, lam) truncated at the state's order for each x of xs in turn,
    lazily, with `_columns`.  With ``pade=(m, n)``, psi is instead resummed at
    each x: the float [m/n] Pade of `state_lambda_series(state, x)` at lam."""
    kernel = partial(_psi, lam=lam) if pade is None else partial(_resummed, pade=pade, lam=lam)
    return _columns(state, xs, kernel)


def evaluate_state(state: StateRep, x: float, lam: float) -> float:
    """Floating evaluation of the factored form at one x, truncated at the state's order."""
    return next(evaluate_state_grid(state, [x], lam))


def state_lambda_series(state: StateRep, x: float) -> list[float]:
    """Coefficients of the expansion of psi(x, .) in the coupling, as floats:
    the series that `evaluate_state_grid(..., pade=(m, n))` resums."""
    return next(_columns(state, [x], _series)).tolist()


def _scan_cutoff(grid, stop: float) -> float:
    """March from 0 toward `stop` over _SCAN_POINTS steps; return the abscissa
    where the density psi^2 has decayed below _TAIL_RATIO times its running
    peak.  `grid(xs)` iterates psi over xs lazily, raising where psi raises;
    the scan calls it on growing chunks of the steps (`_chunked`).

    When it never does, the truncated series has broken down before the state
    decayed: the error names where the density stopped decaying (its lowest
    point relative to the running peak), the decay reached there, and how the
    scan ended.
    """
    peak = 0.0
    lowest, x_turn = 1.0, 0.0
    xs = [stop * i / _SCAN_POINTS for i in range(_SCAN_POINTS + 1)]
    psi = _chunked(grid, xs)
    for x in xs:
        try:
            val = next(psi) ** 2
        except OverflowError:
            raise NonNormalizable(_breakdown(x_turn, lowest, f"overflows at x = {x:.6g}"))
        if not math.isfinite(val):
            raise NonNormalizable(_breakdown(x_turn, lowest, f"diverges at x = {x:.6g}"))
        peak = max(peak, val)
        if peak > 0.0 and val < _TAIL_RATIO * peak:
            return x
        if val < lowest * peak:
            lowest, x_turn = val / peak, x
    raise NonNormalizable(
        _breakdown(x_turn, lowest, f"is still above the cutoff at the domain bound {stop}")
    )


def _chunked(grid, xs: Sequence[float]) -> Iterator[float]:
    """`grid` over xs lazily, on chunks of _FIRST_CHUNK abscissae doubling up to _BLOCK."""
    start, size = 0, _FIRST_CHUNK
    while start < len(xs):
        yield from grid(xs[start : start + size])
        start, size = start + size, min(2 * size, _BLOCK)


def _breakdown(x_turn: float, lowest: float, end: str) -> str:
    turn = (
        f"stops decaying at x = {x_turn:.6g}, at {lowest:.3g} of its peak"
        if lowest < 1.0
        else "never decays"
    )
    return (
        f"integrand {turn} (tail cutoff {_TAIL_RATIO:.3g}) and {end}: the truncated "
        "series breaks down before the state decays; resum it (--pade) or use a smaller lambda"
    )


def normalize_function(grid, radial: bool) -> float:
    """Normalization constant of the function that `grid(xs)` iterates over
    xs, lazily and raising where it raises; same tail logic as `normalize`.

    The window is [0 or the left cutoff, the right cutoff] of `_scan_cutoff`,
    and the density f(x)^2 is integrated over it by `quadrature.qags`, both
    halves of a bisection in one call, to relative tolerance `_REL_TOL`.
    """
    hi = _scan_cutoff(grid, _DOMAIN_BOUND)
    lo = 0.0 if radial else _scan_cutoff(grid, -_DOMAIN_BOUND)
    val, err, _, ier, last = qags(
        lambda xs: [v**2 for v in grid(xs)], lo, hi, epsabs=0.0, epsrel=_REL_TOL, limit=400
    )
    # pointwise-resummed evaluators carry per-point solve noise, so only a
    # genuinely non-convergent integral is rejected here
    if val <= 0.0 or not (err < 1e-3 * val):
        size = f"relative error {err / val:.2e}" if val > 0.0 else f"integral {val:.3g}"
        raise NonNormalizable(f"norm quadrature did not converge on [{lo:.6g}, {hi:.6g}]: "
                              f"QAGS ier {ier} after {last} subintervals, {size}")
    return 1.0 / math.sqrt(val)


def normalize(state: StateRep, lam: float, pade: tuple[int, int] | None = None) -> float:
    """Normalization constant N with the square of N*psi integrating to 1;
    psi is resummed at each x when `pade` is given, as in `evaluate_state_grid`."""
    grid = partial(evaluate_state_grid, state, lam=lam, pade=pade)
    return normalize_function(grid, state.radial)


def hamiltonian_residual(state: StateRep, chain: ChainSolution) -> list[LaurentPoly]:
    """Apply the base Hamiltonian minus the state's energy, order by order.

    Computes ``(-d^2/dx^2 + v_0 - eps) psi`` divided by the base exponential
    factor, which reduces to the polynomial series

        -R'' + 2 W_r R' + (W_r' - W_r^2 + v_0 - eps_r) R.

    Every order must vanish identically for a genuine eigenstate.
    """
    K = state.order
    r = state.base_rung
    W = chain.rung(r).w[: K + 1]
    v0, eps = chain.rung(0).potential, chain.rung(r).energy
    R = state.prefactor
    Rp = [p.derivative() for p in R]
    Rpp = [p.derivative() for p in Rp]
    # A = W' - W^2 + v0 - eps, assembled once so the residual is a single
    # pair of series convolutions
    Wsq = _cauchy(W, W)
    A = [W[k].derivative() - Wsq[k] + v0[k] - LaurentPoly.constant(eps[k]) for k in range(K + 1)]
    WRp = _cauchy(W, Rp)
    AR = _cauchy(A, R)
    return [-Rpp[k] + 2 * WRp[k] + AR[k] for k in range(K + 1)]


def count_nodes(state: StateRep, lam: float) -> int:
    """Count interior sign changes on a grid (radial: (0, max(40, 12 p^2));
    line: symmetric about 0).

    A truncated exponent series can turn around and grow far outside the
    physical region; any strictly growing window edge is stripped before
    counting so only the decaying, physical part of the state is inspected.
    Where psi is no longer finite inside the window the state has no such
    part to count, and NonNormalizable names the first such x.
    """
    if state.radial:
        hi = max(40.0, 12.0 * state.power**2)
        xs = [hi * (i + 1) / (_NODE_SAMPLES + 1) for i in range(_NODE_SAMPLES)]
    else:
        hi = _NODE_HALF_WIDTH
        xs = [-hi + 2 * hi * i / _NODE_SAMPLES for i in range(_NODE_SAMPLES + 1)]
    vals = list(evaluate_state_grid(state, xs, lam))
    for x, v in zip(xs, vals):
        if not math.isfinite(v):
            raise NonNormalizable(
                f"psi is not finite at x = {x:.6g} inside the node-count window: the truncated "
                "series breaks down before the state decays; use a smaller lambda"
            )
    start, end = 0, len(vals)
    while end - start > 2 and abs(vals[end - 1]) > abs(vals[end - 2]):
        end -= 1
    if not state.radial:
        while end - start > 2 and abs(vals[start]) > abs(vals[start + 1]):
            start += 1
    kept = vals[start:end]
    scale = max(abs(v) for v in kept)
    signs = [v for v in kept if abs(v) > 1e-9 * scale]
    count = 0
    for a, b in zip(signs, signs[1:]):
        if (a > 0) != (b > 0):
            count += 1
    return count
