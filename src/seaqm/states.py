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

Evaluation reads flat float tables of x^p R_k, G_k and D, compiled once per
state and order (`_Tables`, kept on the `StateRep`).  The array kernel
`evaluate_state_grid` evaluates `_BLOCK` abscissae at a time for the
wavefunction rows, `count_nodes`, the normalization's tail scan and its
quadrature (`quadrature.qags`, QUADPACK's QAGS, which asks for one 21-point
Kronrod panel at a time); the scalar kernel (`evaluate_state`,
`state_lambda_series`) serves the pointwise resummation.  Both give
`LaurentPoly.__call__`'s values bit for bit: powers come from Python's ``**``
and exponentials from `math.exp` (libm), not from `np.power` or `np.exp`,
whose vectorized versions differ in the last bit for some arguments; numpy
only adds and multiplies elementwise, in the scalar order, which IEEE
arithmetic makes exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial, reduce
from itertools import repeat
from operator import add, mul
from typing import Iterator, Sequence

import numpy as np

from .engine import ChainSolution, ProblemFamily, solve_chain
from .errors import DomainError, InvalidLeading, NonNormalizable, RungOrderViolation
from .exact import LambdaSeries, LaurentPoly, horner
from .quadrature import qags

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

# The array kernel and the tail scan take at most _BLOCK abscissae at a time,
# so the scan evaluates few points past its stop and no table spans a grid.
_BLOCK = 256


@dataclass(frozen=True)
class StateRep:
    """Eigenstate in prefactor-times-edge-exponential form (unnormalized)."""

    family: ProblemFamily
    base_rung: int
    power: int               # exponent of the x^p factor (0 on the full line)
    decay: LaurentPoly       # D(x): order-0 exponent, pure polynomial
    prefactor: LambdaSeries  # R(x, lam)
    G: LambdaSeries          # G_k for k >= 1; entry 0 is the zero polynomial
    n: int | None = None
    l: int | None = None
    r: int | None = None

    @property
    def order(self) -> int:
        return self.prefactor.order

    @property
    def radial(self) -> bool:
        return self.family.radial

    @cached_property
    def _xp_prefactor(self) -> tuple[LaurentPoly, ...]:
        """x^power * R_k for every order, built once: pole-free for every valid state."""
        xp = LaurentPoly.monomial(self.power)
        return tuple(xp * p for p in self.prefactor)

    @cached_property
    def _tables(self) -> dict[int, "_Tables"]:
        """The float tables of each evaluated order, filled by `_tables_at`."""
        return {}


def build_G(chain: ChainSolution, r: int) -> LambdaSeries:
    """Antiderivatives of the rung-r superpotential coefficients for k >= 1.

    The order-0 entry is zero: the leading decay is held separately in the
    state's ``power``/``decay`` fields.
    """
    rung = chain.rung(r)
    out = [LaurentPoly.zero()]
    for k in range(1, chain.K + 1):
        out.append(rung.w[k].antiderivative())
    return LambdaSeries(out)


def edge_state(chain: ChainSolution, r: int) -> StateRep:
    """The nodeless state of rung r: R = 1 with the rung's own decay."""
    lead = chain.rung(r).leading
    if lead.pole.denominator != 1:
        raise InvalidLeading(
            f"rung {r} has a non-integral pole {lead.pole}; its edge state x^{-lead.pole} "
            "is not a Laurent monomial"
        )
    decay = LaurentPoly({1: lead.constant, 2: lead.linear / 2})
    one = LambdaSeries(
        [LaurentPoly.constant(1)] + [LaurentPoly.zero()] * chain.K
    )
    return StateRep(
        family=chain.family,
        base_rung=r,
        power=int(-lead.pole),
        decay=decay,
        prefactor=one,
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
    K = state.order
    W_q = chain.rung(q).superpotential_series().truncated(K)
    W_r = chain.rung(r).superpotential_series().truncated(K)
    R = state.prefactor
    new_R = (W_q + W_r) * R + R.derivative().scale(-1)
    return replace(state, prefactor=new_R)


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
    """x^p R_0..R_K, G_1..G_K and D of a state at order K as flat float tables:
    the terms, in that order and each polynomial's insertion order, are
    `coeffs[i] * x**exps[slots[i]]`, and polynomial j owns `bounds[j]`."""

    __slots__ = ("K", "exps", "slots", "coeffs", "bounds")

    def __init__(self, state: StateRep, K: int):
        slot: dict[int, int] = {}  # exponent -> its index in exps
        self.K, self.slots, self.coeffs, self.bounds = K, [], [], []
        for p in (*state._xp_prefactor[: K + 1], *state.G.coeffs[1 : K + 1], state.decay):
            start = len(self.slots)
            for e, c in p.float_terms:
                self.slots.append(slot.setdefault(e, len(slot)))
                self.coeffs.append(c)
            self.bounds.append((start, len(self.slots)))
        self.exps = tuple(slot)


def _tables_at(state: StateRep, K: int | None) -> _Tables:
    K = state.order if K is None else K
    if K > state.order:
        raise DomainError(f"K={K} beyond state order {state.order}")
    tables = state._tables.get(K)
    if tables is None:
        tables = state._tables[K] = _Tables(state, K)
    return tables


def _pointwise(state: StateRep, x: float, K: int | None) -> tuple[list[float], list[float], float]:
    """(x^p R_k)(x) for k = 0..K, G_k(x) for k = 1..K and D(x); K defaults to
    the state's order.  The scalar kernel: each distinct power once, each
    polynomial summed left to right in its term order, as `LaurentPoly.__call__`.

    A radial state is rejected at x < 0.  At the origin only the constant
    terms of x^p R survive, and every G_k is taken as zero there (the G_k are
    antiderivatives with zero constant term).
    """
    if state.radial and x < 0:
        raise DomainError("radial states are defined for x >= 0")
    t = _tables_at(state, K)
    K = t.K
    if x == 0.0:
        Q = state._xp_prefactor[: K + 1]
        if any(p.min_exponent is not None and p.min_exponent < 0 for p in Q):
            raise DomainError("prefactor retains a pole at x = 0")
        return [float(p.coeff(0)) for p in Q], [0.0] * K, state.decay(x)
    powers = list(map(pow, repeat(x), t.exps))
    terms = list(map(mul, t.coeffs, map(powers.__getitem__, t.slots)))
    vals = [reduce(add, terms[a:b], 0) for a, b in t.bounds]
    return vals[: K + 1], vals[K + 1 : -1], vals[-1]


def evaluate_state(state: StateRep, x: float, lam: float, K: int | None = None) -> float:
    """Floating evaluation of the factored form, truncated at order K."""
    q, g, d = _pointwise(state, x, K)
    pref = horner(q, lam)
    expo = -d - horner(g, lam) * lam
    if expo > _EXP_MAX:
        return math.copysign(math.inf, pref)
    return pref * math.exp(expo)


def _psi_block(state: StateRep, t: _Tables, xs: Sequence[float], lam: float) -> list[float | None]:
    """The array kernel: `evaluate_state` at each x of xs, bit for bit, with
    None wherever evaluate_state raises.  The origin, a negative x on a
    radial state and an x with an overflowing power are left to the scalar
    kernel."""
    n = len(xs)
    powers = np.empty((len(t.exps), n))
    scalar = []
    for i, x in enumerate(xs):
        if x == 0.0 or (state.radial and x < 0):
            scalar.append(i)
            continue
        try:
            powers[:, i] = list(map(pow, repeat(float(x)), t.exps))
        except OverflowError:
            scalar.append(i)
    powers[:, scalar] = 1.0
    with np.errstate(all="ignore"):  # overflow to inf and nan unwarned, as Python floats do
        vals = []
        for a, b in t.bounds:
            acc = np.zeros(n)
            for s, c in zip(t.slots[a:b], t.coeffs[a:b]):
                acc = acc + c * powers[s]
            vals.append(acc)
        pref = np.zeros(n)
        for a in reversed(vals[: t.K + 1]):
            pref = pref * lam + a
        hg = np.zeros(n)
        for a in reversed(vals[t.K + 1 : -1]):
            hg = hg * lam + a
        expo = -vals[-1] - hg * lam
    out: list[float | None] = [
        math.copysign(math.inf, p) if e > _EXP_MAX else p * math.exp(e)
        for p, e in zip(pref.tolist(), expo.tolist())
    ]
    for i in scalar:
        try:
            out[i] = evaluate_state(state, xs[i], lam, t.K)
        except (DomainError, OverflowError):
            out[i] = None
    return out


def evaluate_state_grid(
    state: StateRep, xs: Sequence[float], lam: float, K: int | None = None
) -> Iterator[float]:
    """`evaluate_state(state, x, lam, K)` for each x of xs in turn, bit for bit,
    computed `_BLOCK` abscissae at a time by the array kernel.  Lazy: an x
    where evaluate_state raises raises the same error when the iteration
    reaches it, and points past it in its block never raise."""
    t = _tables_at(state, K)
    for start in range(0, len(xs), _BLOCK):
        block = xs[start : start + _BLOCK]
        for x, v in zip(block, _psi_block(state, t, block, lam)):
            yield evaluate_state(state, x, lam, t.K) if v is None else v


def state_lambda_series(state: StateRep, x: float, K: int | None = None) -> list[float]:
    """Coefficients of the expansion of psi(x, .) in the coupling, as floats.

    Exponentiates the -sum lam^k G_k(x) series termwise and convolves with the
    prefactor; used for pointwise resummation of wavefunctions.  Every sum
    runs left to right.
    """
    q, g, d = _pointwise(state, x, K)
    K = len(q) - 1
    # E = exp(-sum_{k>=1} g_k lam^k):  m E_m = -sum_{j=1..m} j g_j E_{m-j}  (g_j is g[j - 1])
    jg = [j * gj for j, gj in enumerate(g, 1)]
    E = [1.0]
    for m in range(1, K + 1):
        E.append(-reduce(add, map(mul, jg, E[::-1]), 0) / m)
    base = math.exp(-d)
    return [base * reduce(add, map(mul, q, E[k::-1]), 0) for k in range(K + 1)]


def _scan_cutoff(grid, stop: float) -> float:
    """March from 0 toward `stop`, `_BLOCK` grid points at a time; return the
    abscissa where the density psi^2 has decayed below _TAIL_RATIO times its
    running peak.  `grid(xs)` iterates psi over xs lazily, raising where psi
    raises.

    When it never does, the truncated series has broken down before the state
    decayed: the error names where the density stopped decaying (its lowest
    point relative to the running peak), the decay reached there, and how the
    scan ended.
    """
    peak = 0.0
    lowest, x_turn = 1.0, 0.0
    for start in range(0, _SCAN_POINTS + 1, _BLOCK):
        xs = [stop * i / _SCAN_POINTS for i in range(start, min(start + _BLOCK, _SCAN_POINTS + 1))]
        psi = grid(xs)
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


def _state_psi(state: StateRep, lam: float, K: int | None):
    """psi of one state at one coupling and order: a call evaluates one x with
    the scalar kernel, `grid(xs)` many with the array kernel."""
    psi = partial(evaluate_state, state, lam=lam, K=K)
    psi.grid = partial(evaluate_state_grid, state, lam=lam, K=K)
    return psi


def normalize_function(f, radial: bool) -> float:
    """Normalization constant for an arbitrary evaluator f(x) (used for resummed
    wavefunction sampling); same tail logic as `normalize`.  When f also has a
    `grid(xs)` method iterating f over xs, the tail scan and the quadrature go
    through it; otherwise f is mapped over each block of abscissae.

    The window is [0 or the left cutoff, the right cutoff] of `_scan_cutoff`,
    and the density f(x)^2 is integrated over it by `quadrature.qags`, one
    21-point panel at a time, to relative tolerance `_REL_TOL`.
    """
    grid = getattr(f, "grid", None) or partial(map, f)
    hi = _scan_cutoff(grid, _DOMAIN_BOUND)
    lo = 0.0 if radial else _scan_cutoff(grid, -_DOMAIN_BOUND)
    val, err, *_ = qags(
        lambda xs: [v**2 for v in grid(xs)], lo, hi, epsabs=0.0, epsrel=_REL_TOL, limit=400
    )
    # pointwise-resummed evaluators carry per-point solve noise, so only a
    # genuinely non-convergent integral is rejected here
    if val <= 0.0 or not (err < 1e-3 * val):
        raise NonNormalizable(f"norm quadrature did not converge (err {err:.2e})")
    return 1.0 / math.sqrt(val)


def normalize(state: StateRep, lam: float, K: int | None = None) -> float:
    """Normalization constant N with the square of N*psi integrating to 1."""
    return normalize_function(_state_psi(state, lam, K), state.radial)


def hamiltonian_residual(state: StateRep, chain: ChainSolution, K: int | None = None) -> list[LaurentPoly]:
    """Apply the base Hamiltonian minus the state's energy, order by order.

    Computes ``(-d^2/dx^2 + v_0 - eps) psi`` divided by the base exponential
    factor, which reduces to the polynomial series

        -R'' + 2 W_r R' + (W_r' - W_r^2 + v_0 - eps_r) R.

    Every order must vanish identically for a genuine eigenstate.
    """
    K = state.order if K is None else K
    r = state.base_rung
    W = chain.rung(r).superpotential_series().truncated(K)
    v0 = chain.rung(0).potential_series().truncated(K)
    eps = chain.rung(r).energy
    R = state.prefactor.truncated(K)
    Rp = R.derivative()
    Rpp = Rp.derivative()
    # A = W' - W^2 + v0 - eps, assembled once so the residual is a single
    # pair of series convolutions
    Wsq = W * W
    A = LambdaSeries([
        W[k].derivative() - Wsq[k] + v0[k] - LaurentPoly.constant(eps[k])
        for k in range(K + 1)
    ])
    WRp = W * Rp
    AR = A * R
    return [-Rpp[k] + 2 * WRp[k] + AR[k] for k in range(K + 1)]


def count_nodes(state: StateRep, lam: float, K: int | None = None) -> int:
    """Count interior sign changes on a grid (radial: (0, max(40, 12 p^2));
    line: symmetric about 0).

    A truncated exponent series can turn around and grow far outside the
    physical region; any strictly growing window edge is stripped before
    counting so only the decaying, physical part of the state is inspected.
    """
    K = state.order if K is None else K
    if state.radial:
        hi = max(40.0, 12.0 * state.power**2)
        xs = [hi * (i + 1) / (_NODE_SAMPLES + 1) for i in range(_NODE_SAMPLES)]
    else:
        hi = _NODE_HALF_WIDTH
        xs = [-hi + 2 * hi * i / _NODE_SAMPLES for i in range(_NODE_SAMPLES + 1)]
    vals = list(evaluate_state_grid(state, xs, lam, K))
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
