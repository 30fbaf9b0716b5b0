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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from scipy import integrate

from .engine import ChainSolution, ProblemFamily, solve_chain
from .errors import DomainError, InvalidLeading, NonNormalizable, RungOrderViolation
from .exact import LambdaSeries, LaurentPoly, horner

__all__ = [
    "StateRep",
    "QuadratureConfig",
    "build_G",
    "edge_state",
    "apply_creation",
    "build_eigenstate",
    "evaluate_state",
    "normalize",
    "normalize_function",
    "hamiltonian_residual",
    "count_nodes",
    "state_lambda_series",
]

_EXP_MAX = 709.0  # stay inside double range


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the normalization quadrature.

    The integration window ends where the integrand has fallen below
    ``tail_ratio`` times its peak; if that never happens inside
    ``domain_bound`` the state is reported as non-normalizable.
    """

    rel_tol: float = 1e-10
    domain_bound: float = 2000.0
    tail_ratio: float = 1e-16
    scan_points: int = 8000


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


def _pointwise(state: StateRep, x: float, K: int | None) -> tuple[list[float], list[float]]:
    """(x^p R_k)(x) for k = 0..K and G_k(x) for k = 1..K; K defaults to the state's order.

    At the origin only the constant terms of x^p R survive, and every G_k is
    taken as zero there (the G_k are antiderivatives with zero constant term).
    """
    K = state.order if K is None else K
    if K > state.order:
        raise DomainError(f"K={K} beyond state order {state.order}")
    Q = state._xp_prefactor[: K + 1]
    if x == 0.0:
        if any(p.min_exponent is not None and p.min_exponent < 0 for p in Q):
            raise DomainError("prefactor retains a pole at x = 0")
        return [float(p.coeff(0)) for p in Q], [0.0] * K
    return [p(x) for p in Q], [state.G[k](x) for k in range(1, K + 1)]


def evaluate_state(state: StateRep, x: float, lam: float, K: int | None = None) -> float:
    """Floating evaluation of the factored form, truncated at order K."""
    if state.radial and x < 0:
        raise DomainError("radial states are defined for x >= 0")
    q, g = _pointwise(state, x, K)
    pref = horner(q, lam)
    expo = -state.decay(x) - horner(g, lam) * lam
    if expo > _EXP_MAX:
        return math.copysign(math.inf, pref)
    return pref * math.exp(expo)


def state_lambda_series(state: StateRep, x: float, K: int | None = None) -> list[float]:
    """Coefficients of the expansion of psi(x, .) in the coupling, as floats.

    Exponentiates the -sum lam^k G_k(x) series termwise and convolves with the
    prefactor; used for pointwise resummation of wavefunctions.
    """
    q, g = _pointwise(state, x, K)
    K = len(q) - 1
    # E = exp(-sum_{k>=1} g_k lam^k):  m E_m = -sum_{j=1..m} j g_j E_{m-j}  (g_j is g[j - 1])
    E = [1.0] + [0.0] * K
    for m in range(1, K + 1):
        E[m] = -sum(j * g[j - 1] * E[m - j] for j in range(1, m + 1)) / m
    base = math.exp(-state.decay(x))
    return [base * sum(q[m] * E[k - m] for m in range(k + 1)) for k in range(K + 1)]


def _scan_cutoff(f, start: float, stop: float, points: int, tail_ratio: float) -> float:
    """March from `start` toward `stop`; return the abscissa where f has
    decayed below tail_ratio times its running peak."""
    xs = [start + (stop - start) * i / points for i in range(points + 1)]
    peak = 0.0
    for x in xs:
        try:
            val = f(x)
        except OverflowError:
            raise NonNormalizable("integrand overflows before decaying")
        if not math.isfinite(val):
            raise NonNormalizable("integrand diverges before decaying")
        peak = max(peak, val)
        if peak > 0.0 and val < tail_ratio * peak:
            return x
    raise NonNormalizable(
        f"tail criterion not met inside the domain bound {stop}"
    )


def normalize_function(f, radial: bool, config: QuadratureConfig | None = None) -> float:
    """Normalization constant for an arbitrary evaluator f(x) (used for resummed
    wavefunction sampling); same tail logic as `normalize`."""
    config = config or QuadratureConfig()
    density = lambda x: f(x) ** 2
    scan = lambda g: _scan_cutoff(g, 0.0, config.domain_bound, config.scan_points, config.tail_ratio)
    hi = scan(density)
    lo = 0.0 if radial else -scan(lambda x: density(-x))
    res = integrate.quad(
        density, lo, hi, epsabs=0.0, epsrel=config.rel_tol, limit=400, full_output=1
    )
    val, err = res[0], res[1]
    # pointwise-resummed evaluators carry per-point solve noise, so only a
    # genuinely non-convergent integral is rejected here
    if val <= 0.0 or not (err < 1e-3 * val):
        raise NonNormalizable(f"norm quadrature did not converge (err {err:.2e})")
    return 1.0 / math.sqrt(val)


def normalize(
    state: StateRep, lam: float, K: int | None = None, quadrature: QuadratureConfig | None = None
) -> float:
    """Normalization constant N with the square of N*psi integrating to 1."""
    config = quadrature or QuadratureConfig()
    K = state.order if K is None else K
    return normalize_function(
        lambda x: evaluate_state(state, x, lam, K), state.radial, config
    )


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


def count_nodes(
    state: StateRep,
    lam: float,
    K: int | None = None,
    x_max: float | None = None,
    samples: int = 6000,
) -> int:
    """Count interior sign changes on a grid (radial: (0, x_max); line: symmetric).

    A truncated exponent series can turn around and grow far outside the
    physical region; any strictly growing window edge is stripped before
    counting so only the decaying, physical part of the state is inspected.
    """
    K = state.order if K is None else K
    if state.radial:
        n_scale = state.power
        hi = x_max if x_max is not None else max(40.0, 12.0 * n_scale**2)
        xs = [hi * (i + 1) / (samples + 1) for i in range(samples)]
    else:
        hi = x_max if x_max is not None else 10.0
        xs = [-hi + 2 * hi * i / samples for i in range(samples + 1)]
    vals = [evaluate_state(state, x, lam, K) for x in xs]
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
