"""Physical energy series assembled from partner chains, plus the closed-form
eigenstate of the zero-angular-momentum screened Coulomb levels.

A screened Coulomb level (n, l) is the energy series of rung r = n - 1 - l of
the chain built with base parameter b = l + 1; an anharmonic level r is the
energy series of rung r of the quartic chain.  The exact l = 0 series ends at
k = 2, so ``evaluate_truncated(hulthen_energy_series(n, 0, 2), lam, 2)`` is
the closed-form level -(1/n - n*lam/2)^2, bound only for 0 <= lam <= 2/n^2.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

from .engine import Anharmonic, Hulthen, ProblemFamily, solve_chain
from .errors import OrderExceeded
from .exact import LaurentPoly, horner, rational_to_str

__all__ = [
    "EnergySeries",
    "ClosedFormL0",
    "hulthen_energy_series",
    "anharmonic_energy_series",
    "hulthen_l0_state",
    "evaluate_truncated",
]


@dataclass(frozen=True)
class EnergySeries:
    """Truncated energy expansion for one labelled level.

    Exactly one label set is populated: (n, l) for the screened Coulomb
    family, r for the anharmonic family.
    """

    family: str
    K: int
    coeffs: tuple[Fraction, ...]
    n: int | None = None
    l: int | None = None
    r: int | None = None

    def __post_init__(self):
        if len(self.coeffs) != self.K + 1:
            raise ValueError("coefficient list must have length K + 1")

    def to_json(self) -> dict:
        labels = {k: v for k, v in {"n": self.n, "l": self.l, "r": self.r}.items() if v is not None}
        return {
            "family": self.family,
            **labels,
            "K": self.K,
            "coeffs": [rational_to_str(c) for c in self.coeffs],
        }

    def to_csv_rows(self) -> list[tuple[int, str]]:
        """(k, coefficient) rows with decimal coefficients at 30 significant digits."""
        ctx = decimal.Context(prec=30)
        rows = []
        for k, c in enumerate(self.coeffs):
            val = ctx.divide(decimal.Decimal(c.numerator), decimal.Decimal(c.denominator))
            rows.append((k, str(val)))
        return rows


def _level_series(family: ProblemFamily, K: int, **labels: int) -> EnergySeries:
    """Energy series through order K of the family's level with these labels."""
    if K < 0:
        raise ValueError("K must be non-negative")
    r = family.rung_of(**labels)
    return EnergySeries(family=family.name, K=K, coeffs=solve_chain(family, r, K).rung(r).energy, **labels)


def hulthen_energy_series(n: int, l: int, K: int) -> EnergySeries:
    """Energy series of the screened Coulomb level (n, l) through order K."""
    return _level_series(Hulthen(l), K, n=n, l=l)


def anharmonic_energy_series(r: int, K: int) -> EnergySeries:
    """Energy series of anharmonic level r through order K."""
    return _level_series(Anharmonic(), K, r=r)


@dataclass(frozen=True)
class ClosedFormL0:
    """Closed-form l=0 level: a degree-n polynomial eta_n in y = 1 - e^(-lam*x)
    times the decay factor (1 - y)^(b_n) with b_n = 1/(n*lam) - n/2.

    The eta coefficients c_k are stored as exact polynomials in mu = 1/lam, so
    the recurrence ends by exact cancellation: c[n + 1] is the zero polynomial.
    The normalization is fixed by c_1 = 1; the state is normalizable only for
    0 <= lam < 2/n^2.
    """

    n: int
    c: tuple[LaurentPoly, ...]  # c[k] as a polynomial in mu = 1/lam, k = 0..n+1

    def b(self, lam: float) -> float:
        return 1.0 / (self.n * lam) - self.n / 2.0

    def eta(self, y: float, lam: float) -> float:
        mu = 1.0 / lam
        return horner([poly(mu) for poly in self.c[: self.n + 1]], y)

    def wavefunction(self, x: float, lam: float) -> float:
        """phi_{n0}(x, lam), unnormalized (c_1 = 1 convention)."""
        y = -math.expm1(-lam * x)
        return math.exp(-lam * self.b(lam) * x) * self.eta(y, lam)


def hulthen_l0_state(n: int) -> ClosedFormL0:
    """Build the l=0 closed form for level n via the series recurrence.

    With the quantized decay parameter b_n = mu/n - n/2 (mu = 1/lam) the
    coefficient recurrence is

        c_{k+1} = [k(k-1) + (2 b_n + 1) k - 2 mu] / (k (k+1)) * c_k,

    started from c_0 = 0, c_1 = 1; it terminates exactly with c_{n+1} = 0.
    """
    if n < 1:
        raise ValueError("principal quantum number must be >= 1")
    c: list[LaurentPoly] = [LaurentPoly.zero(), LaurentPoly.constant(1)]
    for k in range(1, n + 1):
        # k(k-1) + (2 b_n + 1) k - 2 mu  ==  (k^2 - k n) + mu (2 k / n - 2)
        factor = LaurentPoly(
            {0: Fraction(k * (k - 1) + k * (1 - n)), 1: Fraction(2 * k, n) - 2}
        )
        c.append(factor * c[k] * Fraction(1, k * (k + 1)))
    return ClosedFormL0(n=n, c=tuple(c))


def evaluate_truncated(series: EnergySeries, lam: float, K: int) -> float:
    """Horner evaluation of the series truncated at order K."""
    if K > series.K:
        raise OrderExceeded(f"K={K} beyond series order {series.K}")
    return horner(series.coeffs[: K + 1], lam)
