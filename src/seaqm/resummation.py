"""Pade resummation of truncated coupling series.

The linear system for the denominator is solved in exact rational arithmetic
(high-order Hankel systems are catastrophically ill-conditioned in floating
point); only the final evaluation and root refinement are floating point.
Critical screening strengths are located as the zero crossing of the resummed
level and reported as the mean of two approximants with the half-difference
as the uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import NoSignChange, PoleProximity, SingularPadeSystem
from .exact import horner
from .spectra import EnergySeries, hulthen_energy_series

__all__ = [
    "PadeApproximant",
    "pade",
    "pade_eval",
    "reexpand",
    "pade_with_fallback",
    "CriticalResult",
    "critical_lambda",
    "reconstruct_energy",
]


@dataclass(frozen=True)
class PadeApproximant:
    """Rational approximant [m/n] with exact coefficients.

    The denominator's constant term is normalized to 1 and the Taylor
    re-expansion matches the source series through order m + n.
    """

    m: int
    n: int
    numerator: tuple[Fraction, ...]
    denominator: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.numerator) != self.m + 1 or len(self.denominator) != self.n + 1:
            raise ValueError("coefficient lengths must be m+1 and n+1")
        if self.denominator[0] != 1:
            raise ValueError("denominator constant term must be 1")

    def to_json(self) -> dict:
        from .exact import rational_to_str

        return {
            "m": self.m,
            "n": self.n,
            "numerator": [rational_to_str(c) for c in self.numerator],
            "denominator": [rational_to_str(c) for c in self.denominator],
        }


def _solve_linear_exact(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination over the rationals; None if the matrix is singular."""
    size = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(size):
        piv = next((r for r in range(col, size) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        pivot = M[col][col]
        for r in range(col + 1, size):
            f = M[r][col] / pivot
            if f:
                M[r] = [M[r][j] - f * M[col][j] for j in range(size + 1)]
    x = [Fraction(0)] * size
    for r in range(size - 1, -1, -1):
        s = M[r][size]
        for j in range(r + 1, size):
            s -= M[r][j] * x[j]
        x[r] = s / M[r][r]
    return x


def pade(series: Sequence[Fraction], m: int, n: int) -> PadeApproximant:
    """Exact [m/n] approximant of a truncated series.

    Needs at least m + n + 1 coefficients.  Raises SingularPadeSystem when the
    Hankel system for the denominator has no unique solution (callers may
    retry with a smaller n).
    """
    if m < 0 or n < 0:
        raise ValueError("orders must be non-negative")
    if len(series) < m + n + 1:
        raise ValueError(f"[{m}/{n}] needs {m + n + 1} coefficients, got {len(series)}")
    coeffs = [Fraction(c) for c in series]

    def c(i: int) -> Fraction:
        return coeffs[i] if 0 <= i < len(coeffs) else Fraction(0)

    if n == 0:
        q = [Fraction(1)]
    else:
        A = [[c(m + i - j) for j in range(1, n + 1)] for i in range(1, n + 1)]
        rhs = [-c(m + i) for i in range(1, n + 1)]
        sol = _solve_linear_exact(A, rhs)
        if sol is None:
            raise SingularPadeSystem(f"[{m}/{n}] denominator system is singular")
        q = [Fraction(1)] + sol
    p = [
        sum((q[j] * c(i - j) for j in range(0, min(i, n) + 1)), Fraction(0))
        for i in range(m + 1)
    ]
    approx = PadeApproximant(m, n, tuple(p), tuple(q))
    if reexpand(approx, m + n) != coeffs[: m + n + 1]:
        raise SingularPadeSystem(f"[{m}/{n}] re-expansion check failed")
    return approx


def reexpand(P: PadeApproximant, order: int) -> list[Fraction]:
    """Exact Taylor coefficients of the approximant through `order`."""
    out: list[Fraction] = []
    for k in range(order + 1):
        p_k = P.numerator[k] if k <= P.m else Fraction(0)
        s = p_k
        for j in range(1, min(k, P.n) + 1):
            s -= P.denominator[j] * out[k - j]
        out.append(s)  # denominator constant term is 1
    return out


def pade_eval(P: PadeApproximant, lam: float) -> float:
    """Floating Horner evaluation; raises PoleProximity near a denominator zero."""
    num = horner(P.numerator, lam)
    den = horner(P.denominator, lam)
    if abs(den) < 1e-12 * max(1.0, abs(num)):
        raise PoleProximity(f"denominator {den:.3e} too small at lam={lam}")
    return num / den


def pade_with_fallback(series: Sequence[Fraction], m: int, n: int) -> PadeApproximant:
    """Build [m/n], stepping n down on singular Hankel systems.

    Degenerate inputs (polynomial series, repeated blocks) land on the largest
    solvable denominator order, ultimately [m/0] which is the polynomial
    itself.
    """
    for nn in range(n, -1, -1):
        try:
            return pade(series, m, nn)
        except SingularPadeSystem:
            continue
    raise SingularPadeSystem(f"no solvable approximant at or below [{m}/{n}]")


@dataclass(frozen=True)
class CriticalResult:
    """A located critical coupling with the approximant-pair uncertainty."""

    n: int
    l: int
    lambda_c: float
    uncertainty: float
    pade_used: str
    notes: tuple[str, ...] = ()
    approximants: tuple[PadeApproximant, ...] = ()

    def __iter__(self):
        return iter((self.lambda_c, self.uncertainty))


def _real_denominator_roots(P: PadeApproximant, hi: float) -> list[float]:
    coeffs = [float(c) for c in P.denominator]
    if len(coeffs) < 2:
        return []
    roots = np.roots(coeffs[::-1])
    return [
        float(z.real)
        for z in roots
        if abs(z.imag) < 1e-9 * max(1.0, abs(z.real)) and 0.0 < z.real <= hi
    ]


def spurious_pole_near_root(P: PadeApproximant, root: float, window: float = 1e-3) -> float | None:
    """First real denominator zero inside (0, root] within `window` of the root.

    Such a zero marks a defect (pole-zero) pair sitting on the physical
    interval; callers retry with the denominator order reduced by one.
    Denominator zeros *above* the root are expected (the resummed level is
    singular beyond the critical coupling) and are not flagged.
    """
    for pole in _real_denominator_roots(P, root):
        if root - pole < window:
            return pole
    return None


def _first_crossing(values: list[float | None], grid: list[float]) -> tuple[float, float]:
    prev = None
    for x, v in zip(grid, values):
        if v is None:
            prev = None
            continue
        if prev is not None:
            x0, v0 = prev
            if (v0 < 0.0) and (v >= 0.0):
                return x0, x
        prev = (x, v)
    raise NoSignChange("no sign change of the resummed level on the scan grid")


def _bisect_root(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def _track_root(
    series: Sequence[Fraction], m: int, n: int, scan_hi: float = 2.0, grid_points: int = 1000
) -> tuple[float, PadeApproximant, list[str]]:
    """Root of one approximant on (0, scan_hi], applying the spurious-pole policy:
    a denominator zero within 1e-3 of the tracked root triggers a retry at n-1."""
    notes: list[str] = []
    nn = n
    while True:
        P = pade_with_fallback(series, m, nn)
        grid = [scan_hi * (i + 1) / grid_points for i in range(grid_points)]
        vals: list[float | None] = []
        for x in grid:
            try:
                vals.append(pade_eval(P, x))
            except PoleProximity:
                vals.append(None)
        lo, hi = _first_crossing(vals, grid)
        root = _bisect_root(lambda x: pade_eval(P, x), lo, hi)
        pole = spurious_pole_near_root(P, root)
        if pole is not None and P.n > 0:
            notes.append(
                f"[{P.m}/{P.n}] denominator zero at {pole:.6g} near root; reduced n"
            )
            nn = P.n - 1
            continue
        return root, P, notes


def critical_lambda(
    n: int,
    l: int,
    series_order: int = 30,
    pade_pair: tuple[tuple[int, int], tuple[int, int]] = ((15, 14), (14, 14)),
) -> CriticalResult:
    """Critical screening strength of level (n, l): the coupling at which the
    resummed energy crosses zero.

    Returns the mean of the two approximants' roots with half their difference
    as the uncertainty.  Levels whose series terminates at the quadratic (the
    l = 0 closed form) are solved exactly from the quadratic instead.
    """
    for (mm, nn) in pade_pair:
        if series_order < mm + nn:
            raise ValueError(f"series order {series_order} below [{mm}/{nn}] requirement")
    series = hulthen_energy_series(n, l, series_order).coeffs
    if all(c == 0 for c in series[3:]) and series[2] != 0:
        # closed quadratic: c0 + c1 x + c2 x^2 with discriminant 0 at these levels
        c0, c1, c2 = series[0], series[1], series[2]
        disc = c1 * c1 - 4 * c0 * c2
        if disc == 0:
            root = -c1 / (2 * c2)
            return CriticalResult(
                n, l, float(root), 0.0, "closed-form quadratic", ("series terminates at k=2",)
            )
    roots = []
    approximants = []
    notes: list[str] = []
    for (mm, nn) in pade_pair:
        root, P, ns = _track_root(series, mm, nn)
        roots.append(root)
        approximants.append(P)
        notes.extend(ns)
    lam_c = 0.5 * (roots[0] + roots[1])
    unc = 0.5 * abs(roots[0] - roots[1])
    used = " ".join(f"[{P.m}/{P.n}]" for P in approximants)
    return CriticalResult(n, l, lam_c, unc, used, tuple(notes), tuple(approximants))


def reconstruct_energy(
    series: "EnergySeries | Sequence[Fraction]",
    lam: float,
    m: int,
    n: int,
    alt: tuple[int, int],
) -> tuple[float, float]:
    """Resummed value at one coupling: the [m/n] value, with the absolute
    difference from the alternate approximant as the uncertainty."""
    coeffs = series.coeffs if isinstance(series, EnergySeries) else tuple(series)
    first = pade_with_fallback(coeffs, m, n)
    second = pade_with_fallback(coeffs, alt[0], alt[1])
    v1 = pade_eval(first, lam)
    v2 = pade_eval(second, lam)
    return v1, abs(v1 - v2)
