"""Pade resummation of truncated coupling series.

For exact series (energies, critical couplings) the linear system for the
denominator is solved in exact rational arithmetic (high-order Hankel systems
are catastrophically ill-conditioned in floating point); only the final
evaluation and root refinement are floating point.  Series that are only known
as floats (a wavefunction's coupling series at one x) get a low-order float
Pade by one LU solve, with the same fallback and pole rules.
Critical screening strengths are located as the zero crossing of the resummed
level and reported as the mean of two approximants with the half-difference
as the uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    "float_pade",
    "float_pade_eval",
    "CriticalResult",
    "critical_lambda",
    "pade_pair_value",
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

    @cached_property
    def float_coefficients(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Numerator and denominator coefficients as floats, converted once."""
        return tuple(map(float, self.numerator)), tuple(map(float, self.denominator))

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


def _check_orders(series: Sequence, m: int, n: int) -> None:
    if m < 0 or n < 0:
        raise ValueError("orders must be non-negative")
    if len(series) < m + n + 1:
        raise ValueError(f"[{m}/{n}] needs {m + n + 1} coefficients, got {len(series)}")


def pade(series: Sequence[Fraction], m: int, n: int) -> PadeApproximant:
    """Exact [m/n] approximant of a truncated series.

    Needs at least m + n + 1 coefficients.  Raises SingularPadeSystem when the
    Hankel system for the denominator has no unique solution (callers may
    retry with a smaller n).
    """
    _check_orders(series, m, n)
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


def _ratio(numerator: Sequence[float], denominator: Sequence[float], lam: float) -> float:
    """Horner value of numerator / denominator at lam; raises PoleProximity
    near a denominator zero."""
    num = horner(numerator, lam)
    den = horner(denominator, lam)
    if abs(den) < 1e-12 * max(1.0, abs(num)):
        raise PoleProximity(f"denominator {den:.3e} too small at lam={lam}")
    return num / den


def pade_eval(P: PadeApproximant, lam: float) -> float:
    """Floating Horner evaluation; raises PoleProximity near a denominator zero."""
    return _ratio(*P.float_coefficients, lam)


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


def float_pade(series: Sequence[float], m: int, n: int) -> tuple[list[float], list[float]]:
    """Float [m/n] approximant of a series known only as floats: the numerator
    and denominator coefficients, denominator constant term 1.

    The denominator comes from one LU solve of the n x n Pade system (no rank
    truncation), the numerator from the convolution of the denominator with
    the series.  As in `pade_with_fallback`, a singular system or a non-finite
    solution steps n down, ending at [m/0], the truncated series itself.
    """
    _check_orders(series, m, n)
    c = np.asarray(series[: m + n + 1], dtype=float)
    for nn in range(n, 0, -1):
        # row i, column j: c[m + i - j] for i, j = 1..nn (zero below index 0)
        A = np.array([[c[m + i - j] if m + i >= j else 0.0 for j in range(1, nn + 1)]
                      for i in range(1, nn + 1)])
        try:
            q = np.linalg.solve(A, -c[m + 1 : m + nn + 1])
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(q)):
            q = np.concatenate(([1.0], q))
            return np.convolve(q, c[: m + 1])[: m + 1].tolist(), q.tolist()
    return c[: m + 1].tolist(), [1.0]


def float_pade_eval(series: Sequence[float], m: int, n: int, lam: float) -> float:
    """Value at lam of `float_pade(series, m, n)`; raises PoleProximity near a
    denominator zero, by the rule of `pade_eval`."""
    return _ratio(*float_pade(series, m, n), lam)


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
    coeffs = P.float_coefficients[1]
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


def pade_pair_value(
    first: PadeApproximant, second: PadeApproximant, lam: float
) -> tuple[float, float]:
    """Resummed value at one coupling: the first approximant's value, with the
    absolute difference from the second as the uncertainty."""
    value = pade_eval(first, lam)
    return value, abs(value - pade_eval(second, lam))


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
    return pade_pair_value(first, second, lam)
