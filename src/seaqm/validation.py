"""Cross-validation suites behind ``seaqm validate``: exact coefficients
against the closed forms of `reference`, resummed energies against the
Lagrange-mesh eigensolver of `oracle`, and critical couplings against the
table.  Each suite is a dict ``{"suite", "checks", "failures"}``; a failure
keeps the check's name, the value got and the value expected.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Sequence

from .oracle import anharmonic_numeric, default_anharmonic_mesh, default_hulthen_mesh, hulthen_numeric
from .reference import (
    ANHARMONIC_COEFFICIENT_ORDERS,
    BENDER_WU,
    CRITICAL_SCREENING,
    HULTHEN_COEFFICIENT_ORDERS,
    anharmonic_energy_coefficient,
    critical_tolerance,
    critical_value,
    hulthen_energy_coefficient,
)
from .resummation import critical_lambda, default_pade_pair, reconstruct_energy
from .spectra import anharmonic_energy_series, evaluate_truncated, hulthen_energy_series

__all__ = ["ValidationRecord", "coefficient_suite", "oracle_suite", "table1_suite"]


@dataclass(frozen=True)
class ValidationRecord:
    """One cross-validation row: series and resummed values against the oracle."""

    problem: str
    lam: float
    level: int
    series_value: float
    pade_value: float
    oracle_value: float
    abs_diff: float
    rel_diff: float
    grid: Sequence[float]

    def to_json(self) -> dict:
        out = asdict(self)
        out["lambda"] = out.pop("lam")
        out["grid"] = list(out["grid"])
        return out


def _suite(name: str, results: Iterable[tuple[str, object, object, bool]]) -> dict:
    """One suite from (check, got, expected, passed) tuples."""
    results = list(results)
    failures = [{"check": c, "got": got, "expected": exp} for c, got, exp, passed in results if not passed]
    return {"suite": name, "checks": len(results), "failures": failures}


def _coefficient_checks():
    for n, l in [(1, 0), (2, 0), (2, 1), (3, 1), (4, 2), (5, 4)]:
        series = hulthen_energy_series(n, l, 10)
        n2, L2 = Fraction(n * n), Fraction(l * (l + 1))
        for k in HULTHEN_COEFFICIENT_ORDERS:
            got, expected = series.coeffs[k], hulthen_energy_coefficient(k, n2, L2)
            yield f"hulthen eps_{k}(n={n},l={l})", str(got), str(expected), got == expected
    for r in range(5):
        series = anharmonic_energy_series(r, 10)
        for k in ANHARMONIC_COEFFICIENT_ORDERS:
            got, expected = series.coeffs[k], anharmonic_energy_coefficient(k, r)
            yield f"anharmonic eps_{{{r},{k}}}", str(got), str(expected), got == expected
    ground = anharmonic_energy_series(0, 3)
    for k, a_k in BENDER_WU.items():
        got = ground.coeffs[k]
        yield f"bridge A_{k}", str(got), str(a_k), Fraction(2) ** (k - 1) * got == a_k
    for n in range(1, 7):
        series = hulthen_energy_series(n, 0, 12)
        passed = all(series.coeffs[k] == 0 for k in range(3, 13))
        yield f"l=0 truncation n={n}", "nonzero tail", "0", passed


def coefficient_suite() -> dict:
    """Exact energy coefficients against the closed forms of `reference`."""
    return _suite("coefficients", _coefficient_checks())


def oracle_suite() -> tuple[dict, list[ValidationRecord]]:
    """Resummed energies against the Lagrange-mesh eigensolver."""
    # each case: problem, level, lam, series (resummed by its default Pade pair),
    # plain truncation order, mesh, oracle eigensolver (count, mesh), pass rule
    cases = [
        (f"hulthen n={n} l={l}", n - l - 1, lam, hulthen_energy_series(n, l, 30), 14,
         default_hulthen_mesh(n, lam, critical_value(n, l)), partial(hulthen_numeric, l, lam),
         lambda rec, unc: rec.rel_diff <= 1e-5)
        for (n, l, lam) in [(2, 1, 0.1), (3, 2, 0.1)]
    ] + [
        (f"anharmonic r={r}", r, lam, anharmonic_energy_series(r, 41), 5,
         default_anharmonic_mesh(), partial(anharmonic_numeric, lam),
         lambda rec, unc: rec.abs_diff <= max(unc, 1e-6))
        for (r, lam) in [(0, 1.0), (1, 1.0)]
    ]
    records, results = [], []
    for problem, level, lam, series, K, mesh, eigensolver, passes in cases:
        ((value, unc),) = reconstruct_energy(series.coeffs, [lam], default_pade_pair(series.K))
        oracle = eigensolver(level + 1, mesh)[level]
        rec = ValidationRecord(
            problem=problem,
            lam=lam,
            level=level,
            series_value=evaluate_truncated(series, lam, K),
            pade_value=value,
            oracle_value=oracle,
            abs_diff=abs(value - oracle),
            rel_diff=abs(value - oracle) / abs(oracle),
            grid=(0.0 if mesh.radial else -mesh.x_max, mesh.x_max, mesh.size),
        )
        records.append(rec)
        results.append((problem, value, oracle, passes(rec, unc)))
    return _suite("oracle", results), records


def table1_suite(nmax: int) -> dict:
    """Critical couplings of every level n <= nmax against the table."""
    top = max(n for n, _ in CRITICAL_SCREENING)
    if not 1 <= nmax <= top:
        raise ValueError(f"the table1 suite needs 1 <= nmax <= {top}, the tabulated n range; got {nmax}")
    # one l-ladder at a time, n ascending, so each rung is solved once (the
    # chain cache holds one ladder); the report lists the cells n outer
    got = {(n, l): critical_lambda(n, l).lambda_c for l in range(nmax) for n in range(l + 1, nmax + 1)}
    results = []
    for n, l in sorted(got):
        expected = critical_value(n, l)
        passed = abs(got[n, l] - expected) <= critical_tolerance(n, l)
        results.append((f"lambda_c({n},{l})", got[n, l], expected, passed))
    return _suite("table1", results)
