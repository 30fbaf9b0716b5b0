"""Command-line frontend.

Subcommands
-----------
- ``coeffs``: exact energy-series coefficients for one level.
- ``energy``: energy curves over a coupling range (truncations + resummation).
- ``critical``: the table of critical screening strengths.
- ``wavefunction``: normalized probability-density samples.
- ``validate``: cross-checks against reference data and the numerical oracle.

Every output embeds a metadata header (command, parameters, package version,
series order).  The CSV and JSON variants of a run carry the same numeric
content.  ``SEA_THREADS`` bounds the worker pool used for the critical table;
exit codes are 2 for parameter validation problems, 3 for computation
failures, and 1 for a validation mismatch in ``validate``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import __version__
from .engine import Anharmonic, Hulthen, ProblemFamily, solve_chain
from .errors import DomainError, SeaError
from .exact import rational_to_str
from .oracle import (
    ValidationRecord,
    anharmonic_numeric,
    default_anharmonic_grid,
    default_hulthen_grid,
    hulthen_numeric,
)
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
from .resummation import (
    critical_lambda,
    float_pade_eval,
    pade_pair_value,
    pade_with_fallback,
    reconstruct_energy,
)
from .spectra import (
    anharmonic_energy_series,
    evaluate_truncated,
    hulthen_energy_series,
)
from .states import (
    build_eigenstate,
    evaluate_state_grid,
    normalize,
    normalize_function,
    state_lambda_series,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_COMPUTE = 3


def _worker_count() -> int:
    env = os.environ.get("SEA_THREADS")
    if env:
        return max(1, int(env))
    return min(os.cpu_count() or 1, 8)


def _grid(a: float, b: float, steps: int) -> list[float]:
    if steps == 1:
        return [a]
    return [a + (b - a) * i / (steps - 1) for i in range(steps)]


def _parse_range(text: str) -> list[float]:
    try:
        a, b, steps = text.split(":")
        a, b, steps = float(a), float(b), int(steps)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected a:b:steps") from exc
    if steps < 1:
        raise argparse.ArgumentTypeError("steps must be >= 1")
    return _grid(a, b, steps)


def _parse_pade_order(text: str) -> tuple[int, int]:
    """One Pade order "m/n" with non-negative integers m and n."""
    parts = text.split("/")
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise argparse.ArgumentTypeError(
            f"expected m/n with non-negative integer orders m and n, got {text!r}"
        )
    return int(parts[0]), int(parts[1])


def _parse_pade_pair(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two different Pade orders "m1/n1,m2/n2"; a single "m/n" (m != n) pairs
    [m/n] with [n/n]."""
    parts = text.split(",")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"expected m/n or m1/n1,m2/n2, got {text!r}")
    pairs = [_parse_pade_order(part) for part in parts]
    if len(pairs) == 1:
        pairs.append((pairs[0][1], pairs[0][1]))
    if pairs[0] == pairs[1]:
        m, n = pairs[0]
        raise argparse.ArgumentTypeError(
            f"{text!r} pairs [{m}/{n}] with itself: the pair would be identical and "
            "its uncertainty 0; give two different orders m1/n1,m2/n2"
        )
    return pairs[0], pairs[1]


def _default_pade_pair(K: int) -> tuple[tuple[int, int], tuple[int, int]]:
    m = (K + 1) // 2
    n = m - 1
    return (m, n), (n, n)


def _problem(args: argparse.Namespace) -> tuple[ProblemFamily, int]:
    """The problem family named on the command line and the ladder depth of
    the requested level."""
    family = Hulthen(args.l) if args.family == "hulthen" else Anharmonic()
    return family, family.rung_of(args.n, args.l, args.r)


def _metadata(args: argparse.Namespace, **extra) -> dict:
    params = {k: v for k, v in vars(args).items() if k not in ("func",) and v is not None}
    params = {k: (list(v) if isinstance(v, tuple) else v) for k, v in params.items()}
    return {"command": args.command, "version": __version__, "parameters": params, **extra}


def _emit(args: argparse.Namespace, metadata: dict, header: list[str], rows: list[list], data=None):
    """Write one result table as CSV (with a # metadata prolog) or JSON."""
    if args.format == "json":
        payload = {
            "metadata": metadata,
            "data": data if data is not None else [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2, default=str) + "\n"
    else:
        lines = [f"# {k}: {json.dumps(v, default=str)}" for k, v in metadata.items()]
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------- coeffs ----


def cmd_coeffs(args: argparse.Namespace) -> int:
    if args.family == "hulthen":
        series = hulthen_energy_series(args.n, args.l, args.K)
    else:
        series = anharmonic_energy_series(args.r, args.K)
    rows = [
        [k, decimal, rational_to_str(series.coeffs[k])]
        for k, decimal in series.to_csv_rows()
    ]
    meta = _metadata(args, series=series.to_json())
    _emit(args, meta, ["k", "coefficient", "exact"], rows)
    if args.with_superpotential:
        side = Path(args.out).with_suffix(".superpotential.json") if args.out else None
        family, rung = _problem(args)
        chain = solve_chain(family, rung, args.K)
        doc = json.dumps({"metadata": _metadata(args), "chain": chain.to_json()}, indent=2)
        if side:
            side.write_text(doc + "\n")
        else:
            sys.stdout.write(doc + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- energy ----


def cmd_energy(args: argparse.Namespace) -> int:
    K_list = sorted(set(args.K_list or [args.K]))
    K_max = max(max(K_list), args.K)
    pair = args.pade or _default_pade_pair(K_max)
    K_max = max(K_max, pair[0][0] + pair[0][1], pair[1][0] + pair[1][1])
    if args.family == "hulthen":
        series = hulthen_energy_series(args.n, args.l, K_max)
        bound_hint = critical_value(args.n, args.l) if (args.n, args.l) in CRITICAL_SCREENING else None
    else:
        series = anharmonic_energy_series(args.r, K_max)
        bound_hint = None
    lams = args.lambda_range or [args.lam]
    if bound_hint is not None and any(l > bound_hint for l in lams):
        print(
            f"warning: range extends beyond the critical coupling {bound_hint:.6g}",
            file=sys.stderr,
        )
    header = ["lambda"] + [f"K{k}" for k in K_list] + ["pade", "uncertainty"]
    first, second = (pade_with_fallback(series.coeffs, m, n) for m, n in pair)
    rows = []
    for lam in lams:
        row = [lam] + [evaluate_truncated(series, lam, k) for k in K_list]
        rows.append(row + list(pade_pair_value(first, second, lam)))
    meta = _metadata(args, K_list=K_list, pade_pair=[list(pair[0]), list(pair[1])], order=K_max)
    _emit(args, meta, header, rows)
    return EXIT_OK


# -------------------------------------------------------------- critical ----


def _critical_group(task: tuple[int, list[int], int, tuple, bool]) -> list[dict]:
    """All (n, l) cells sharing one l: the chain is shared inside the group."""
    l, ns, order, pair, embed = task
    out = []
    for n in ns:
        res = critical_lambda(n, l, order, pair)
        rec = {
            "n": n,
            "l": l,
            "lambda_c": res.lambda_c,
            "uncertainty": res.uncertainty,
            "pade_used": res.pade_used,
            "notes": list(res.notes),
        }
        if embed:
            rec["approximants"] = [P.to_json() for P in res.approximants]
        out.append(rec)
    return out


def _replace_file(path: Path, text: str) -> None:
    """Write `text` to `path` through a temporary file and one atomic rename,
    so a reader never sees a half-written file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def cmd_critical(args: argparse.Namespace) -> int:
    pair = args.pade or ((15, 14), (14, 14))
    order = args.K
    embed = args.embed_approximants and args.format == "json"
    # the run parameters every cell depends on, kept in the progress file so
    # that a rerun with other parameters cannot mix tables
    run = {"K": order, "pade": ",".join(f"{m}/{n}" for m, n in pair), "embed_approximants": embed}
    done: dict[str, dict] = {}
    resume_path = Path(args.resume) if args.resume else None
    if resume_path and resume_path.exists():
        progress = json.loads(resume_path.read_text())
        if not (isinstance(progress, dict) and isinstance(progress.get("parameters"), dict)):
            print(f"error: progress file {resume_path} holds no run parameters", file=sys.stderr)
            return EXIT_USAGE
        for key, value in run.items():
            if progress["parameters"].get(key) != value:
                flag, was = "--" + key.replace("_", "-"), json.dumps(progress["parameters"].get(key))
                print(f"error: progress file {resume_path} was written with {flag} {was}, "
                      f"this run has {flag} {json.dumps(value)}", file=sys.stderr)
                return EXIT_USAGE
        done = progress.get("cells", {})
    cells = [(n, l) for n in range(1, args.nmax + 1) for l in range(n)]
    pending_by_l: dict[int, list[int]] = {}
    for n, l in cells:
        if f"{n},{l}" not in done:
            pending_by_l.setdefault(l, []).append(n)
    tasks = [(l, ns, order, pair, embed) for l, ns in sorted(pending_by_l.items())]
    workers = min(_worker_count(), len(tasks)) if tasks else 1

    def record(group: list[dict]) -> None:
        # progress is saved after every finished l-group, so an interrupted
        # run resumes from the last one
        for rec in group:
            done[f"{rec['n']},{rec['l']}"] = rec
        if resume_path:
            _replace_file(resume_path, json.dumps({"parameters": run, "cells": done}, indent=2))

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_critical_group, t) for t in tasks]
            try:
                for future in as_completed(futures):
                    record(future.result())
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    else:
        for task in tasks:
            record(_critical_group(task))
    data = [done[f"{n},{l}"] for n, l in cells]  # the JSON table keeps whole records
    rows = [[n, l, float(rec["lambda_c"]), float(rec["uncertainty"]), rec["pade_used"]]
            for (n, l), rec in zip(cells, data)]
    meta = _metadata(args, order=order, pade_pair=[list(pair[0]), list(pair[1])])
    _emit(args, meta, ["n", "l", "lambda_c", "uncertainty", "pade_used"], rows, data=data)
    return EXIT_OK


# ---------------------------------------------------------- wavefunction ----


def _wavefunction_row(x: float, v: float, norm: float) -> list[float]:
    """One output row; DomainError once psi squared or the normalized density overflows."""
    try:
        row = [x, v, v * v, norm * v, (norm * v) ** 2]
        if math.isfinite(row[2]) and math.isfinite(row[4]):
            return row
    except OverflowError:
        pass
    raise DomainError(
        f"psi or its square is no longer finite at x = {x:.6g} (psi = {v:.6g}): the truncated "
        "exponent turns around there and psi grows without bound; end the x range earlier or "
        "use a smaller lambda"
    )


def cmd_wavefunction(args: argparse.Namespace) -> int:
    family, _ = _problem(args)
    state = build_eigenstate(family, args.K, n=args.n, l=args.l, r=args.r)
    if family.radial:
        lam_c = critical_value(args.n, args.l) if (args.n, args.l) in CRITICAL_SCREENING else None
        if lam_c is not None and args.lam >= lam_c:
            print(f"error: lam={args.lam} at or beyond critical {lam_c:.6g}", file=sys.stderr)
            return EXIT_USAGE
        xs = args.x_range or _grid(0.0, max(40.0, 10.0 * args.n**2), 400)
    else:
        xs = args.x_range or _grid(-8.0, 8.0, 401)
    lam = args.lam
    if args.pade_single:

        def psi(x: float) -> float:
            return float_pade_eval(state_lambda_series(state, x), *args.pade_single, lam)

        norm = normalize_function(psi, state.radial)
        values = map(psi, xs)
    else:
        norm = normalize(state, lam)
        values = evaluate_state_grid(state, xs, lam)
    rows = [_wavefunction_row(x, v, norm) for x, v in zip(xs, values)]
    labels = {
        "family": state.family.name,
        "n": state.n,
        "l": state.l,
        "r": state.r,
        "lambda": lam,
        "K": state.order,
        "pade": f"{args.pade_single[0]}/{args.pade_single[1]}" if args.pade_single else None,
        "norm": norm,
    }
    meta = _metadata(args, **labels)
    header = ["x", "psi", "psi_squared", "psi_normalized", "psi_squared_normalized"]
    _emit(args, meta, header, rows)
    if args.out and args.format == "csv":
        sidecar = Path(args.out).with_suffix(".meta.json")
        sidecar.write_text(json.dumps(labels, indent=2) + "\n")
    return EXIT_OK


# -------------------------------------------------------------- validate ----


def _validate_coefficients(inject_error: bool) -> list[dict]:
    failures = []
    checks = 0
    for n, l in [(1, 0), (2, 0), (2, 1), (3, 1), (4, 2), (5, 4)]:
        series = hulthen_energy_series(n, l, 10)
        n2, L2 = Fraction(n * n), Fraction(l * (l + 1))
        for k in HULTHEN_COEFFICIENT_ORDERS:
            expected = hulthen_energy_coefficient(k, n2, L2)
            got = series.coeffs[k]
            if inject_error and (n, l, k) == (2, 1, 2):
                got += Fraction(1, 10**6)
            checks += 1
            if got != expected:
                failures.append(
                    {"check": f"hulthen eps_{k}(n={n},l={l})", "got": str(got), "expected": str(expected)}
                )
    for r in range(5):
        series = anharmonic_energy_series(r, 10)
        for k in ANHARMONIC_COEFFICIENT_ORDERS:
            expected = anharmonic_energy_coefficient(k, r)
            checks += 1
            if series.coeffs[k] != expected:
                failures.append(
                    {"check": f"anharmonic eps_{{{r},{k}}}", "got": str(series.coeffs[k]), "expected": str(expected)}
                )
    ground = anharmonic_energy_series(0, 3)
    for k, a_k in BENDER_WU.items():
        checks += 1
        if Fraction(2) ** (k - 1) * ground.coeffs[k] != a_k:
            failures.append({"check": f"bridge A_{k}", "got": str(ground.coeffs[k]), "expected": str(a_k)})
    for n in range(1, 7):
        series = hulthen_energy_series(n, 0, 12)
        checks += 1
        if any(series.coeffs[k] != 0 for k in range(3, 13)):
            failures.append({"check": f"l=0 truncation n={n}", "got": "nonzero tail", "expected": "0"})
    return [{"suite": "coefficients", "checks": checks, "failures": failures}]


def _validate_oracle() -> tuple[list[dict], list[ValidationRecord]]:
    # each case: problem, level, lam, series, Pade orders for reconstruct_energy,
    # plain truncation order, grid, oracle eigensolver (count, grid), pass rule
    cases = [
        (f"hulthen n={n} l={l}", n - l - 1, lam, hulthen_energy_series(n, l, 30), (15, 14, (14, 14)), 14,
         default_hulthen_grid(n, lam, critical_value(n, l)), partial(hulthen_numeric, l, lam),
         lambda rec, unc: rec.rel_diff <= 1e-5)
        for (n, l, lam) in [(2, 1, 0.1), (3, 2, 0.1)]
    ] + [
        (f"anharmonic r={r}", r, lam, anharmonic_energy_series(r, 41), (21, 20, (20, 20)), 5,
         default_anharmonic_grid(), partial(anharmonic_numeric, lam),
         lambda rec, unc: rec.abs_diff <= max(unc, 1e-6))
        for (r, lam) in [(0, 1.0), (1, 1.0)]
    ]
    records = []
    failures = []
    for problem, level, lam, series, pade_orders, K, grid, eigensolver, passes in cases:
        value, unc = reconstruct_energy(series, lam, *pade_orders)
        oracle = eigensolver(level + 1, grid)[level]
        rec = ValidationRecord(
            problem=problem,
            lam=lam,
            level=level,
            series_value=evaluate_truncated(series, lam, K),
            pade_value=value,
            oracle_value=oracle,
            abs_diff=abs(value - oracle),
            rel_diff=abs(value - oracle) / abs(oracle),
            grid=(grid.x_min, grid.x_max, grid.points),
        )
        records.append(rec)
        if not passes(rec, unc):
            failures.append({"check": problem, "got": value, "expected": oracle})
    return [{"suite": "oracle", "checks": len(records), "failures": failures}], records


def _validate_table1(nmax: int) -> list[dict]:
    failures = []
    checks = 0
    for n in range(1, nmax + 1):
        for l in range(n):
            res = critical_lambda(n, l, 30, ((15, 14), (14, 14)))
            checks += 1
            tol = critical_tolerance(n, l)
            expected = critical_value(n, l)
            if abs(res.lambda_c - expected) > tol:
                failures.append(
                    {"check": f"lambda_c({n},{l})", "got": res.lambda_c, "expected": expected}
                )
    return [{"suite": "table1", "checks": checks, "failures": failures}]


def cmd_validate(args: argparse.Namespace) -> int:
    suites = []
    records: list[ValidationRecord] = []
    wanted = args.suite
    if wanted in ("all", "coefficients"):
        suites.extend(_validate_coefficients(args.inject_error))
    if wanted in ("all", "oracle"):
        block, records = _validate_oracle()
        suites.extend(block)
    if wanted == "table1":
        suites.extend(_validate_table1(args.nmax))
    total_failures = sum(len(s["failures"]) for s in suites)
    meta = _metadata(args)
    payload = {
        "metadata": meta,
        "suites": suites,
        "records": [r.to_json() for r in records],
        "status": "pass" if total_failures == 0 else "fail",
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for s in suites:
        print(f"suite {s['suite']}: {s['checks']} checks, {len(s['failures'])} failures", file=sys.stderr)
    return EXIT_OK if total_failures == 0 else EXIT_MISMATCH


# ---------------------------------------------------------------- parser ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seaqm",
        description="Exact series solutions, resummation and validation for "
        "screened Coulomb and anharmonic spectra.",
    )
    parser.add_argument("--version", action="version", version=f"seaqm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, family: bool = True):
        if family:
            p.add_argument("family", choices=["hulthen", "anharmonic"])
            p.add_argument("--n", type=int, help="principal quantum number (hulthen)")
            p.add_argument("--l", type=int, help="angular momentum (hulthen)")
            p.add_argument("--r", type=int, help="level index (anharmonic)")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("coeffs", help="exact energy-series coefficients")
    add_common(p)
    p.add_argument("--K", type=int, default=10, help="series truncation order")
    p.add_argument(
        "--with-superpotential",
        action="store_true",
        help="also write the full chain (superpotential coefficients) as JSON",
    )
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("energy", help="energy curve over a coupling range")
    add_common(p)
    p.add_argument("--K", type=int, default=14)
    p.add_argument("--K-list", dest="K_list", type=lambda s: [int(x) for x in s.split(",")])
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--lambda-range", dest="lambda_range", type=_parse_range)
    p.add_argument("--pade", type=_parse_pade_pair, help="m/n or m1/n1,m2/n2")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("critical", help="critical screening table")
    add_common(p, family=False)
    p.add_argument("--nmax", type=int, default=9)
    p.add_argument("--K", type=int, default=30)
    p.add_argument("--pade", type=_parse_pade_pair, help="default 15/14,14/14")
    p.add_argument("--resume", help="progress file for long runs")
    p.add_argument(
        "--embed-approximants",
        action="store_true",
        help="include exact approximant coefficients in JSON output",
    )
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("wavefunction", help="normalized wavefunction samples")
    add_common(p)
    p.add_argument("--K", type=int, default=8)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument(
        "--pade",
        dest="pade_single",
        type=_parse_pade_order,
        help="pointwise-in-lambda float resummation order m/n",
    )
    p.add_argument("--x-range", dest="x_range", type=_parse_range, help="a:b:steps sample grid")
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("validate", help="run the cross-validation suites")
    add_common(p, family=False)
    p.add_argument("--suite", choices=["all", "coefficients", "oracle", "table1"], default="all")
    p.add_argument("--nmax", type=int, default=3, help="table1 suite size")
    p.add_argument(
        "--inject-error", action="store_true", help=argparse.SUPPRESS  # negative-control mode
    )
    p.set_defaults(func=cmd_validate)
    return parser


def _validate_labels(args: argparse.Namespace) -> str | None:
    if getattr(args, "family", None) == "hulthen":
        if args.n is None or args.l is None:
            return "hulthen commands need --n and --l"
        if args.n < 1 or not 0 <= args.l <= args.n - 1:
            return f"need n >= 1 and 0 <= l <= n-1, got n={args.n}, l={args.l}"
    if getattr(args, "family", None) == "anharmonic":
        if args.r is None:
            return "anharmonic commands need --r"
        if args.r < 0:
            return "need r >= 0"
    if getattr(args, "K", None) is not None and args.K < 0:
        return "need K >= 0"
    if any(k < 0 for k in getattr(args, "K_list", None) or ()):
        return f"need every --K-list order >= 0, got {args.K_list}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _validate_labels(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except SeaError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
