"""Command-line frontend.

Subcommands
-----------
- ``coeffs``: exact energy-series coefficients for one level.
- ``energy``: energy curves over a coupling range (truncations + resummation).
- ``critical``: the table of critical screening strengths.
- ``wavefunction``: normalized probability-density samples.
- ``validate``: runs the suites of `seaqm.validation` and writes a JSON report.

The frontend only parses and emits: the library computes, and the problem
families check the ranges of the level labels.  Every output embeds a metadata
header (command, parameters, package version, series order).  The CSV and JSON
variants of a run carry the same numeric content.  ``SEA_THREADS`` bounds the
worker pool used for the critical table; exit codes are 2 for parameter
validation problems and for a path on the command line that cannot be read or
written, 3 for computation failures, and 1 for a validation mismatch in
``validate``.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .engine import Anharmonic, Hulthen, ProblemFamily, solve_chain
from .errors import DomainError, SeaError
from .exact import rational_to_str
from .reference import CRITICAL_SCREENING, critical_value
from .resummation import _check_orders, critical_lambda, default_pade_pair, reconstruct_energy
from .spectra import EnergySeries, anharmonic_energy_series, evaluate_truncated, hulthen_energy_series
from .states import build_eigenstate, evaluate_state_grid, normalize
from .validation import coefficient_suite, oracle_suite, table1_suite

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_COMPUTE = 3


def _worker_count() -> int:
    env = os.environ.get("SEA_THREADS")
    if not env:
        return min(os.cpu_count() or 1, 8)
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"SEA_THREADS must be a positive integer, got {env!r}")
    return workers


def _grid(a: float, b: float, steps: int) -> list[float]:
    if steps == 1:
        return [a]
    return [a + (b - a) * i / (steps - 1) for i in range(steps)]


def _finite_float(text: str) -> float:
    """A float option value or range end; nan and inf are rejected."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_range(text: str) -> list[float]:
    try:
        a, b, steps = text.split(":")
        steps = int(steps)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected a:b:steps") from exc
    if steps < 1:
        raise argparse.ArgumentTypeError("steps must be >= 1")
    return _grid(_finite_float(a), _finite_float(b), steps)


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


def _problem(args: argparse.Namespace) -> tuple[ProblemFamily, int]:
    """The problem family named on the command line and the ladder depth of
    the requested level."""
    family = Hulthen(args.l) if args.family == "hulthen" else Anharmonic()
    return family, family.rung_of(args.n, args.l, args.r)


def _energy_series(args: argparse.Namespace, K: int) -> EnergySeries:
    """The exact energy series through order K of the level on the command line."""
    if args.family == "hulthen":
        return hulthen_energy_series(args.n, args.l, K)
    return anharmonic_energy_series(args.r, K)


def _tabulated_lambda_c(args: argparse.Namespace) -> float | None:
    """The tabulated critical coupling of the command line's Hulthen level, if any."""
    return critical_value(args.n, args.l) if (args.n, args.l) in CRITICAL_SCREENING else None


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
    _write(args.out, text)


def _write(path: str | Path | None, text: str) -> None:
    """Write `text` to the file `path`, or to stdout when no path is given."""
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------- coeffs ----


def cmd_coeffs(args: argparse.Namespace) -> int:
    series = _energy_series(args, args.K)
    rows = [[k, decimal, rational_to_str(series.coeffs[k])] for k, decimal in series.to_csv_rows()]
    meta = _metadata(args, series=series.to_json())
    _emit(args, meta, ["k", "coefficient", "exact"], rows)
    if args.with_superpotential:
        family, rung = _problem(args)
        chain = solve_chain(family, rung, args.K)
        doc = json.dumps({"metadata": _metadata(args), "chain": chain.to_json()}, indent=2)
        side = Path(args.out).with_suffix(".superpotential.json") if args.out else None
        _write(side, doc + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- energy ----


def cmd_energy(args: argparse.Namespace) -> int:
    K_list = sorted(set(args.K_list or [args.K]))
    K_max = max(max(K_list), args.K)
    pair = args.pade or default_pade_pair(K_max)
    K_max = max(K_max, pair[0][0] + pair[0][1], pair[1][0] + pair[1][1])
    series = _energy_series(args, K_max)
    bound_hint = _tabulated_lambda_c(args)
    lams = args.lambda_range or [args.lam]
    if bound_hint is not None and any(l > bound_hint for l in lams):
        print(f"warning: range extends beyond the critical coupling {bound_hint:.6g}", file=sys.stderr)
    header = ["lambda"] + [f"K{k}" for k in K_list] + ["pade", "uncertainty"]
    rows = [
        [lam] + [evaluate_truncated(series, lam, k) for k in K_list] + list(resummed)
        for lam, resummed in zip(lams, reconstruct_energy(series.coeffs, lams, pair))
    ]
    meta = _metadata(args, K_list=K_list, pade_pair=[list(pair[0]), list(pair[1])], order=K_max)
    _emit(args, meta, header, rows)
    return EXIT_OK


# -------------------------------------------------------------- critical ----


def _critical_group(task: tuple[int, list[int], int, tuple, bool]) -> list[dict]:
    """All (n, l) cells sharing one l: the chain is shared inside the group."""
    l, ns, order, pair, embed = task
    out = []
    for n in ns:
        try:
            res = critical_lambda(n, l, order, pair)
        except SeaError as exc:
            pade = " ".join(f"[{a}/{b}]" for a, b in pair)
            raise type(exc)(f"lambda_c({n},{l}) with {pade}: {exc}") from exc
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


def _resumed_cells(path: Path, run: dict) -> dict[str, dict]:
    """The finished cells of the progress file `path`, written by a run with
    the parameters `run`; a ValueError (exit 2) naming the file otherwise."""
    try:
        progress = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"progress file {path} is not JSON: {exc}") from exc
    if not (isinstance(progress, dict) and isinstance(progress.get("parameters"), dict)):
        raise ValueError(f"progress file {path} holds no run parameters")
    for key, value in run.items():
        if progress["parameters"].get(key) != value:
            flag, was = "--" + key.replace("_", "-"), json.dumps(progress["parameters"].get(key))
            raise ValueError(f"progress file {path} was written with {flag} {was}, "
                             f"this run has {flag} {json.dumps(value)}")
    cells = progress.get("cells", {})
    fields = {"lambda_c", "uncertainty", "pade_used"}
    if not (isinstance(cells, dict)
            and all(isinstance(rec, dict) and fields <= rec.keys() for rec in cells.values())):
        raise ValueError(f"progress file {path} holds malformed cells: expected an object "
                         f"mapping \"n,l\" to records with {', '.join(sorted(fields))}")
    return cells


def cmd_critical(args: argparse.Namespace) -> int:
    if args.nmax < 1:
        raise ValueError(f"need --nmax >= 1, got {args.nmax}")
    pair = args.pade or default_pade_pair(args.K)
    order = args.K
    embed = args.embed_approximants and args.format == "json"
    # the run parameters every cell depends on, kept in the progress file so
    # that a rerun with other parameters cannot mix tables
    run = {"K": order, "pade": ",".join(f"{m}/{n}" for m, n in pair), "embed_approximants": embed}
    resume_path = Path(args.resume) if args.resume else None
    done = _resumed_cells(resume_path, run) if resume_path and resume_path.exists() else {}
    cells = [(n, l) for n in range(1, args.nmax + 1) for l in range(n)]
    keys = [f"{n},{l}" for n, l in cells]
    pending_by_l: dict[int, list[int]] = {}
    for n, l in cells:
        if f"{n},{l}" not in done:
            pending_by_l.setdefault(l, []).append(n)
    tasks = [(l, ns, order, pair, embed) for l, ns in sorted(pending_by_l.items())]
    workers = min(_worker_count(), len(tasks)) if tasks else 1

    def record(group: list[dict]) -> None:
        # progress is saved after every finished l-group, so an interrupted
        # run resumes from the last one; the cells are written in table order
        # (then any other cells the file held), whatever order groups finish in
        for rec in group:
            done[f"{rec['n']},{rec['l']}"] = rec
        if resume_path:
            saved = {key: done[key] for key in keys if key in done} | done
            _replace_file(resume_path, json.dumps({"parameters": run, "cells": saved}, indent=2))

    if workers > 1:
        # only a parallel table needs multiprocessing, so a cold start skips it
        from concurrent.futures import ProcessPoolExecutor, as_completed
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
    if args.pade_single:  # the state's coupling series has K + 1 coefficients
        _check_orders(args.K + 1, *args.pade_single)
    if family.radial and min(args.x_range or [0.0]) < 0:
        raise ValueError(f"--x-range must lie in x >= 0 for a radial state, got {min(args.x_range):g}")
    lam_c = _tabulated_lambda_c(args) if family.radial else None
    if lam_c is not None and args.lam >= lam_c:
        raise ValueError(f"lam={args.lam} at or beyond critical {lam_c:.6g}")
    state = build_eigenstate(family, args.K, n=args.n, l=args.l, r=args.r)
    if family.radial:
        xs = args.x_range or _grid(0.0, max(40.0, 10.0 * args.n**2), 400)
    else:
        xs = args.x_range or _grid(-8.0, 8.0, 401)
    lam, pade = args.lam, args.pade_single
    norm = normalize(state, lam, pade=pade)
    values = evaluate_state_grid(state, xs, lam, pade=pade)
    rows = []
    for x in xs:
        try:
            v = next(values)
        except OverflowError:
            raise DomainError(
                f"psi or its square is no longer finite at x = {x:.6g} as evaluated: a "
                "power of x or exp(-D) leaves double range at that x; end the x range earlier"
            ) from None
        rows.append(_wavefunction_row(x, v, norm))
    labels = {
        "family": state.family.name,
        "n": state.n,
        "l": state.l,
        "r": state.r,
        "lambda": lam,
        "K": state.order,
        "pade": f"{pade[0]}/{pade[1]}" if pade else None,
        "norm": norm,
    }
    meta = _metadata(args, **labels)
    header = ["x", "psi", "psi_squared", "psi_normalized", "psi_squared_normalized"]
    _emit(args, meta, header, rows)
    return EXIT_OK


# -------------------------------------------------------------- validate ----


def cmd_validate(args: argparse.Namespace) -> int:
    if args.nmax is not None and args.suite != "table1":
        raise ValueError(f"--nmax sizes the table1 suite only; --suite {args.suite} does not take it")
    suites, records = [], []
    if args.suite in ("all", "coefficients"):
        suites.append(coefficient_suite())
    if args.suite in ("all", "oracle"):
        suite, records = oracle_suite()
        suites.append(suite)
    if args.suite == "table1":
        args.nmax = 3 if args.nmax is None else args.nmax  # the default, recorded in the metadata
        suites.append(table1_suite(args.nmax))
    total_failures = sum(len(s["failures"]) for s in suites)
    payload = {
        "metadata": _metadata(args),
        "suites": suites,
        "records": [r.to_json() for r in records],
        "status": "pass" if total_failures == 0 else "fail",
    }
    _write(args.out, json.dumps(payload, indent=2) + "\n")
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
    lam = p.add_mutually_exclusive_group()
    lam.add_argument("--lambda", dest="lam", type=_finite_float, default=0.0)
    lam.add_argument("--lambda-range", dest="lambda_range", type=_parse_range)
    p.add_argument("--pade", type=_parse_pade_pair, help="m/n or m1/n1,m2/n2")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("critical", help="critical screening table")
    add_common(p, family=False)
    p.add_argument("--nmax", type=int, default=9)
    p.add_argument("--K", type=int, default=30)
    p.add_argument("--pade", type=_parse_pade_pair, help="default from --K: 15/14,14/14 at K = 30")
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
    p.add_argument("--lambda", dest="lam", type=_finite_float, required=True)
    p.add_argument(
        "--pade",
        dest="pade_single",
        type=_parse_pade_order,
        help="pointwise-in-lambda float resummation order m/n",
    )
    p.add_argument("--x-range", dest="x_range", type=_parse_range, help="a:b:steps sample grid")
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("validate", help="run the cross-validation suites")
    p.add_argument("--out", help="JSON report path (stdout when omitted)")
    p.add_argument("--suite", choices=["all", "coefficients", "oracle", "table1"], default="all")
    p.add_argument("--nmax", type=int, help="table1 suite size (default 3; table1 only)")
    p.set_defaults(func=cmd_validate)
    return parser


def _validate_labels(args: argparse.Namespace) -> str | None:
    """Presence checks only; the problem families check the labels' ranges."""
    family = getattr(args, "family", None)
    if family == "hulthen" and (args.n is None or args.l is None):
        return "hulthen commands need --n and --l"
    if family == "anharmonic" and args.r is None:
        return "anharmonic commands need --r"
    if getattr(args, "K", None) is not None and args.K < 0:
        return "need K >= 0"
    if any(k < 0 for k in getattr(args, "K_list", None) or ()):
        return f"need every --K-list order >= 0, got {args.K_list}"
    return None


def _path_problem(args: argparse.Namespace) -> str | None:
    """An --out or --resume path that cannot be written, found before any work
    starts: its folder is missing or not writable, or the path is a folder."""
    for text in filter(None, (getattr(args, "out", None), getattr(args, "resume", None))):
        path = Path(text)
        code = (errno.ENOENT if not path.parent.is_dir()
                else errno.EISDIR if path.is_dir()
                else errno.EACCES if not os.access(path.parent, os.W_OK)
                else 0)
        if code:
            return f"cannot use {text}: {os.strerror(code)}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _validate_labels(args) or _path_problem(args)
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
    except OSError as exc:
        if exc.filename is None:  # not a path of this run
            raise
        print(f"error: cannot use {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
