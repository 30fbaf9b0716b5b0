"""seaqm benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, both modes

Run from the root of a seaqm checkout; the package is imported from `src/`.
Every operation is one `seaqm` command line run in a fresh interpreter, one
child process at a time, so each starts with cold caches as a CLI user's
does.  `critical` runs serially (`SEA_THREADS=1`).

A run repeats passes over the workload's operations for about S seconds.
With `--trace 0` it reports the end-to-end metrics: medians over at least
two passes, even where that takes longer than S, and over at least six
imports, topped up with import-only children; with `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, operations, out_name

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0  # a run, set-up included, ends within this
MIN_PASSES = 2  # untraced runs: wall_s and peak_rss_mb are medians of at least two passes
MIN_SETUPS = 6  # and setup_s a median of at least six imports

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "exact.mul.calls": "count",
    "exact.mul.term_products": "count",
    "exact.mul.s": "s",
    "engine.solve_chain.s": "s",
    "engine.convolution_B.s": "s",
    "engine.solve_riccati_order.s": "s",
    "engine.riccati_residual.s": "s",
    "engine.rungs_solved": "count",
    "engine.residual_checks": "count",
    "engine.chain_cache.hit_ratio": "ratio",
    "spectra.evaluate_truncated.calls": "count",
    "spectra.evaluate_truncated.s": "s",
    "resummation.pade.calls": "count",
    "resummation.pade.s": "s",
    "resummation.pade.useful_ratio": "ratio",
    "resummation.pade_eval.calls": "count",
    "resummation.pade_eval.s": "s",
    "resummation.critical_lambda.self_s": "s",
    "resummation.pole_retries": "count",
    "resummation.critical_lambda.max_group_s": "s",
    "states.build_eigenstate.s": "s",
    "states.evaluate_state.calls": "count",
    "states.evaluate_state.s": "s",
    "states.state_lambda_series.calls": "count",
    "states.state_lambda_series.s": "s",
    "states.normalize_function.self_s": "s",
    "oracle.fd_eigenvalues_with_error.calls": "count",
    "oracle.fd_eigenvalues_with_error.s": "s",
    "oracle.grid_points": "count",
    "reference.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Runner:
    """Starts the child processes of one benchmark run, one at a time."""

    def __init__(self, work: Path, time_limit: float | None = TIME_LIMIT_S):
        self.work = work
        self.deadline = None if time_limit is None else perf_counter() + time_limit
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
            SEA_THREADS="1",
        )
        self._count = 0
        self._warned: set[str] = set()

    def child(self, mode: str, argv: list[str] = ()) -> dict:
        self._count += 1
        box = self.work / f"op{self._count}"
        cwd = box / "cwd"
        cwd.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH / "child.py"), mode, str(box / "result.json")]
        if argv:
            cmd += [*argv, "--out", out_name(argv)]
        timeout = None if self.deadline is None else max(1.0, self.deadline - perf_counter())
        with open(box / "stdout.txt", "wb") as out, open(box / "stderr.txt", "wb") as err:
            try:
                subprocess.run(cmd, cwd=cwd, env=self.env, stdout=out, stderr=err, timeout=timeout)
            except subprocess.TimeoutExpired:  # run() has killed and reaped the child
                pass
        try:
            result = json.loads((box / "result.json").read_text())
        except (OSError, ValueError):
            tail = (box / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            result = {"setup_s": None, "wall_s": 0.0, "rc": None, "peak_rss_mb": 0.0,
                      "output_bytes": 0, "problems": [f"child died: {' '.join(tail)}"]}
        shutil.rmtree(box)
        for warning in set(result.get("warnings", ())) - self._warned:
            self._warned.add(warning)
            print(warning, file=sys.stderr)
        return result


def _failed(result: dict) -> bool:
    return result["rc"] != 0 or bool(result["problems"])


def run_pass(runner: Runner, ops: list[list[str]], mode: str) -> dict:
    """Every operation once, each in its own interpreter."""
    results = [runner.child(mode, argv) for argv in ops]
    for argv, r in zip(ops, results):
        if _failed(r):
            print(f"  failed: seaqm {' '.join(argv)}: {'; '.join(map(str, r['problems']))}",
                  file=sys.stderr)
    return {
        "wall_s": sum(r["wall_s"] for r in results),
        "setups": [r["setup_s"] for r in results if r["setup_s"] is not None],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "failed": sum(_failed(r) for r in results),
        # a wrong output, as opposed to an operation that stopped with an error
        "wrong": sum(r["rc"] == 0 and bool(r["problems"]) for r in results),
        "results": results,
    }


def _layers(results: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its operations' raw numbers."""
    raw: dict[str, float] = {}
    for r in results:
        for name, value in r.get("layers", {}).items():
            if name.endswith("max_group_s"):
                raw[name] = max(raw.get(name, 0.0), value)
            else:
                raw[name] = raw.get(name, 0) + value
    lookups = raw.pop("engine.chain_cache.lookups", 0)
    raw["engine.chain_cache.hit_ratio"] = raw.pop("engine.chain_cache.hits", 0) / lookups if lookups else 0.0
    fallbacks = raw.pop("resummation.pade_with_fallback.calls", 0)
    pades = raw.get("resummation.pade.calls", 0)
    raw["resummation.pade.useful_ratio"] = fallbacks / pades if pades else 0.0
    raw["cli.output_bytes"] = sum(r["output_bytes"] for r in results)
    return raw


def measure(workload: str, seed: int, seconds: float, trace: bool, runner: Runner) -> dict:
    ops = operations(workload, seed)
    runner.child("probe")  # untimed warm-up: byte-compiles the package once
    modes = ("run", "trace") if trace else ("run",)
    passes: dict[str, list[dict]] = {m: [] for m in modes}
    t0 = perf_counter()
    while True:
        for m in modes:
            passes[m].append(run_pass(runner, ops, m))
        cycles = len(passes["run"])
        elapsed = perf_counter() - t0
        if cycles >= (1 if trace else MIN_PASSES) and elapsed * (cycles + 1) / cycles > seconds:
            break
    every = [p for ps in passes.values() for p in ps]
    untraced = passes["run"]
    setups = [s for p in untraced for s in p["setups"]]
    if not trace:  # import-only children, so that setup_s is a median of several
        probes = (runner.child("probe")["setup_s"] for _ in range(MIN_SETUPS - len(setups)))
        setups += [s for s in probes if s is not None]
    wall = statistics.median(p["wall_s"] for p in untraced)
    summary = {
        "correct": all(p["wrong"] == 0 for p in every),
        "attempted": len(ops) * len(every),
        "failed": sum(p["failed"] for p in every),
        "passes": len(every),
    }
    if not trace:
        summary["metrics"] = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
        return summary
    per_pass = [_layers(p["results"]) for p in passes["trace"]]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(p["wall_s"] for p in passes["trace"]) - wall
            continue
        values = [lp.get(name, 0) for lp in per_pass]
        if unit in ("count", "bytes") and len(set(values)) > 1:
            print(f"FLAG: {name} differs between traced passes: {values}", file=sys.stderr)
        metrics[name] = statistics.median(values)
    if metrics["engine.rungs_solved"] != metrics["engine.residual_checks"]:
        print(
            f"FLAG: {metrics['engine.rungs_solved']} rungs solved but "
            f"{metrics['engine.residual_checks']} exact residual checks",
            file=sys.stderr,
        )
    summary["metrics"] = metrics
    return summary


def _print_human(workload: str, summary: dict, units: dict[str, str]) -> None:
    print(f"{workload}: {summary['passes']} passes, {summary['attempted']} operations, "
          f"{summary['failed']} failed, outputs {'correct' if summary['correct'] else 'WRONG'}")
    for name, value in summary["metrics"].items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    print(f"  {'failed_ops_ratio':<42} {summary['failed'] / summary['attempted']:>14.6g} 1")


def _result(summary: dict, units: dict[str, str]) -> dict:
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in summary["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "seaqm" / "cli.py").is_file():
        print(f"error: no seaqm sources under {SRC}; run from a seaqm checkout", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        if args.workload != "all":
            summary = measure(args.workload, args.seed, args.seconds, bool(args.trace), Runner(work))
            units = PER_LAYER if args.trace else END_TO_END
            _print_human(args.workload, summary, units)
            print(json.dumps(_result(summary, units)))
            return 0
        report = {}
        for workload in WORKLOADS:
            for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
                summary = measure(workload, args.seed, args.seconds, trace, Runner(work))
                _print_human(workload + (" (traced)" if trace else ""), summary, units)
                report[workload + (":trace" if trace else "")] = _result(summary, units)
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
