"""Output checks for benchmark operations.

An operation passes when it exits 0 and its output is right:

- `critical`: every lambda_c lies within `critical_tolerance(n, l)` of the
  tabulated `CRITICAL_SCREENING` value, for every cell n <= nmax;
- `validate`: the report's status is "pass";
- `energy` and `wavefunction`: every number matches the output recorded at
  the seed commit (`reference/outputs.json`) within the tolerance the test
  suite uses for that quantity;
- in traced runs, the set of exactness digests equals the recorded set.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import key, out_name

REFERENCE = Path(__file__).resolve().parent / "reference"

# Energies: the 1e-5 relative oracle agreement of the acceptance suite, with
# an absolute floor for the near-zero uncertainty column.
ENERGY_REL, ENERGY_ABS = 1e-5, 1e-9
# Wavefunction samples: the 1e-10 relative agreement the state tests ask of
# `evaluate_state`, with an absolute floor of 1e-12 of the column's largest
# value for samples in the decaying tails.
WAVE_REL, WAVE_ABS_TO_MAX = 1e-10, 1e-12


def load_references() -> dict:
    return {
        name: json.loads((REFERENCE / f"{name}.json").read_text())
        for name in ("outputs", "digests")
    }


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_output(argv: list[str], workdir: Path):
    """The operation's output: the JSON document, or the CSV table as
    {"header": [...], "rows": [[...]]} with numeric cells as floats."""
    path = workdir / out_name(argv)
    if argv[0] == "validate":
        return json.loads(path.read_text())
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return {
        "header": lines[0].split(","),
        "rows": [[_cell(c) for c in ln.split(",")] for ln in lines[1:]],
    }


def verify(argv: list[str], rc, workdir: Path, digests: list[str] | None, refs: dict) -> list[str]:
    """Problems found with one finished operation; empty when it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        output = read_output(argv, workdir)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    op = key(argv)
    if argv[0] == "critical":
        problems = _check_critical(argv, output)
    elif argv[0] == "validate":
        problems = [] if output.get("status") == "pass" else [f"validate status {output.get('status')!r}"]
    elif op in refs["outputs"]:
        problems = _compare_table(argv[0], output, refs["outputs"][op])
    else:
        problems = _check_finite(output)
    if digests is not None:
        expected = refs["digests"].get(op)
        if expected is None:
            problems.append("no recorded exactness digests")
        elif digests != expected:
            missing = len(set(expected) - set(digests))
            extra = len(set(digests) - set(expected))
            problems.append(f"exactness digests differ: {missing} missing, {extra} new")
    return problems


def _check_critical(argv: list[str], table: dict) -> list[str]:
    from seaqm.reference import critical_tolerance, critical_value

    nmax = int(argv[argv.index("--nmax") + 1])
    cols = {name: i for i, name in enumerate(table["header"])}
    seen = set()
    problems = []
    for row in table["rows"]:
        n, l, lam = int(row[cols["n"]]), int(row[cols["l"]]), row[cols["lambda_c"]]
        seen.add((n, l))
        if not abs(lam - critical_value(n, l)) <= critical_tolerance(n, l):
            problems.append(f"lambda_c({n},{l}) = {lam!r}, table {critical_value(n, l)!r}")
    missing = {(n, l) for n in range(1, nmax + 1) for l in range(n)} - seen
    if missing:
        problems.append(f"{len(missing)} cells missing")
    return problems


def _compare_table(command: str, got: dict, ref: dict) -> list[str]:
    if got["header"] != ref["header"] or len(got["rows"]) != len(ref["rows"]):
        return ["table shape differs from the reference"]
    scale = [
        max((abs(r[j]) for r in ref["rows"] if isinstance(r[j], float)), default=0.0)
        for j in range(len(ref["header"]))
    ]
    bad = 0
    for got_row, ref_row in zip(got["rows"], ref["rows"]):
        for j, (a, b) in enumerate(zip(got_row, ref_row)):
            if isinstance(b, str) or isinstance(a, str):
                ok = a == b
            elif command == "energy":
                ok = abs(a - b) <= ENERGY_REL * abs(b) + ENERGY_ABS
            else:
                ok = abs(a - b) <= WAVE_REL * abs(b) + WAVE_ABS_TO_MAX * scale[j]
            bad += not ok
    return [f"{bad} values outside tolerance"] if bad else []


def _check_finite(table: dict) -> list[str]:
    if not table["rows"]:
        return ["empty table"]
    bad = sum(1 for row in table["rows"] for c in row if isinstance(c, float) and not math.isfinite(c))
    return [f"{bad} non-finite values"] if bad else []
