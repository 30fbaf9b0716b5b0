"""Record the reference outputs and exactness digests the benchmark checks against.

    python3 bench/record.py

Runs every operation any seed can draw once, traced, and rewrites
`bench/reference/outputs.json` and `bench/reference/digests.json`.  The
committed files were made at the seed commit; re-record only when an
output is meant to change, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from checks import REFERENCE
from run import ROOT, Runner
from workloads import every_operation, key


def _rounded(table: dict) -> dict:
    """Drop float noise below 12 significant digits; the checks' tolerances are far wider."""
    return {
        "header": table["header"],
        "rows": [[float(f"{c:.12g}") if isinstance(c, float) else c for c in row]
                 for row in table["rows"]],
    }


def main() -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=ROOT / ".bench_work"))
    outputs, digests = {}, {}
    try:
        runner = Runner(work, time_limit=None)
        for argv in every_operation():
            result = runner.child("record", argv)
            print(f"rc={result['rc']} {result['wall_s']:7.2f} s  seaqm {key(argv)}", file=sys.stderr)
            digests[key(argv)] = result.get("digests")
            if result["rc"] == 0 and argv[0] in ("energy", "wavefunction"):
                outputs[key(argv)] = _rounded(result["output"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / "outputs.json").write_text(
        "{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(outputs[k], separators=(',', ':'))}" for k in sorted(outputs)
        ) + "\n}\n"
    )
    (REFERENCE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
