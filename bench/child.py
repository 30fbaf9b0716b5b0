"""One benchmark operation in a fresh interpreter.

    python3 child.py MODE RESULT_JSON [SEAQM_ARGV...]

Runs in the operation's own working directory.  MODE is one of

- `probe`:  time `import seaqm.cli` and stop;
- `run`:    also time `seaqm.cli.main(argv)` and check its output;
- `trace`:  as `run`, with the tracer's spans around the public callables,
            plus per-layer metrics and the exactness digest check;
- `record`: as `trace`, but write the output and digests out as the new
            reference instead of checking them.

The result is written as JSON to RESULT_JSON.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    mode, result_path, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    t0 = perf_counter()
    import seaqm.cli

    result: dict = {"setup_s": perf_counter() - t0}
    if mode != "probe":
        result.update(_operation(mode, argv, seaqm.cli.main))
    result_path.write_text(json.dumps(result))


def _operation(mode: str, argv: list[str], cli_main) -> dict:
    import checks

    tracer = None
    if mode in ("trace", "record"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    error = None
    t0 = perf_counter()
    try:
        rc = tracer.call("cli", cli_main, argv) if tracer else cli_main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an escaping exception is a failed operation
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - t0
    out: dict = {
        "wall_s": wall,
        "rc": rc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_bytes": sum(p.stat().st_size for p in Path.cwd().iterdir() if p.is_file()),
    }
    digests = None
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["warnings"] = tracer.warnings
        digests = tracer.digests()
    if mode == "record":
        out["digests"] = digests
        out["output"] = checks.read_output(argv, Path.cwd()) if rc == 0 else None
        return out
    problems = [error] if error else checks.verify(argv, rc, Path.cwd(), digests, checks.load_references())
    out["problems"] = problems
    return out


if __name__ == "__main__":
    main()
