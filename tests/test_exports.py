"""Every name a seaqm module exports through `__all__` must resolve, and
seaqm runs without scipy: `import seaqm.cli` loads none of it, and the oracle
suite of `validate` and the README's resummed energy and wavefunction lines
run with scipy blocked."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import seaqm

MODULES = ["seaqm"] + [f"seaqm.{m.name}" for m in pkgutil.iter_modules(seaqm.__path__)]


def _probe(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout's seaqm."""
    src = str(Path(seaqm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_cli_import_loads_no_scipy_integrate():
    # scipy.integrate pulls in scipy.optimize, scipy.special and scipy.sparse;
    # seaqm's own QUADPACK port normalizes states, so a cold start skips them
    probe = _probe(
        "import sys, seaqm.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy():
    # the oracle diagonalizes with numpy, so no module of scipy is loaded at all
    probe = _probe(
        "import sys, seaqm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def test_cli_import_loads_no_multiprocessing():
    # only a critical table with more than one worker starts a process pool
    probe = _probe(
        "import sys, seaqm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == "
        "'multiprocessing' or m == 'concurrent.futures.process'))"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def test_oracle_suite_runs_without_scipy():
    # a None entry in sys.modules makes every `import scipy` raise ImportError
    probe = _probe(
        "import sys; sys.modules['scipy'] = None; from seaqm.cli import main; "
        "sys.exit(main(['validate', '--suite', 'oracle']))"
    )
    assert probe.returncode == 0, probe.stderr
    assert '"status": "pass"' in probe.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "anharmonic", "--r", "0", "--K", "5", "--K-list", "3,4,5",
         "--lambda-range", "0:0.2:41", "--pade", "21/20,20/20"],
        ["wavefunction", "anharmonic", "--r", "0", "--K", "12", "--lambda", "3.0",
         "--pade", "5/5", "--x-range=-5:5:201"],
    ],
)
def test_readme_resummed_lines_run_without_scipy(argv):
    probe = _probe(
        "import sys; sys.modules['scipy'] = None; from seaqm.cli import main; "
        f"sys.exit(main({argv!r}))"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.startswith("# command: ")
