"""Every name a seaqm module exports through `__all__` must resolve, and
`import seaqm.cli` stays free of the heavy scipy subpackages."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import seaqm

MODULES = ["seaqm"] + [f"seaqm.{m.name}" for m in pkgutil.iter_modules(seaqm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_cli_import_loads_no_scipy_integrate():
    # scipy.integrate pulls in scipy.optimize, scipy.special and scipy.sparse;
    # seaqm's own QUADPACK port normalizes states, so a cold start skips them
    src = str(Path(seaqm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, seaqm.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
