"""Every name a seaqm module exports through `__all__` must resolve."""

import importlib
import pkgutil

import pytest

import seaqm

MODULES = ["seaqm"] + [f"seaqm.{m.name}" for m in pkgutil.iter_modules(seaqm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
