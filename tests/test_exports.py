"""Every public name a jspec module declares is defined."""

import importlib
import pkgutil

import pytest

import jspec

MODULES = sorted(m.name for m in pkgutil.iter_modules(jspec.__path__) if m.name != "__main__")


def test_every_module_is_listed():
    assert "entire" in MODULES and "spectrum" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"jspec.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"jspec.{name}.__all__ names undefined {missing}"
