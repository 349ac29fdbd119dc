"""Every public name a jspec module declares is defined, and the package
runs on numpy alone."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


_NO_SCIPY = """
import sys
from jspec import Geometric, JacobiParams, PowerLaw, point_spectrum
small = point_spectrum(JacobiParams(Geometric(0.25), 0.5), 8)
large = point_spectrum(JacobiParams(PowerLaw(1.0, 1.3), 0.95), 8)
assert small.N_used < 100 <= large.N_used, (small.N_used, large.N_used)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_spectra_load_no_scipy():
    # a fresh interpreter: both section drivers (the bidiagonal SVD below
    # 100 rows, dqds from there on) run without importing scipy
    src = str(Path(jspec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
