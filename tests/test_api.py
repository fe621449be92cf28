"""What the package promises once every name is imported from its module:
importing one module loads only the modules it uses, the package holds its
version, and every record that holds an array compares by identity."""

import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import leggettsim

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module, loaded", [
    ("sphere", ["sphere"]),
    ("kernels", ["kernels"]),
    ("simplex", ["simplex"]),
    ("models", ["kernels", "models", "sphere"]),
    ("certify", ["certify", "kernels", "models", "simplex", "sphere"]),
    ("cli", ["bounds", "certify", "cli", "kernels", "models", "montecarlo", "optimize", "quantum", "simplex",
             "sphere"]),
])
def test_module_loads_only_what_it_uses(module, loaded):
    # a fresh interpreter, so no other test's imports count
    code = (f"import sys, leggettsim.{module}; print(' '.join(sorted("
            "n.removeprefix('leggettsim.') for n in sys.modules if n.startswith('leggettsim.'))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == loaded


def test_cli_loads_no_executor():
    # every command pays for what importing the CLI loads: concurrent.futures
    # costs 5-8 ms, most of it for logging, so the Monte Carlo estimate
    # imports its executor only when it first runs
    code = "import sys, leggettsim.cli; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.split())
    assert "leggettsim.montecarlo" in loaded
    assert not loaded & {"concurrent.futures", "logging", "queue"}


def test_version_matches_pyproject():
    # a regex, not tomllib: the package supports Python 3.10
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert leggettsim.__version__ == re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)


def test_records_with_arrays_compare_by_identity():
    # == on a dataclass compares its fields as tuples, which raises
    # ValueError for arrays of more than one element; eq=False makes it
    # identity, and hash works with it
    checked = []
    for info in pkgutil.iter_modules(leggettsim.__path__):
        module = importlib.import_module(f"leggettsim.{info.name}")
        for cls in vars(module).values():
            if (dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
                    and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))):
                checked.append(cls.__name__)
                assert cls.__eq__ is object.__eq__, cls.__qualname__
    assert {"AtomGrid", "SettingsFamily", "Phase1Result"} <= set(checked)
