"""What the package promises once every name is imported from its module:
importing one module loads only the modules it uses, and the package
holds its version."""

import os
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
])
def test_module_loads_only_what_it_uses(module, loaded):
    # a fresh interpreter, so no other test's imports count
    code = (f"import sys, leggettsim.{module}; print(' '.join(sorted("
            "n.removeprefix('leggettsim.') for n in sys.modules if n.startswith('leggettsim.'))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == loaded


def test_version_matches_pyproject():
    # a regex, not tomllib: the package supports Python 3.10
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert leggettsim.__version__ == re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
