"""What the package promises once every name is imported from its module:
importing one module loads only the modules it uses, the package holds its
version, and every record that holds an array compares by identity and
holds it through ``models.hold``, where no write by its caller reaches it."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import leggettsim
from leggettsim import sphere
from leggettsim.certify import AtomGrid, Farkas, Witness, build_atom_grid, build_problem
from leggettsim.models import SettingsPair, SubensembleDistribution, isotropic_product
from leggettsim.optimize import FAMILIES, SettingsFamily

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


def test_readme_layout_has_one_bullet_per_module():
    # README's Layout lists each module of the package once, and no module
    # that is gone
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = text.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `src/leggettsim/(\w+)\.py`", layout, re.MULTILINE)
    assert sorted(bullets) == sorted(path.stem for path in (ROOT / "src" / "leggettsim").glob("*.py"))


def array_records() -> dict[str, type]:
    """Every dataclass of the package with an ndarray field, by name."""
    found = {}
    for info in pkgutil.iter_modules(leggettsim.__path__):
        module = importlib.import_module(f"leggettsim.{info.name}")
        for cls in vars(module).values():
            if (dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
                    and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))):
                found[cls.__name__] = cls
    return found


def test_records_with_arrays_compare_by_identity():
    # == on a dataclass compares its fields as tuples, which raises
    # ValueError for arrays of more than one element; eq=False makes it
    # identity, and hash works with it
    checked = array_records()
    for cls in checked.values():
        assert cls.__eq__ is object.__eq__, cls.__qualname__
    assert {"AtomGrid", "SettingsFamily", "Phase1Result"} <= set(checked)


PROBLEM = build_problem(build_atom_grid(3, 3, 2), FAMILIES["orthogonal-doublets"].build([0.94, 3.46, 2.11, 2.34]))


# one instance of each checked record: the writable arrays it is built from,
# and how it is built from them. Phase1Result is left out: it is the
# solver's output, read once by certify.solve, not a checked record, and
# hold never freezes it.
HELD_RECORDS = {
    "AtomGrid": (lambda: (sphere.sphere_grid(4), sphere.sphere_grid(4)[::-1].copy()), AtomGrid),
    "CertificationProblem": (lambda: (PROBLEM.b_ub.copy(), PROBLEM.lp.copy()),
                             lambda b, lp: dataclasses.replace(PROBLEM, b_ub=b, lp=lp)),
    "Witness": (lambda: (np.array([0, 2]), np.array([0.25, 0.75])), lambda index, w: Witness("h", 3, index, w)),
    "Farkas": (lambda: (np.array([0.5, 0.0, 2.0]),), lambda lam: Farkas("h", lam, 0.1)),
    "SettingsPair": (lambda: (np.array([0.6, 0.8, 0.0]), np.array([0.0, 0.0, -1.0])), SettingsPair),
    "SubensembleDistribution": (lambda: (sphere.sphere_grid(3), sphere.sphere_grid(3)[::-1].copy(),
                                         np.array([0.5, 0.25, 0.25])),
                                SubensembleDistribution),
    "SettingsFamily": (lambda: (np.zeros(2), np.ones(2)), lambda lo, hi: SettingsFamily("box", lo, hi, list)),
}


def test_held_records_catalogued():
    assert set(HELD_RECORDS) == set(array_records()) - {"Phase1Result"}


@pytest.mark.parametrize("given", ["owner", "view"])
@pytest.mark.parametrize("record", sorted(HELD_RECORDS))
def test_caller_writes_do_not_reach_record(record, given):
    # a record is built from arrays its caller keeps writable, its owners
    # or views of them; writes through them afterwards must neither fail
    # (the record froze the caller's array) nor reach the record
    arrays, build = HELD_RECORDS[record]
    owners = arrays()
    held = build(*(owners if given == "owner" else [a[:] for a in owners]))
    fields = {f.name: getattr(held, f.name) for f in dataclasses.fields(held)}
    fields = {name: (value, value.copy()) for name, value in fields.items() if isinstance(value, np.ndarray)}
    assert fields
    for a in owners:
        a.fill(-3)
    for name, (value, before) in fields.items():
        assert not value.flags.writeable, name
        assert np.array_equal(value, before), name


@pytest.mark.parametrize("view", [np.ndarray.view, lambda a: a[:], lambda a: a[::-1][::-1]],
                         ids=["view", "slice", "reversed-twice"])
def test_views_of_frozen_memory_are_copied(view):
    # hold keeps an array only when the array itself owns its memory, is
    # C-ordered and is read-only: a view is copied even when the memory
    # behind it is frozen, so what a record keeps never rests on another
    # array's flags
    lam = np.array([0.5, 0.0, 2.0])
    lam.setflags(write=False)
    assert Farkas("h", lam, 0.1).farkas_ub is lam
    given = view(lam)
    assert given.base is lam and given.flags.c_contiguous and not given.flags.writeable
    held = Farkas("h", given, 0.1).farkas_ub
    assert held is not given and held.flags.owndata and not held.flags.writeable
    assert np.array_equal(held, lam)


def test_generated_model_peak():
    # isotropic_product holds its drawn atoms and their held copies at
    # once; its weight table is frozen where it is built and kept, so no
    # more is copied. The bound is the 12.90 MB this measured when the
    # vectors were copied by the unit-norm check, before hold, plus 0.1 MB;
    # the first call also pays for one-time allocations.
    def peak() -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            isotropic_product(100_000, sphere.make_rng(2026, 0))
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    peak()
    assert peak() <= 12.90e6 + 100_000


def call_sites(is_callee) -> set[str]:
    """module.scope of every call in src/leggettsim whose callee expression
    ``is_callee`` accepts; the scope is the function it sits in, qualified
    by its class."""
    sites = set()
    for path in sorted((ROOT / "src" / "leggettsim").glob("*.py")):
        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, scope + (child.name,))
                    continue
                if isinstance(child, ast.Call) and is_callee(child.func):
                    sites.add(".".join((path.stem, *scope)))
                visit(child, scope)
        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return sites


def attribute_named(name: str):
    return lambda func: isinstance(func, ast.Attribute) and func.attr == name


def test_records_set_fields_only_through_hold():
    # a record that set its own fields, or froze memory where it is not
    # fresh, would bypass the one rule of what a record keeps
    assert call_sites(attribute_named("__setattr__")) == {"models.hold"}
    assert call_sites(attribute_named("setflags")) == {
        "models.hold", "models.SubensembleDistribution.__post_init__",
        "certify.build_atom_grid", "certify.build_problem"}
