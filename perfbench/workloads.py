"""The benchmark's workloads: inputs made from the seed, the CLI calls of one
pass, and the checks each call's output must pass.

Every workload runs ``leggettsim.cli.main`` in-process. At the default seed
the outputs are pinned to values measured on the parent commit; at every
seed a call must exit 0 and repeat its first pass byte for byte (the
harness checks both).
"""

from __future__ import annotations

import csv
import ctypes
import functools
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 2026
MARGIN_TOL = 1e-6


@dataclass
class Op:
    """One CLI call and the check on the file it writes."""

    argv: list[str]
    output: Path
    check: Callable[[bytes], str | None]  # a problem with the output, or None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    items_per_pass: int
    items_name: str  # the throughput's name for this workload
    # the function (namespace, name) at whose calls the host speed is probed
    probe_at: tuple[str, str]
    # exact per-pass values the traced run must reproduce (its self-checks)
    expected: dict[str, float]
    # how pass time scales with host-speed probe time: about the log-log slope over
    # the 30 s runs of seeds 201-210 and 301-310 (see hostspeed.py)
    speed_exponent: float


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    return path


def _margin_problem(label: str, got: float, want: float) -> str | None:
    if abs(got - want) > MARGIN_TOL:
        return f"{label} {got!r} differs from pinned {want!r}"
    return None


# -- optimize-doublets: the paper's headline claim (criterion 7) -------------

OPT_BUDGET = 300
OPT_GRIDS = [{"n_u": 24, "n_v": 24, "n_mirrored": 64}, {"n_u": 48, "n_v": 48, "n_mirrored": 256}]
OPT_PINNED_MARGIN = 0.46824942463078556
OPT_PINNED_MARGINS = (0.47417829365427433, 0.46824942463078556)


def optimize_doublets(seed: int, workdir: Path) -> Workload:
    config = _write_config(workdir / "optimize.json", {
        "family": "orthogonal-doublets", "budget": OPT_BUDGET, "grids": OPT_GRIDS,
    })
    output = workdir / "optimize.out.json"

    def check(data: bytes) -> str | None:
        report = json.loads(data)
        margins = report["margins_per_grid"]
        if report["evaluations"] != OPT_BUDGET:
            return f"evaluations {report['evaluations']} != {OPT_BUDGET}"
        if not report["margin"] > 0.0:
            return f"no certified violation: margin {report['margin']!r}"
        if len(margins) != len(OPT_GRIDS) or report["margin"] != min(margins):
            return f"margin {report['margin']!r} is not the worst of {margins!r}"
        if seed != DEFAULT_SEED:
            return None
        for label, got, want in zip(("margin", "margins_per_grid[0]", "margins_per_grid[1]"),
                                    [report["margin"], *margins], [OPT_PINNED_MARGIN, *OPT_PINNED_MARGINS]):
            problem = _margin_problem(label, got, want)
            if problem:
                return problem
        return None

    solves = (OPT_BUDGET + 1) * len(OPT_GRIDS)  # one final re-evaluation of the best point
    return Workload(
        name="optimize-doublets",
        ops=[Op(["optimize", "--config", str(config), "--seed", str(seed), "--output", str(output)],
                output, check)],
        items_per_pass=OPT_BUDGET,
        items_name="evals_per_s",
        probe_at=("leggettsim.optimize", "certified_margin"),
        expected={
            "optimize.certified_margin.calls": OPT_BUDGET + 1,
            "certify.build_problem.calls": solves,
            "certify.solve.calls": solves,
            "simplex.phase1_simplex.calls": solves,
            "certify.verify_certificate.calls": solves,
            "certify.verify_per_solve": 1.0,
            "models.sample_outcome_arrays.calls": 0,
        },
        speed_exponent=1.2,
    )


# -- certify-refine: a few large LPs on a theta sweep, two grid levels ------

CERT_PSIS = (3.46, 2.11, 2.34)
CERT_GRIDS = [{"n_u": 96, "n_v": 96, "n_mirrored": 1024}, {"n_u": 192, "n_v": 192, "n_mirrored": 4096}]
# (theta, grid index) -> (status, margin) measured on the parent commit
CERT_PINS = {
    (0.94, 0): ("infeasible", 0.3042597578712748),
    (0.94, 1): ("infeasible", 0.30533909230606815),
    (1.5, 0): ("infeasible", 0.0366681871811515),
    (1.5, 1): ("feasible", 0.0),
    (2.0, 0): ("feasible", 0.0),
    (2.0, 1): ("feasible", 0.0),
}


def certify_refine(seed: int, workdir: Path) -> Workload:
    """The six problems are fixed; the seed orders the calls, so every pin
    holds at every seed while a result that depends on call order shows."""
    problems = list(CERT_PINS)
    if seed != DEFAULT_SEED:
        problems = [problems[i] for i in np.random.default_rng(seed).permutation(len(problems))]
    ops = []
    atoms = 0
    for theta, g in problems:
        grid = CERT_GRIDS[g]
        n_atoms = grid["n_u"] * grid["n_v"] + grid["n_mirrored"]
        atoms += n_atoms
        tag = f"certify-{theta}-{n_atoms}"
        config = _write_config(workdir / f"{tag}.json", {
            "targets": {"from": "singlet", "family": "orthogonal-doublets",
                        "params": [theta, *CERT_PSIS]},
            "grid": grid,
        })
        output = workdir / f"{tag}.out.json"

        def check(data: bytes, pin=CERT_PINS[theta, g], n_atoms=n_atoms) -> str | None:
            report = json.loads(data)
            if report["verified"] is not True:
                return "certificate not verified"
            if report["n_atoms"] != n_atoms:
                return f"n_atoms {report['n_atoms']} != {n_atoms}"
            if report["status"] != pin[0]:
                return f"status {report['status']} != pinned {pin[0]}"
            return _margin_problem("margin", report["margin"], pin[1])

        ops.append(Op(["certify", "--config", str(config), "--seed", str(seed), "--output", str(output)],
                      output, check))
    infeasible = sum(status == "infeasible" for status, _ in CERT_PINS.values())
    return Workload(
        name="certify-refine",
        ops=ops,
        items_per_pass=atoms,
        items_name="atoms_per_s",
        probe_at=("leggettsim.certify", "verify_certificate"),
        expected={
            "certify.solve.calls": len(ops),
            # solve verifies its certificate, then cmd_certify verifies it again
            "certify.verify_certificate.calls": 2 * len(ops),
            "certify.verify_per_solve": 2.0,
            "certify.infeasible_frac": infeasible / len(ops),
            "models.sample_outcome_arrays.calls": 0,
        },
        speed_exponent=1.2,
    )


# -- simulate-mc: Monte Carlo over a model larger than one core's L2 --------

SIM_ATOMS = 100_000
SIM_SETTINGS = 8
SIM_SAMPLES = 1_000_000
SIM_BLOCK = 1 << 16  # leggettsim.montecarlo.BLOCK_SIZE on the parent commit
# by OpenBLAS thread count: the exact and bound columns are BLAS dot
# products whose last digits follow it
SIM_PINNED_SHA256 = {
    1: "4d7ca6f02e297e9694175b773018c051e7ac87ce3a4acf1050cafc80e8d45f94",
    2: "7e71010191a9bf68f7f7b534bb02b06e345bc2084dbdc6953d07b86a99f5f026",
}


@functools.cache
def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def simulate_mc(seed: int, workdir: Path) -> Workload:
    config = _write_config(workdir / "simulate.json", {
        "model": {"generator": "isotropic", "atoms": SIM_ATOMS, "coupling": "independent"},
        "settings": {"random": SIM_SETTINGS},
        "samples": SIM_SAMPLES,
    })
    output = workdir / "simulate.out.csv"

    def check(data: bytes) -> str | None:
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        if len(rows) != SIM_SETTINGS:
            return f"{len(rows)} rows, expected {SIM_SETTINGS}"
        bad = [r["experiment_id"] for r in rows if r["verdict"] != "satisfied" or int(r["n"]) != SIM_SAMPLES]
        if bad:
            return f"rows {bad} not satisfied at n={SIM_SAMPLES}"
        pinned = SIM_PINNED_SHA256.get(blas_threads())  # none for other thread counts
        if seed == DEFAULT_SEED and pinned and hashlib.sha256(data).hexdigest() != pinned:
            return f"CSV differs from the sha256 pinned for {blas_threads()} OpenBLAS thread(s)"
        return None

    blocks = SIM_SETTINGS * -(-SIM_SAMPLES // SIM_BLOCK)
    return Workload(
        name="simulate-mc",
        ops=[Op(["simulate", "--config", str(config), "--seed", str(seed), "--output", str(output)],
                output, check)],
        items_per_pass=SIM_SETTINGS * SIM_SAMPLES,
        items_name="draws_per_s",
        probe_at=("leggettsim.montecarlo", "sample_outcome_arrays"),
        expected={
            "montecarlo.estimate_correlation.calls": SIM_SETTINGS,
            "montecarlo.blocks": blocks,
            "models.sample_outcome_arrays.calls": blocks,
            "certify.solve.calls": 0,
            "simplex.phase1_simplex.calls": 0,
        },
        speed_exponent=0.7,
    )


WORKLOADS = {
    "optimize-doublets": optimize_doublets,
    "certify-refine": certify_refine,
    "simulate-mc": simulate_mc,
}
