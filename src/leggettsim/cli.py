"""Batch command-line harness.

Subcommands: identity-check, simulate, chsh, bounds, certify, optimize.
The experiment is read only from a JSON config document (--config),
through one table of fields per subcommand (unknown keys are rejected);
the run's seed and output path are read only from --seed and --output.
Reports embed the tool version, the seed, and a hash of the config as
loaded, and identical config+seed runs produce byte-identical outputs.

Exit codes: 0 success, 1 invariant/verdict failure, 2 configuration
error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import suppress
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__, certify, models, optimize, quantum, sphere
from .bounds import DEFAULT_K_SIGMA, averaged_bounds, check_bounds, pointwise_identity
from .models import (COUPLINGS, REAL, TEXT, Field, LeggettModel, SettingsPair, choice, integer, list_of, read_fields,
                     read_variant, real, vector)
from .montecarlo import estimate_correlation
from .simplex import SolverFailure

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

COUNT = integer(1)


def _direction(value, name: str) -> np.ndarray:
    """A direction read from JSON: a list of three numbers, normalized."""
    return sphere.normalize(vector(value, name))


def _load_json(path: str, what: str, parse=lambda data: data):
    """The JSON document at ``path`` as ``parse`` reads it. A file that
    cannot be read, is not UTF-8 JSON, nests too deep for the decoder, or
    that ``parse`` refuses raises ValueError that names the file."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid {what} {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    # open the path as given: Path("out/") would drop the slash and write a file "out"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output:
        _write_text(output, text)
    sys.stdout.write(text)


def _report_json(payload: dict, f: dict, config_hash: str) -> None:
    head = {"tool_version": __version__, "seed": f["seed"], "config_hash": config_hash}
    _emit(json.dumps(head | payload, sort_keys=True, indent=2) + "\n", f["output"])


# -- readers of the nested objects ---------------------------------------
# A spec that draws from the run's seed (a random model, random settings,
# targets built from either) is read into a function of that seed.

COUPLING = Field("coupling", COUPLINGS, "independent")
RANDOM_MODEL = (Field("atoms", COUNT, 1000), COUPLING)
MODEL_GENERATORS = {
    "point-mass": (Field("u", _direction), Field("v", _direction), COUPLING),
    "isotropic": RANDOM_MODEL,
    "mirrored": RANDOM_MODEL,
}
MODEL_FILE = (Field("file", TEXT),)
SETTINGS_PAIR = (Field("a", _direction), Field("b", _direction))
RANDOM_SETTINGS = (Field("random", COUNT),)


def _model(spec, name: str):
    """A model file, {"file": path}, or an object naming a generator."""
    if isinstance(spec, dict) and "file" in spec:
        model = _load_json(read_fields(MODEL_FILE, spec, name)["file"], "model file", LeggettModel.from_dict)
        return lambda seed: model
    generator, m = read_variant(spec, name, "generator", MODEL_GENERATORS)
    if generator == "point-mass":
        model = LeggettModel(models.point_mass(m["u"], m["v"]), m["coupling"])
        return lambda seed: model
    draw = models.isotropic_product if generator == "isotropic" else models.mirrored
    return lambda seed: LeggettModel(draw(m["atoms"], sphere.make_rng(seed, 1)), m["coupling"])


def _settings(spec, name: str):
    """A list of {"a", "b"} settings pairs, or {"random": count}."""
    if isinstance(spec, dict):
        count = read_fields(RANDOM_SETTINGS, spec, name)["random"]

        def draw(seed: int) -> list[SettingsPair]:
            rng = sphere.make_rng(seed, 2)
            a = sphere.random_unit_vectors(rng, count)
            b = sphere.random_unit_vectors(rng, count)
            return [SettingsPair(a[i], b[i]) for i in range(count)]
        return draw
    read = list_of(partial(read_fields, SETTINGS_PAIR), "{'a', 'b'} objects, or {'random': count}")
    pairs = [SettingsPair(p["a"], p["b"]) for p in read(spec, name)]
    return lambda seed: pairs


CORRELATION = real(-1.0, 1.0)
TARGET = (*SETTINGS_PAIR, Field("e", CORRELATION))
FAMILY_TARGETS = (Field("from", choice({"singlet": "singlet"})), Field("family", choice(optimize.FAMILIES)),
                  Field("params", list_of(REAL, "numbers")))
TARGET_SOURCES = {
    "singlet": (Field("settings", _settings),),
    "model": (Field("model", _model), Field("settings", _settings)),
}


def _targets(spec, name: str):
    """A list of {a, b, e} targets, or an object that takes them
    from the singlet (over settings or a settings family) or from a model."""
    if isinstance(spec, list):
        read = list_of(partial(read_fields, TARGET), "target objects")
        targets = [certify.TargetConstraint(SettingsPair(t["a"], t["b"]), t["e"]) for t in read(spec, name)]
        return lambda seed: targets
    if isinstance(spec, dict) and "family" in spec:
        f = read_fields(FAMILY_TARGETS, spec, name)
        targets = f["family"].build(np.array(f["params"]))
        return lambda seed: targets
    source, f = read_variant(spec, name, "from", TARGET_SOURCES)
    if source == "singlet":
        return lambda seed: [optimize.singlet_target(s) for s in f["settings"](seed)]

    def from_model(seed: int) -> list[certify.TargetConstraint]:
        model = f["model"](seed)
        laws = ((s, models.outcome_law(model, s)) for s in f["settings"](seed))
        return [certify.TargetConstraint(s, models.exact_model_correlation(law)) for s, law in laws]
    return from_model


GRID = (Field("n_u", COUNT), Field("n_v", COUNT), Field("n_mirrored", integer(0), 0))
SCENARIO = tuple(Field(name, _direction) for name in ("a", "a_prime", "b", "b_prime"))


def _grid(value, name: str) -> certify.AtomGrid:
    return certify.build_atom_grid(**read_fields(GRID, value, name))


# -- the subcommands -----------------------------------------------------

# a seed keys a Philox stream, whose key NumPy reads exactly only in [0, 2**63)
SEED = integer(0, 2**63)


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_identity_check(f: dict, config_hash: str) -> int:
    lines = [f"leggettsim {__version__} identity-check config_hash={config_hash}"]
    failures = 0
    for a in (-1, 1):
        for b in (-1, 1):
            lhs, mid, rhs = pointwise_identity(a, b)
            ok = lhs == mid == rhs
            failures += 0 if ok else 1
            lines.append(f"A={a:+d} B={b:+d} lhs={_fmt(lhs)} mid={_fmt(mid)} rhs={_fmt(rhs)} {'ok' if ok else 'FAIL'}")
    lines.append(f"{4 - failures}/4 identities hold")
    _emit("\n".join(lines) + "\n", f["output"])
    return EXIT_OK if failures == 0 else EXIT_VERDICT


CSV_COLUMNS = [
    "experiment_id", "ax", "ay", "az", "bx", "by", "bz",
    "n", "mean", "se", "exact", "lower", "upper", "margin", "verdict",
]


def _simulate_row(f: dict, model: LeggettModel, idx: int, s: SettingsPair) -> list[str]:
    """One CSV row; its law is freed on return, so no two settings' laws are held at once."""
    law = models.outcome_law(model, s)
    est = estimate_correlation(law, f["samples"], f["seed"], stream_id=10 + idx)
    exact = models.exact_model_correlation(law)
    b = averaged_bounds(law)
    # at least the se of a mean at the bound it lies beyond: where every draw agrees, est.se is 0
    bound = b.lower if est.mean < b.lower else b.upper
    verdict = check_bounds(est.mean, max(est.se, math.sqrt((1.0 - bound * bound) / est.n)), b, f["k_sigma"])
    return [
        str(idx),
        _fmt(s.a[0]), _fmt(s.a[1]), _fmt(s.a[2]),
        _fmt(s.b[0]), _fmt(s.b[1]), _fmt(s.b[2]),
        str(f["samples"]), _fmt(est.mean), _fmt(est.se), _fmt(exact),
        _fmt(b.lower), _fmt(b.upper), _fmt(verdict.margin),
        "satisfied" if verdict.satisfied else "violated",
    ]


def cmd_simulate(f: dict, config_hash: str) -> int:
    seed, output = f["seed"], f["output"]
    model = f["model"](seed)
    rows = [_simulate_row(f, model, idx, s) for idx, s in enumerate(f["settings"](seed))]
    all_ok = all(row[-1] == "satisfied" for row in rows)
    csv_text = "\n".join([",".join(CSV_COLUMNS)] + [",".join(r) for r in rows]) + "\n"
    if output:
        _write_text(output, csv_text)
        meta = {"tool_version": __version__, "seed": seed, "config_hash": config_hash, "rows": len(rows)}
        _write_text(str(output) + ".meta.json", json.dumps(meta, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(csv_text)
    sys.stdout.write(
        f"leggettsim {__version__} simulate seed={seed} config_hash={config_hash} "
        f"rows={len(rows)} verdict={'satisfied' if all_ok else 'violated'}\n"
    )
    return EXIT_OK if all_ok else EXIT_VERDICT


def cmd_chsh(f: dict, config_hash: str) -> int:
    scenario = quantum.standard_planar_scenario() if f["scenario"] is None else f["scenario"]
    payload = {
        "classical_bound": quantum.CLASSICAL_CHSH_BOUND,
        "singlet_S": quantum.chsh_value(scenario, quantum.singlet_correlation),
    }
    if f["model"] is not None:
        model = f["model"](f["seed"])
        payload["model_S"] = quantum.chsh_value(
            scenario, lambda s: models.exact_model_correlation(models.outcome_law(model, s)))
    _report_json(payload, f, config_hash)
    return EXIT_OK


def cmd_bounds(f: dict, config_hash: str) -> int:
    model = f["model"](f["seed"])
    entries = []
    for idx, s in enumerate(f["settings"](f["seed"])):
        law = models.outcome_law(model, s)
        b = averaged_bounds(law)
        entries.append({
            "experiment_id": idx,
            "a": [float(x) for x in s.a],
            "b": [float(x) for x in s.b],
            "lower": b.lower,
            "upper": b.upper,
            "exact": models.exact_model_correlation(law),
        })
    _report_json({"bounds": entries}, f, config_hash)
    return EXIT_OK


def cmd_certify(f: dict, config_hash: str) -> int:
    grid = f["grid"] or certify.build_atom_grid(23, 23, n_mirrored=46)
    constraints = f["targets"](f["seed"])
    problem = certify.build_problem(grid, constraints)
    written = certify.solve(problem).to_dict()
    verified = certify.verify_certificate(problem, certify.read_certificate(written))
    _report_json({
        "n_atoms": problem.n_atoms,
        "n_constraints": len(constraints),
        "status": written["status"],
        "margin": written["margin"],
        "verified": verified,
        "certificate": written,
    }, f, config_hash)
    return EXIT_OK if verified else EXIT_VERDICT


def cmd_optimize(f: dict, config_hash: str) -> int:
    params, margins = optimize.optimize_settings(f["family"], f["grids"], f["budget"], f["seed"])
    _report_json({
        "family": f["family"].name,
        "params": [float(x) for x in params],
        "margin": min(margins),
        "margins_per_grid": list(margins),
        "evaluations": f["budget"],  # pattern_search calls its objective exactly budget times
        "grid_atoms": [g.n_atoms for g in f["grids"]],
    }, f, config_hash)
    return EXIT_OK


# subcommand -> (handler, the fields of its config); main adds the run's
# "seed" and "output", read from the flags alone
COMMANDS = {
    "identity-check": (cmd_identity_check, ()),
    "simulate": (cmd_simulate, (
        Field("model", _model), Field("settings", _settings),
        Field("samples", COUNT, 10000), Field("k_sigma", real(0.0), DEFAULT_K_SIGMA),
    )),
    "chsh": (cmd_chsh, (
        Field("scenario", lambda value, name: quantum.chsh_pairs(**read_fields(SCENARIO, value, name)), None),
        Field("model", _model, None),
    )),
    "bounds": (cmd_bounds, (Field("model", _model), Field("settings", _settings))),
    "certify": (cmd_certify, (Field("grid", _grid, None), Field("targets", _targets))),
    "optimize": (cmd_optimize, (
        Field("family", choice(optimize.FAMILIES), "orthogonal-doublets"),
        Field("budget", COUNT, 300),
        Field("grids", list_of(_grid, "grid objects"),
              [{"n_u": 24, "n_v": 24, "n_mirrored": 64}, {"n_u": 48, "n_v": 48, "n_mirrored": 256}]),
    )),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser for every subcommand, built on first use. A subcommand
    with a config takes --config, --seed and --output; identity-check takes
    --output alone. It depends only on COMMANDS, and parse_args keeps
    nothing of a call: each one fills a new namespace from the defaults."""
    parser = argparse.ArgumentParser(prog="leggettsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"leggettsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, table) in COMMANDS.items():
        p = sub.add_parser(name)
        if table:
            p.add_argument("--config")
            p.add_argument("--seed")
        p.add_argument("--output")
        p.set_defaults(handler=handler, table=table, config=None, seed=0)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. The parser is built once
    per process, so an in-process caller (tests, the benchmark) pays for it
    once; every other step, from reading the config on, runs afresh."""
    args = build_parser().parse_args(argv)
    try:
        config = {} if args.config is None else _load_json(args.config, "config")
        with suppress(ValueError):  # --seed text that int() reads as no integer stays text, which SEED refuses
            args.seed = int(args.seed)
        fields = read_fields(args.table, config, "config") | {"seed": SEED(args.seed, "--seed"), "output": args.output}
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))  # the config as loaded
        return args.handler(fields, hashlib.sha256(canonical.encode("utf-8")).hexdigest())
    except SolverFailure as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except (ValueError, MemoryError) as exc:  # a bad config, a refused input, or a size numpy cannot allocate
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
