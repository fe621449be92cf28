"""Batch command-line harness.

Subcommands: identity-check, simulate, chsh, bounds, certify, optimize.
Each run is driven by a single JSON config document (unknown keys are
rejected) plus a few overriding flags; reports embed the tool version,
the seed, and a hash of the effective config, and identical config+seed
runs produce byte-identical outputs.

Exit codes: 0 success, 1 invariant/verdict failure, 2 configuration
error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, certify, models, optimize, quantum, sphere
from .bounds import averaged_bounds, check_bounds, pointwise_identity
from .models import Coupling, LeggettModel, SettingsPair
from .montecarlo import estimate_correlation
from .simplex import SolverFailure

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _check_keys(config: dict, allowed: set[str]) -> None:
    unknown = set(config) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def _integer(value, name: str) -> int:
    """A count or seed read from JSON: an integer, or a float with no fractional part.

    Booleans, fractional numbers and strings are rejected rather than truncated.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """A real number read from JSON: an integer or a float.

    Booleans and strings are rejected rather than converted.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _direction(value, name: str) -> np.ndarray:
    """A direction read from JSON: a list of three numbers, normalized."""
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{name} must be a list of three numbers, got {value!r}")
    return sphere.normalize([_real(x, name) for x in value])


def _seed(args, config: dict) -> int:
    """The run's seed, from the flag or the config.

    It keys a Philox stream next to a stream id, and NumPy reads that key
    exactly only for 0 <= seed < 2**63; a seed outside exits 2.
    """
    seed = args.seed if args.seed is not None else _integer(config.get("seed", 0), "seed")
    if not 0 <= seed < 2**63:
        raise ConfigError(f"seed must lie in [0, 2**63), got {seed}")
    return seed


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _report_json(payload: dict, output: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", output)


def _build_model(spec, seed: int) -> LeggettModel:
    if isinstance(spec, str):
        spec = {"file": spec}
    if not isinstance(spec, dict):
        raise ConfigError("model spec must be a path or an object")
    if "file" in spec:
        _check_keys(spec, {"file"})
        path = Path(spec["file"])
        if not path.exists():
            raise ConfigError(f"model file not found: {path}")
        try:
            return LeggettModel.load(path)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"invalid model file {path}: {exc}") from exc
    _check_keys(spec, {"generator", "atoms", "coupling", "u", "v"})
    coupling = Coupling(spec.get("coupling", "independent"))
    generator = spec.get("generator")
    if generator == "point-mass":
        dist = models.point_mass(_direction(spec["u"], "u"), _direction(spec["v"], "v"))
    elif generator == "isotropic":
        dist = models.isotropic_product(_integer(spec.get("atoms", 1000), "atoms"), sphere.make_rng(seed, 1))
    elif generator == "mirrored":
        dist = models.mirrored(_integer(spec.get("atoms", 1000), "atoms"), sphere.make_rng(seed, 1))
    else:
        raise ConfigError(f"unknown model generator: {generator!r}")
    return LeggettModel(dist, coupling)


def _settings_list(spec, seed: int) -> list[SettingsPair]:
    if isinstance(spec, dict):
        _check_keys(spec, {"random"})
        count = _integer(spec["random"], "random")
        if count < 1:
            raise ConfigError("random settings count must be >= 1")
        rng = sphere.make_rng(seed, 2)
        a = sphere.random_unit_vectors(rng, count)
        b = sphere.random_unit_vectors(rng, count)
        return [SettingsPair(a[i], b[i]) for i in range(count)]
    if not isinstance(spec, list) or not spec:
        raise ConfigError("settings must be a non-empty list or {'random': count}")
    out = []
    for item in spec:
        _check_keys(item, {"a", "b"})
        out.append(SettingsPair(_direction(item["a"], "a"), _direction(item["b"], "b")))
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_identity_check(args) -> int:
    config = _load_config(args.config)
    _check_keys(config, set())
    lines = [f"leggettsim {__version__} identity-check config_hash={_config_hash(config)}"]
    failures = 0
    for a in (-1, 1):
        for b in (-1, 1):
            lhs, mid, rhs = pointwise_identity(a, b)
            ok = lhs == mid == rhs
            failures += 0 if ok else 1
            lines.append(f"A={a:+d} B={b:+d} lhs={_fmt(lhs)} mid={_fmt(mid)} rhs={_fmt(rhs)} {'ok' if ok else 'FAIL'}")
    lines.append(f"{4 - failures}/4 identities hold")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if failures == 0 else EXIT_VERDICT


CSV_COLUMNS = [
    "experiment_id", "ax", "ay", "az", "bx", "by", "bz",
    "n", "mean", "se", "exact", "lower", "upper", "margin", "verdict",
]


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    _check_keys(config, {"model", "settings", "samples", "seed", "k_sigma", "output"})
    seed = _seed(args, config)
    n = args.samples if args.samples is not None else _integer(config.get("samples", 10000), "samples")
    if n < 1:
        raise ConfigError("samples must be >= 1")
    k_sigma = args.k_sigma if args.k_sigma is not None else _real(config.get("k_sigma", 4.0), "k_sigma")
    output = args.output or config.get("output")
    if "model" not in config or "settings" not in config:
        raise ConfigError("simulate config requires 'model' and 'settings'")
    model = _build_model(config["model"], seed)
    settings = _settings_list(config["settings"], seed)

    rows = []
    all_ok = True
    for idx, s in enumerate(settings):
        est = estimate_correlation(model, s, n, seed, stream_id=10 + idx)
        exact = models.exact_model_correlation(model, s)
        b = averaged_bounds(model.distribution, s)
        verdict = check_bounds(est.mean, est.se, b, k_sigma)
        all_ok = all_ok and verdict.satisfied
        rows.append([
            str(idx),
            _fmt(s.a[0]), _fmt(s.a[1]), _fmt(s.a[2]),
            _fmt(s.b[0]), _fmt(s.b[1]), _fmt(s.b[2]),
            str(n), _fmt(est.mean), _fmt(est.se), _fmt(exact),
            _fmt(b.lower), _fmt(b.upper), _fmt(verdict.margin),
            "satisfied" if verdict.satisfied else "violated",
        ])
    csv_text = "\n".join([",".join(CSV_COLUMNS)] + [",".join(r) for r in rows]) + "\n"
    if output:
        Path(output).write_text(csv_text, encoding="utf-8", newline="\n")
        meta = {
            "tool_version": __version__,
            "seed": seed,
            "config_hash": _config_hash(config),
            "rows": len(rows),
        }
        Path(str(output) + ".meta.json").write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    else:
        sys.stdout.write(csv_text)
    sys.stdout.write(
        f"leggettsim {__version__} simulate seed={seed} config_hash={_config_hash(config)} "
        f"rows={len(rows)} verdict={'satisfied' if all_ok else 'violated'}\n"
    )
    return EXIT_OK if all_ok else EXIT_VERDICT


def _scenario_from_config(config: dict) -> quantum.ChshScenario:
    spec = config.get("scenario")
    if spec is None:
        return quantum.standard_planar_scenario()
    names = ("a", "a_prime", "b", "b_prime")
    _check_keys(spec, set(names))
    return quantum.ChshScenario(*(_direction(spec[name], name) for name in names))


def cmd_chsh(args) -> int:
    config = _load_config(args.config)
    _check_keys(config, {"scenario", "model", "seed", "output"})
    seed = _seed(args, config)
    scenario = _scenario_from_config(config)
    s_singlet = quantum.chsh_value(scenario, quantum.singlet_correlation)
    payload = {
        "tool_version": __version__,
        "seed": seed,
        "config_hash": _config_hash(config),
        "classical_bound": quantum.CLASSICAL_CHSH_BOUND,
        "singlet_S": s_singlet,
    }
    if "model" in config:
        model = _build_model(config["model"], seed)
        payload["model_S"] = quantum.chsh_value(
            scenario, lambda s: models.exact_model_correlation(model, s)
        )
    _report_json(payload, args.output or config.get("output"))
    return EXIT_OK


def cmd_bounds(args) -> int:
    config = _load_config(args.config)
    _check_keys(config, {"model", "settings", "seed", "output"})
    seed = _seed(args, config)
    if "model" not in config or "settings" not in config:
        raise ConfigError("bounds config requires 'model' and 'settings'")
    model = _build_model(config["model"], seed)
    settings = _settings_list(config["settings"], seed)
    entries = []
    for idx, s in enumerate(settings):
        b = averaged_bounds(model.distribution, s)
        entries.append({
            "experiment_id": idx,
            "a": [float(x) for x in s.a],
            "b": [float(x) for x in s.b],
            "lower": b.lower,
            "upper": b.upper,
            "exact": models.exact_model_correlation(model, s),
        })
    payload = {
        "tool_version": __version__,
        "seed": seed,
        "config_hash": _config_hash(config),
        "bounds": entries,
    }
    _report_json(payload, args.output or config.get("output"))
    return EXIT_OK


def _grid_from_spec(spec) -> certify.AtomGrid:
    if not isinstance(spec, dict):
        raise ConfigError(f"a grid must be an object with n_u, n_v and n_mirrored, got {spec!r}")
    _check_keys(spec, {"n_u", "n_v", "n_mirrored"})
    return certify.build_atom_grid(
        _integer(spec["n_u"], "n_u"), _integer(spec["n_v"], "n_v"),
        _integer(spec.get("n_mirrored", 0), "n_mirrored"),
    )


def _grid_from_config(config: dict, grid_flag: int | None) -> certify.AtomGrid:
    spec = config.get("grid")
    if spec is not None:
        if grid_flag is not None:
            raise ConfigError("--grid cannot be combined with a config 'grid' block")
        return _grid_from_spec(spec)
    n = grid_flag if grid_flag is not None else 500
    if n < 1:
        raise ConfigError(f"--grid must be >= 1, got {n}")
    side = int(np.ceil(np.sqrt(n)))
    return certify.build_atom_grid(side, side, n_mirrored=side * 2)


def _targets_from_config(config: dict, seed: int) -> list[certify.TargetConstraint]:
    spec = config.get("targets")
    if spec is None:
        raise ConfigError("certify config requires 'targets'")
    if isinstance(spec, list):
        out = []
        for item in spec:
            _check_keys(item, {"a", "b", "e", "ma", "mb"})
            out.append(certify.TargetConstraint(
                settings=SettingsPair(_direction(item["a"], "a"), _direction(item["b"], "b")),
                e=_real(item["e"], "e"),
                ma=None if item.get("ma") is None else _real(item["ma"], "ma"),
                mb=None if item.get("mb") is None else _real(item["mb"], "mb"),
            ))
        return out
    _check_keys(spec, {"from", "model", "settings", "family", "params"})
    source = spec.get("from")
    if source == "singlet":
        if "family" in spec:
            family = optimize.settings_family(spec["family"])
            params = spec["params"]
            if not isinstance(params, list) or len(params) != family.n_params:
                raise ConfigError(f"family {family.name!r} takes {family.n_params} params")
            params = np.array([_real(x, "params") for x in params])
            return family.build(params)
        settings = _settings_list(spec["settings"], seed)
        out = []
        for s in settings:
            out.append(certify.TargetConstraint(
                settings=s, e=quantum.singlet_correlation(s), ma=0.0, mb=0.0
            ))
        return out
    if source == "model":
        model = _build_model(spec["model"], seed)
        settings = _settings_list(spec["settings"], seed)
        out = []
        for s in settings:
            ma, mb = models.exact_model_marginals(model, s)
            out.append(certify.TargetConstraint(
                settings=s, e=models.exact_model_correlation(model, s), ma=ma, mb=mb
            ))
        return out
    raise ConfigError("targets 'from' must be 'singlet' or 'model'")


def _include_marginals(config: dict) -> bool:
    value = config.get("include_marginals", False)
    if not isinstance(value, bool):
        raise ConfigError("include_marginals must be true or false")
    return value


def cmd_certify(args) -> int:
    config = _load_config(args.config)
    _check_keys(config, {"grid", "targets", "include_marginals", "seed", "output"})
    seed = _seed(args, config)
    grid = _grid_from_config(config, args.grid)
    constraints = _targets_from_config(config, seed)
    include_marginals = _include_marginals(config)
    problem = certify.build_problem(grid, constraints, include_marginals=include_marginals)
    cert = certify.solve(problem)
    verified = certify.verify_certificate(problem, cert)
    payload = {
        "tool_version": __version__,
        "seed": seed,
        "config_hash": _config_hash(config),
        "n_atoms": problem.n_atoms,
        "n_constraints": len(constraints),
        "include_marginals": include_marginals,
        "status": cert.status.value,
        "margin": cert.margin,
        "verified": verified,
        "certificate": cert.to_dict(),
    }
    _report_json(payload, args.output or config.get("output"))
    return EXIT_OK if verified else EXIT_VERDICT


def cmd_optimize(args) -> int:
    config = _load_config(args.config)
    _check_keys(config, {"family", "budget", "grids", "include_marginals", "seed", "output"})
    seed = _seed(args, config)
    family = optimize.settings_family(config.get("family", "orthogonal-doublets"))
    budget = _integer(config.get("budget", 300), "budget")
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    grid_specs = config.get("grids", [{"n_u": 22, "n_v": 22, "n_mirrored": 64},
                                      {"n_u": 44, "n_v": 44, "n_mirrored": 256}])
    if not isinstance(grid_specs, list) or not grid_specs:
        raise ConfigError(f"grids must be a non-empty list of grid objects, got {grid_specs!r}")
    grids = [_grid_from_spec(spec) for spec in grid_specs]
    include_marginals = _include_marginals(config)
    result = optimize.optimize_settings(family, grids, budget, seed, include_marginals)
    payload = {
        "tool_version": __version__,
        "seed": seed,
        "config_hash": _config_hash(config),
        "family": result.family,
        "params": [float(x) for x in result.params],
        "margin": result.margin,
        "margins_per_grid": list(result.margins),
        "evaluations": result.evaluations,
        "grid_atoms": [g.n_atoms for g in grids],
    }
    _report_json(payload, args.output or config.get("output"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leggettsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"leggettsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "identity-check": cmd_identity_check,
        "simulate": cmd_simulate,
        "chsh": cmd_chsh,
        "bounds": cmd_bounds,
        "certify": cmd_certify,
        "optimize": cmd_optimize,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output", type=str, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--k-sigma", dest="k_sigma", type=float, default=None)
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except SolverFailure as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except (ValueError, KeyError, TypeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
