import argparse
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings
from hypothesis import strategies as st

from leggettsim import certify, cli, models
from leggettsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_VERDICT, build_parser, main
from leggettsim.models import Coupling, LeggettModel, SettingsPair, SubensembleDistribution

from test_acceptance import PINNED_VIOLATION_RUN
from test_certify import feasible_problem, two_atom_infeasible_problem


def write_config(tmp_path: Path, data: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


POINT_MASS_MODEL = {
    "generator": "point-mass",
    "u": [1.0, 0.0, 0.0],
    "v": [0.0, 1.0, 0.0],
    "coupling": "independent",
}


# conftest.edge_distribution as a model file: weights that sum to 1 + 2**-52
# once renormalized on load, so the weighted sums over them round past +-1
EDGE_MODEL = {
    "atoms": [{"u": [1.0, 0.0, 0.0], "v": [0.0, 1.0, 0.0], "w": w}
              for w in (0.258, 0.119, 0.111, 0.408, 0.104)],
    "coupling": "independent",
}


class TestIdentityCheck:
    def test_passes(self, capsys):
        assert main(["identity-check"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "4/4 identities hold" in out

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["identity-check", "--output", str(out1)])
        main(["identity-check", "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestSimulate:
    def test_point_mass_satisfied(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "model": POINT_MASS_MODEL,
            "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}],
            "samples": 200,
        })
        out = tmp_path / "rows.csv"
        code = main(["simulate", "--config", config, "--seed", "1", "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "experiment_id", "ax", "ay", "az", "bx", "by", "bz",
            "n", "mean", "se", "exact", "lower", "upper", "margin", "verdict",
        ]
        row = lines[1].split(",")
        assert float(row[8]) == 1.0  # mean: atoms aligned with the settings
        assert row[14] == "satisfied"
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["seed"] == 1 and "config_hash" in meta and "tool_version" in meta

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, {
            "model": {"generator": "isotropic", "atoms": 50},
            "settings": {"random": 4},
            "samples": 5000,
        })
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for out in (out1, out2):
            assert main(["simulate", "--config", config, "--seed", "7", "--output", str(out)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_violated_verdict_exit_code(self, tmp_path):
        # comonotone with v.b = 1 sits exactly on degenerate bounds, so the
        # noisy estimate misses them at zero allowance
        config = write_config(tmp_path, {
            "model": {"generator": "point-mass", "u": [0.6, 0.8, 0.0],
                      "v": [0.0, 0.0, 1.0], "coupling": "comonotone"},
            "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 0.0, 1.0]}],
            "samples": 4001,
            "k_sigma": 0,
        })
        out = tmp_path / "rows.csv"
        code = main(["simulate", "--config", config, "--seed", "0", "--output", str(out)])
        assert code == EXIT_VERDICT
        assert "violated" in out.read_text()

    def test_valid_model_at_the_edge_satisfied(self, tmp_path):
        # the exact value and the lower bound are both 1: a lower bound that
        # rounded to 1 + 4e-16 failed the noiseless estimate at se = 0
        config = write_config(tmp_path, {
            "model": {"file": write_config(tmp_path, EDGE_MODEL, "model.json")},
            "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}],
            "samples": 1000,
        })
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", config, "--output", str(out)]) == EXIT_OK
        row = out.read_text().splitlines()[1].split(",")
        assert row[9:] == ["0.0", "1.0", "1.0", "1.0", "0.0", "satisfied"]

    def test_zero_samples_rejected(self, tmp_path):
        config = write_config(tmp_path, {
            "model": POINT_MASS_MODEL,
            "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}],
            "samples": 0,
        })
        assert main(["simulate", "--config", config]) == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        config = write_config(tmp_path, {
            "model": POINT_MASS_MODEL,
            "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}],
            "typo_key": 1,
        })
        assert main(["simulate", "--config", config]) == EXIT_CONFIG

    def test_missing_model_file(self, tmp_path):
        config = write_config(tmp_path, {
            "model": {"file": str(tmp_path / "nope.json")},
            "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}],
        })
        assert main(["simulate", "--config", config]) == EXIT_CONFIG

    def test_invalid_model_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"atoms": [{"u": [1, 0, 0], "v": [0, 1, 0], "w": 0.5}],
                                   "coupling": "independent"}))
        config = write_config(tmp_path, {
            "model": {"file": str(bad)},
            "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}],
        })
        assert main(["simulate", "--config", config]) == EXIT_CONFIG

    def test_nan_model_weights_rejected(self, tmp_path):
        # json writes and reads NaN; the model must not load as 0 or 1 atoms
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({"atoms": [{"u": [1, 0, 0], "v": [0, 1, 0], "w": 0.5},
                                             {"u": [0, 1, 0], "v": [1, 0, 0], "w": float("nan")}],
                                   "coupling": "independent"}))
        config = write_config(tmp_path, {
            "model": {"file": str(bad)},
            "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}],
        })
        assert main(["simulate", "--config", config]) == EXIT_CONFIG

    # sha256 of the CSV at fixed model, settings and seed; any change to a
    # coupling's joint law or to the sampler's use of the uniforms moves it
    GOLDEN_CSV_SHA256 = {
        "independent": "3c995d56f8d1d5c25c9f24d12230312b319000c0a3dda04bab634a6e530174e7",
        "comonotone": "8f88ddbb5fe73d0757091173d30e6029a4c37b575d4d587d3d6d18410c2b0fe2",
        "antimonotone": "fe69cdc257df11001182cea17be23f434ebe69d0918920a47467ac9cc405436e",
    }

    @pytest.mark.parametrize("coupling", sorted(GOLDEN_CSV_SHA256))
    def test_golden_csv(self, tmp_path, coupling):
        config = write_config(tmp_path, {
            "model": {"generator": "isotropic", "atoms": 1000, "coupling": coupling},
            "settings": {"random": 4},
            "samples": 20000,
        })
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", config, "--seed", "7", "--output", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN_CSV_SHA256[coupling]

    def test_nan_k_sigma_rejected(self, tmp_path):
        settings = [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}]
        config = write_config(tmp_path, {"model": POINT_MASS_MODEL, "settings": settings,
                                         "samples": 100, "k_sigma": float("nan")})
        assert main(["simulate", "--config", config]) == EXIT_CONFIG

    @pytest.mark.parametrize("generator", ["isotropic", "mirrored"])
    def test_zero_atoms_rejected(self, tmp_path, generator):
        config = write_config(tmp_path, {
            "model": {"generator": generator, "atoms": 0},
            "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}],
            "samples": 100,
        })
        assert main(["simulate", "--config", config]) == EXIT_CONFIG


class TestChsh:
    def test_singlet_standard_scenario(self, tmp_path):
        out = tmp_path / "chsh.json"
        assert main(["chsh", "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["singlet_S"] == pytest.approx(2 * np.sqrt(2), abs=1e-9)
        assert report["classical_bound"] == 2.0

    def test_model_respects_classical_bound(self, tmp_path):
        config = write_config(tmp_path, {"model": {"generator": "isotropic", "atoms": 100}})
        out = tmp_path / "chsh.json"
        assert main(["chsh", "--config", config, "--seed", "3", "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert abs(report["model_S"]) <= 2.0 + 1e-9


class TestBounds:
    def test_report(self, tmp_path):
        config = write_config(tmp_path, {
            "model": POINT_MASS_MODEL,
            "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}],
        })
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--config", config, "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        entry = report["bounds"][0]
        assert entry["lower"] == pytest.approx(1.0)
        assert entry["upper"] == pytest.approx(1.0)
        assert entry["exact"] == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    def test_direction_with_overflowing_norm(self, tmp_path, capsys):
        # u's squared norm overflows, yet it names the direction [1, 0, 0]
        config = write_config(tmp_path, {
            "model": {**POINT_MASS_MODEL, "u": [1e200, 0.0, 0.0]},
            "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}],
        })
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--config", config, "--output", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["bounds"][0]["exact"] == pytest.approx(1.0)

    def test_edge_model_bounds_ordered(self, tmp_path):
        config = write_config(tmp_path, {
            "model": {"file": write_config(tmp_path, EDGE_MODEL, "model.json")},
            "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]},
                         {"a": [1.0, 0.0, 0.0], "b": [0.0, -1.0, 0.0]}],
        })
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--config", config, "--output", str(out)]) == EXIT_OK
        entries = json.loads(out.read_text())["bounds"]
        assert [(e["lower"], e["upper"], e["exact"]) for e in entries] == [(1.0, 1.0, 1.0), (-1.0, -1.0, -1.0)]


class TestCertify:
    def test_single_pair_feasible(self, tmp_path):
        config = write_config(tmp_path, {
            "targets": {"from": "singlet",
                        "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}]},
            "grid": {"n_u": 8, "n_v": 8, "n_mirrored": 8},
        })
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", config, "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["status"] == "feasible"
        assert report["verified"] is True

    def test_model_targets_feasible(self, tmp_path):
        config = write_config(tmp_path, {
            "targets": {"from": "model",
                        "model": {"generator": "mirrored", "atoms": 64},
                        "settings": {"random": 3}},
            "grid": {"n_u": 8, "n_v": 8, "n_mirrored": 64},
        })
        # the mirrored generator draws random atoms, so the grid only has to
        # admit *some* distribution matching the bounds, not the atoms themselves
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", config, "--seed", "11", "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["verified"] is True

    def test_edge_model_targets_with_marginals(self, tmp_path):
        # the model's marginals at this pair are 1, summed to 1 + 2**-52
        # over its weights; the target keeps only the clamped correlation,
        # so the grid is checked against a relaxation of the model
        config = write_config(tmp_path, {
            "targets": {"from": "model", "model": {"file": write_config(tmp_path, EDGE_MODEL, "model.json")},
                        "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}]},
            "grid": {"n_u": 4, "n_v": 4},
        })
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", config, "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["verified"] is True

    def test_doublet_family_infeasible(self, tmp_path):
        config = write_config(tmp_path, {
            "targets": {"from": "singlet", "family": "orthogonal-doublets",
                        "params": [0.6, 0.3, 0.9, 1.4]},
            "grid": {"n_u": 12, "n_v": 12, "n_mirrored": 24},
        })
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", config, "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["status"] == "infeasible"
        assert report["margin"] > 0.0
        assert report["verified"] is True

    @pytest.mark.parametrize("key", ["e", "ma", "mb"])
    def test_nan_target_rejected(self, tmp_path, key):
        # a target holds no marginals: "ma" and "mb" are unknown keys
        target = {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0], "e": 0.0, key: float("nan")}
        config = write_config(tmp_path, {"targets": [target], "grid": {"n_u": 4, "n_v": 4}})
        assert main(["certify", "--config", config]) == EXIT_CONFIG

    @pytest.mark.parametrize("params", [[0.94], [0.94, 3.46, 2.11, 2.34, 1.0]])
    def test_wrong_params_length_rejected(self, tmp_path, params):
        config = write_config(tmp_path, {
            "targets": {"from": "singlet", "family": "orthogonal-doublets", "params": params},
            "grid": {"n_u": 4, "n_v": 4},
        })
        assert main(["certify", "--config", config]) == EXIT_CONFIG

    TARGET = {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0], "e": 0.0}

    @pytest.mark.parametrize("command, config", [
        ("certify", {"targets": [TARGET], "grid": {"n_u": 4, "n_v": 4}, "include_marginals": False}),
        ("optimize", {"budget": 1, "include_marginals": False}),
        ("certify", {"targets": [{**TARGET, "ma": 0.0}], "grid": {"n_u": 4, "n_v": 4}}),
        ("certify", {"targets": [{**TARGET, "mb": 0.0}], "grid": {"n_u": 4, "n_v": 4}}),
    ], ids=["certify-include_marginals", "optimize-include_marginals", "certify-ma", "certify-mb"])
    def test_marginal_inputs_refused(self, tmp_path, command, config):
        # the LP has no marginal rows: the key that asked for them, even at
        # its old default, and a target's marginals exit 2
        assert main([command, "--config", write_config(tmp_path, config)]) == EXIT_CONFIG
        without = {k: v for k, v in config.items() if k != "include_marginals"}
        if command == "certify":
            without["targets"] = [self.TARGET]
        assert main([command, "--config", write_config(tmp_path, without)]) == EXIT_OK

    def test_missing_targets(self, tmp_path):
        config = write_config(tmp_path, {"grid": {"n_u": 4, "n_v": 4}})
        assert main(["certify", "--config", config]) == EXIT_CONFIG

    def test_feasible_report_verifies(self, tmp_path):
        # the witness in the report is its support; re-read, it must still
        # verify against the problem the config describes
        targets = [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0], "e": 0.0},
                   {"a": [0.0, 0.0, 1.0], "b": [1.0, 0.0, 0.0], "e": -0.3}]
        config = write_config(tmp_path, {"targets": targets,
                                         "grid": {"n_u": 8, "n_v": 8, "n_mirrored": 8}})
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", config, "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["status"] == "feasible"
        cert = certify.read_certificate(report["certificate"])
        problem = certify.build_problem(
            certify.build_atom_grid(8, 8, 8),
            [certify.TargetConstraint(SettingsPair(np.array(t["a"]), np.array(t["b"])), t["e"])
             for t in targets],
        )
        assert report["certificate"]["witness"]["n_atoms"] == problem.n_atoms == 72
        assert len(report["certificate"]["witness"]["index"]) <= len(targets) * 2 + 1
        assert certify.verify_certificate(problem, cert)

    @pytest.mark.parametrize("grid", [{}, {"grid": None}], ids=["absent", "null"])
    def test_default_grid(self, tmp_path, grid):
        # a 23 x 23 product lattice plus 46 mirrored atoms
        config = write_config(tmp_path, {"targets": {"from": "singlet", "settings": {"random": 1}}, **grid})
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", config, "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["n_atoms"] == 575

    # sha256 of the certify report at a fixed config: an infeasible problem
    # on 168 atoms and a feasible one on 72; any change to the LP rows, the
    # pivots, the multipliers, the margin or the certificate's JSON form
    # moves them
    GOLDEN_REPORTS = {
        "infeasible": ({"targets": {"from": "singlet", "family": "orthogonal-doublets",
                                    "params": [0.6, 0.3, 0.9, 1.4]},
                        "grid": {"n_u": 12, "n_v": 12, "n_mirrored": 24}},
                       "f4717654081c5fe7f91679c0c8cae03975c6ba34aff53d7f7f14ae4a3bc1fd46"),
        "feasible": ({"targets": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0], "e": 0.0},
                                  {"a": [0.0, 0.0, 1.0], "b": [1.0, 0.0, 0.0], "e": -0.3}],
                      "grid": {"n_u": 8, "n_v": 8, "n_mirrored": 8}},
                     "66616cb80ffcd61dd3377487a34d6553645bc0db19132226f18caacd1feb994c"),
    }

    @pytest.mark.parametrize("status", sorted(GOLDEN_REPORTS))
    def test_golden_report(self, tmp_path, status):
        data, digest = self.GOLDEN_REPORTS[status]
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", write_config(tmp_path, data),
                     "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["status"] == status
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("status, record, entries, factor", [
        ("infeasible", certify.Farkas, lambda data: data["farkas_ub"], -1.0),
        ("feasible", certify.Witness, lambda data: data["witness"]["weight"], 2.0),
    ], ids=["farkas-negated-multiplier", "witness-doubled-weight"])
    def test_written_certificate_is_verified(self, tmp_path, monkeypatch, status, record, entries, factor):
        # "verified" is about the certificate as written: a writer that
        # changes the largest entry of the record solve verified is caught
        to_dict = record.to_dict

        def corrupted(cert):
            data = to_dict(cert)
            values = entries(data)
            values[int(np.argmax(values))] *= factor
            return data

        monkeypatch.setattr(record, "to_dict", corrupted)
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", write_config(tmp_path, self.GOLDEN_REPORTS[status][0]),
                     "--output", str(out)]) == EXIT_VERDICT
        report = json.loads(out.read_text())
        assert (report["status"], report["verified"]) == (status, False)

    def test_refused_certificate_is_a_solver_failure(self, tmp_path, monkeypatch, capsys):
        # solve raises SolverFailure on a certificate its verifier refuses:
        # exit 3, with a message and no report
        monkeypatch.setattr(certify, "verify_certificate", lambda problem, cert: False)
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", write_config(tmp_path, self.GOLDEN_REPORTS["feasible"][0]),
                     "--output", str(out)]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.err.startswith("solver failure: ") and captured.out == ""
        assert not out.exists()


class TestAllocationFailure:
    """A size numpy cannot allocate is a configuration error. These sizes
    exceed the address space, so numpy refuses them before touching memory."""

    @pytest.mark.parametrize("command, config", [
        ("simulate", {"model": {"generator": "isotropic", "atoms": 1e15},
                      "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}]}),
        ("certify", {"targets": {"from": "singlet", "settings": {"random": 1e13}},
                     "grid": {"n_u": 4, "n_v": 4}}),
    ], ids=["simulate-atoms", "certify-settings"])
    def test_exit_config(self, tmp_path, capsys, command, config):
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, config), "--output", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


class TestOptimize:
    def test_small_run(self, tmp_path):
        config = write_config(tmp_path, {
            "family": "orthogonal-doublets",
            "budget": 30,
            "grids": [{"n_u": 10, "n_v": 10, "n_mirrored": 20}],
        })
        out = tmp_path / "opt.json"
        assert main(["optimize", "--config", config, "--seed", "2", "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["evaluations"] == 30
        assert report["family"] == "orthogonal-doublets"
        assert report["margin"] == min(report["margins_per_grid"])
        assert report["grid_atoms"] == [120]
        assert len(report["margins_per_grid"]) == 1

    def test_bad_budget(self, tmp_path):
        config = write_config(tmp_path, {"budget": 0})
        assert main(["optimize", "--config", config]) == EXIT_CONFIG

    def test_unknown_family_names_both(self, tmp_path, capsys):
        config = write_config(tmp_path, {"family": "no-such-family", "budget": 1})
        assert main(["optimize", "--config", config]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'orthogonal-doublets'" in err and "'planar-chsh'" in err and "'no-such-family'" in err

    def test_defaults_give_the_pinned_run(self, tmp_path):
        # no config: the default family, budget and grids are the headline
        # run of criterion 7, to the bit
        out = tmp_path / "opt.json"
        assert main(["optimize", "--seed", "2026", "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["family"] == "orthogonal-doublets"
        assert report["evaluations"] == 300
        assert report["grid_atoms"] == [640, 2560]
        assert (repr(tuple(report["margins_per_grid"])),
                tuple(x.hex() for x in report["params"])) == PINNED_VIOLATION_RUN

    @pytest.mark.parametrize("grids", [[], {"n_u": 4, "n_v": 4}, [[4, 4, 4]], "grid"],
                             ids=["empty", "object", "list-of-lists", "string"])
    def test_grids_must_be_list_of_objects(self, tmp_path, capsys, grids):
        config = write_config(tmp_path, {"budget": 1, "grids": grids})
        assert main(["optimize", "--config", config]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "grid" in err and "object" in err


class TestIntegerFields:
    """Counts in a config must be JSON integers (or floats with no fractional
    part); anything else exits 2 instead of being truncated. The seed rows
    hold too, but for another reason: a seed is no config key at all."""

    SIMULATE = {"model": {"generator": "isotropic", "atoms": 10},
                "settings": {"random": 2}, "samples": 100}
    CERTIFY = {"targets": {"from": "singlet",
                           "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}]},
               "grid": {"n_u": 4, "n_v": 4, "n_mirrored": 4}}
    OPTIMIZE = {"budget": 1, "grids": [{"n_u": 4, "n_v": 4, "n_mirrored": 4}]}
    FIELDS = [
        ("simulate", SIMULATE, ("seed",)),
        ("simulate", SIMULATE, ("samples",)),
        ("simulate", SIMULATE, ("model", "atoms")),
        ("simulate", {**SIMULATE, "model": {"generator": "mirrored", "atoms": 10}}, ("model", "atoms")),
        ("simulate", SIMULATE, ("settings", "random")),
        ("bounds", {"model": SIMULATE["model"], "settings": SIMULATE["settings"]}, ("seed",)),
        ("certify", CERTIFY, ("grid", "n_u")),
        ("certify", CERTIFY, ("grid", "n_v")),
        ("certify", CERTIFY, ("grid", "n_mirrored")),
        ("optimize", OPTIMIZE, ("budget",)),
        ("optimize", OPTIMIZE, ("grids", 0, "n_u")),
        ("optimize", OPTIMIZE, ("grids", 0, "n_mirrored")),
    ]

    @staticmethod
    def _with(config, path, value):
        config = json.loads(json.dumps(config))
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return config

    @pytest.mark.parametrize("bad", [2.9, True, "3"], ids=["fraction", "bool", "string"])
    @pytest.mark.parametrize("command, config, path", FIELDS,
                             ids=[f"{c}-{'.'.join(map(str, p))}" for c, _, p in FIELDS])
    def test_rejected(self, tmp_path, command, config, path, bad):
        path_arg = write_config(tmp_path, self._with(config, path, bad))
        assert main([command, "--config", path_arg]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, config, path", [
        ("certify", CERTIFY, ("grid", "n_mirrored")),
        ("optimize", OPTIMIZE, ("grids", 0, "n_mirrored")),
    ], ids=["certify", "optimize"])
    def test_negative_mirrored_rejected(self, tmp_path, command, config, path):
        path_arg = write_config(tmp_path, self._with(config, path, -3))
        assert main([command, "--config", path_arg]) == EXIT_CONFIG

    def test_integral_float_accepted(self, tmp_path):
        csvs = []
        for atoms, samples in ((10, 100), (10.0, 1e2)):
            config = write_config(tmp_path, {**self.SIMULATE, "model": {"generator": "isotropic", "atoms": atoms},
                                             "samples": samples})
            out = tmp_path / f"rows-{atoms}.csv"
            assert main(["simulate", "--config", config, "--seed", "3", "--output", str(out)]) == EXIT_OK
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]


class TestRealFields:
    """Real numbers in a config, vector components included, must be JSON
    integers or floats; a boolean or a string exits 2 instead of being
    converted."""

    SETTINGS = [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}]
    SIMULATE = {"model": POINT_MASS_MODEL, "settings": SETTINGS, "samples": 100}
    TARGETS = {"targets": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0], "e": 0.0}], "grid": {"n_u": 4, "n_v": 4}}
    FAMILY = {"targets": {"from": "singlet", "family": "orthogonal-doublets",
                          "params": [0.94, 3.46, 2.11, 2.34]},
              "grid": {"n_u": 4, "n_v": 4}}
    CHSH = {"scenario": {"a": [1.0, 0.0, 0.0], "a_prime": [0.0, 1.0, 0.0],
                         "b": [1.0, 1.0, 0.0], "b_prime": [1.0, -1.0, 0.0]}}
    FIELDS = [
        ("simulate", SIMULATE, ("k_sigma",)),
        ("simulate", SIMULATE, ("settings", 0, "a", 0)),
        ("simulate", SIMULATE, ("settings", 0, "b", 1)),
        ("simulate", SIMULATE, ("model", "u", 0)),
        ("simulate", SIMULATE, ("model", "v", 1)),
        ("certify", TARGETS, ("targets", 0, "e")),
        ("certify", TARGETS, ("targets", 0, "a", 0)),
        ("certify", TARGETS, ("targets", 0, "b", 1)),
        ("certify", FAMILY, ("targets", "params", 0)),
        ("certify", FAMILY, ("targets", "params", 3)),
        ("chsh", CHSH, ("scenario", "a", 0)),
        ("chsh", CHSH, ("scenario", "a_prime", 1)),
        ("chsh", CHSH, ("scenario", "b", 0)),
        ("chsh", CHSH, ("scenario", "b_prime", 1)),
    ]

    @pytest.mark.parametrize("bad", [True, "0.5"], ids=["bool", "string"])
    @pytest.mark.parametrize("command, config, path", FIELDS,
                             ids=[f"{c}-{'.'.join(map(str, p))}" for c, _, p in FIELDS])
    def test_rejected(self, tmp_path, command, config, path, bad):
        path_arg = write_config(tmp_path, TestIntegerFields._with(config, path, bad))
        assert main([command, "--config", path_arg]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, config, path", [
        ("simulate", SIMULATE, ("model", "u")),
        ("certify", TARGETS, ("targets", 0, "a")),
        ("chsh", CHSH, ("scenario", "b")),
    ])
    @pytest.mark.parametrize("bad", [[1.0, 0.0], [1.0, 0.0, 0.0, 0.0], "1,0,0"])
    def test_direction_must_be_three_numbers(self, tmp_path, command, config, path, bad):
        path_arg = write_config(tmp_path, TestIntegerFields._with(config, path, bad))
        assert main([command, "--config", path_arg]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, config", [("simulate", SIMULATE), ("certify", TARGETS),
                                                 ("certify", FAMILY), ("chsh", CHSH)])
    def test_integers_accepted(self, tmp_path, command, config):
        # the same config with every integral float written as a JSON
        # integer gives the same report
        def as_int(node):
            if isinstance(node, dict):
                return {k: as_int(v) for k, v in node.items()}
            if isinstance(node, list):
                return [as_int(v) for v in node]
            return int(node) if isinstance(node, float) and node.is_integer() else node

        outputs = []
        for variant in (config, as_int(config)):
            out = tmp_path / f"out-{len(outputs)}"
            path_arg = write_config(tmp_path, variant, name=f"config-{len(outputs)}.json")
            assert main([command, "--config", path_arg, "--seed", "1", "--output", str(out)]) == EXIT_OK
            text = out.read_text()
            outputs.append(text if command == "simulate" else json.loads(text) | {"config_hash": None})
        assert outputs[0] == outputs[1]


class TestSeedRange:
    """A seed keys a Philox stream, whose key NumPy reads exactly only for
    0 <= seed < 2**63; any other seed exits 2 before the run writes anything.
    The seed is read from --seed alone: a config that names one exits 2."""

    CONFIGS = {
        "simulate": TestIntegerFields.SIMULATE,
        "certify": TestIntegerFields.CERTIFY,
        "optimize": TestIntegerFields.OPTIMIZE,
    }
    BAD = [-1, 2**63, 2**64 - 1, 2**64]
    # CSV of the SIMULATE config at the largest accepted seed, taken from the
    # code before the range check
    LARGEST_SEED_SHA256 = "1bd8f36854b5a263da7a9f7a7c3bb5a5aa0b7c7bb1eeefa498765cf030fab4db"

    # text that int() reads as no integer goes the same way as one out of
    # range: main returns 2 with one message, and the parser never exits
    @pytest.mark.parametrize("seed", [str(s) for s in BAD + [1e300]] + ["1e300", "2.0", "abc"])
    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_flag_rejected(self, tmp_path, capsys, command, seed):
        config = write_config(tmp_path, self.CONFIGS[command])
        out = tmp_path / "out"
        assert main([command, "--config", config, "--seed", seed, "--output", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: --seed ")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0] + BAD + [1e300])
    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_config_rejected(self, tmp_path, capsys, command, seed):
        # an unknown key, in range or not
        config = write_config(tmp_path, {**self.CONFIGS[command], "seed": seed})
        out = tmp_path / "out"
        assert main([command, "--config", config, "--output", str(out)]) == EXIT_CONFIG
        assert "unknown config keys: ['seed']" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        out = tmp_path / "rows.csv"
        path = write_config(tmp_path, self.CONFIGS["simulate"])
        assert main(["simulate", "--config", path, "--output", str(out), "--seed", str(2**63 - 1)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.LARGEST_SEED_SHA256


class TestModelFileTypes:
    """A model file takes the config's type rules: its numbers must be JSON
    numbers, and unknown keys are rejected."""

    ATOM = {"u": [1, 0, 0], "v": [0, 1, 0], "w": 1}

    @pytest.mark.parametrize("model", [
        {"atoms": [{**ATOM, "u": ["1", "0", "0"]}], "coupling": "independent"},
        {"atoms": [{**ATOM, "w": "1"}], "coupling": "independent"},
        {"atoms": [{**ATOM, "u": [True, False, False]}], "coupling": "independent"},
        {"atoms": [{**ATOM, "w": True}], "coupling": "independent"},
        {"atoms": [{**ATOM, "extra": 1}], "coupling": "independent"},
        {"atoms": [ATOM], "coupling": "independent", "extra": 1},
        {"atoms": ATOM, "coupling": "independent"},
    ], ids=["string-component", "string-weight", "bool-component", "bool-weight",
            "unknown-atom-key", "unknown-key", "atoms-object"])
    def test_rejected(self, tmp_path, capsys, model):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        config = write_config(tmp_path, {"model": {"file": str(path)},
                                         "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}]})
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--config", config, "--output", str(out)]) == EXIT_CONFIG
        assert "invalid model file" in capsys.readouterr().err
        assert not out.exists()


class TestFileErrors:
    """A file that cannot be read or written exits 2 with a message, not 1
    (the verdict-failure code) with a traceback."""

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["chsh", "--config", str(tmp_path)]) == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_model_file_is_a_directory(self, tmp_path, capsys):
        config = write_config(tmp_path, {"model": {"file": str(tmp_path)},
                                         "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}]})
        assert main(["bounds", "--config", config]) == EXIT_CONFIG
        assert "cannot read model file" in capsys.readouterr().err

    # "[" * 100000 + "]" * 100000 raised RecursionError (exit 1 with a
    # traceback); undecodable bytes exited 2 without naming the file
    NESTED = "[" * 100000 + "]" * 100000

    @pytest.mark.parametrize("text", [NESTED, b"\xff\xfe{}"], ids=["nested", "undecodable"])
    def test_malformed_config(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["optimize", "--config", str(path)]) == EXIT_CONFIG
        assert f"invalid config {path}: " in capsys.readouterr().err

    def test_nested_model_file(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(self.NESTED)
        config = write_config(tmp_path, {"model": {"file": str(model)},
                                         "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}]})
        assert main(["bounds", "--config", config]) == EXIT_CONFIG
        assert f"invalid model file {model}: " in capsys.readouterr().err

    def test_output_directory_missing(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.txt"
        assert main(["identity-check", "--output", str(out)]) == EXIT_CONFIG
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["identity-check", "simulate"])
    def test_output_with_trailing_slash_writes_nothing(self, command, tmp_path, capsys):
        # "out/" names a directory: no file "out" (nor "out/.meta.json") is written
        argv = [command, "--output", str(tmp_path / "out") + "/"]
        if command == "simulate":
            argv += ["--config", write_config(tmp_path, {
                "model": {"generator": "isotropic", "atoms": 4},
                "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}], "samples": 10})]
        before = set(tmp_path.iterdir())
        assert main(argv) == EXIT_CONFIG
        assert "cannot write" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before


class TestFlags:
    """A subcommand with a config takes --config, --seed and --output, and
    identity-check --output alone."""

    FLAGS = {
        "identity-check": {"--output"},
        "simulate": {"--config", "--seed", "--output"},
        "chsh": {"--config", "--seed", "--output"},
        "bounds": {"--config", "--seed", "--output"},
        "certify": {"--config", "--seed", "--output"},
        "optimize": {"--config", "--seed", "--output"},
    }

    def test_flags_per_subcommand(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                 for name, p in sub.choices.items()}
        assert flags == self.FLAGS
        assert sum(map(len, flags.values())) == 16

    @pytest.mark.parametrize("argv", [
        ["optimize", "--grid", "5"],
        ["certify", "--grid", "500"],
        ["identity-check", "--samples", "5"],
        ["bounds", "--k-sigma", "1"],
        ["identity-check", "--config", "config.json"],
        ["simulate", "--samples", "5"],
        ["simulate", "--k-sigma", "1"],
    ])
    def test_flag_not_taken(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG

    def test_no_config_key_names_a_flag(self):
        # a key and a flag of one name would give that value two sources
        parsers = [build_parser(), *next(a for a in build_parser()._actions
                                         if isinstance(a, argparse._SubParsersAction)).choices.values()]
        options = {a.dest for p in parsers for a in p._actions if a.option_strings}
        keys = {f.name for table in _tables() for f in table}
        assert options == {"help", "version", "config", "seed", "output"}
        assert keys & options == set()


class TestParserReuse:
    """main builds its parser once per process; no flag of one call reaches the next."""

    SIMULATE = {"model": POINT_MASS_MODEL, "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}]}
    CERTIFY = {"targets": {"from": "singlet", "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}]}}

    def test_built_once_across_calls(self, tmp_path):
        build_parser.cache_clear()
        config = write_config(tmp_path, self.SIMULATE)
        for name, flags in (("a", ["--seed", "7"]), ("b", [])):
            assert main(["simulate", "--config", config, "--output", str(tmp_path / name), *flags]) == EXIT_OK
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        seeds = [json.loads((tmp_path / f"{name}.meta.json").read_text(encoding="utf-8"))["seed"] for name in "ab"]
        assert seeds == [7, 0]

    def test_no_flag_carried_over(self, tmp_path):
        config = write_config(tmp_path, self.CERTIFY)
        reports = []
        for flags in (["--seed", "5"], []):
            out = tmp_path / f"certify{len(reports)}.json"
            assert main(["certify", "--config", config, "--output", str(out), *flags]) == EXIT_OK
            reports.append(json.loads(out.read_text(encoding="utf-8")))
        # both on the default 23 x 23 lattice plus 46 mirrored atoms
        assert [(r["n_atoms"], r["seed"]) for r in reports] == [(575, 5), (575, 0)]


README = Path(__file__).resolve().parent.parent / "README.md"


def _backticked(cell: str) -> str | None:
    """The name in a table cell written `name`, or None for an empty cell."""
    cell = cell.strip()
    if not cell:
        return None
    assert cell.startswith("`") and cell.endswith("`") and cell.count("`") == 2, cell
    return cell[1:-1]


def _readme_rows(headings, columns: int) -> list[list[str | None]]:
    """The first ``columns`` cells of each row of the table under the first
    line of README.md in ``headings``; no rows where no table follows it."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line in headings)
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            rows.append(line)
        elif rows or line.strip():
            break
    # past the header and the rule
    return [[_backticked(cell) for cell in row.split("|")[1:1 + columns]] for row in rows[2:]]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_readme_table_matches_commands(command):
    # the field cells of the table under the subcommand's heading in
    # README.md, against its COMMANDS table; identity-check has no table
    rows = _readme_rows((f"`{command}`:", f"`{command}` takes no config."), 1)
    _, table = cli.COMMANDS[command]
    assert [name for name, in rows] == [f.name for f in table]


# a small run of each subcommand that writes a JSON report, every
# optional key included
REPORT_RUNS = {
    "chsh": {"model": {"generator": "isotropic", "atoms": 10}},
    "bounds": {"model": POINT_MASS_MODEL, "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}]},
    "certify": {"targets": {"from": "singlet", "settings": {"random": 2}}, "grid": {"n_u": 4, "n_v": 4}},
    "optimize": {"budget": 2, "grids": [{"n_u": 4, "n_v": 4, "n_mirrored": 4}]},
}


@pytest.mark.parametrize("command", list(REPORT_RUNS))
def test_readme_report_tables(tmp_path, command):
    # the key cells of the shared head and of the subcommand's report table
    # in README.md, against the top-level keys of a small run's report
    out = tmp_path / "report.json"
    assert main([command, "--config", write_config(tmp_path, REPORT_RUNS[command]), "--output", str(out)]) == EXIT_OK
    keys = _readme_rows(("Every report:",), 1) + _readme_rows((f"`{command}` report:",), 1)
    assert sorted(key for key, in keys) == sorted(json.loads(out.read_text()))


# the object a document field holds, as README.md names its fields
NESTED = {"atoms": ("atoms[].", models.ATOM), "witness": ("witness.", certify.WITNESS)}


def _names(table) -> list[str]:
    """The fields of a document table, each followed by those of the object it holds."""
    names = []
    for f in table:
        prefix, nested = NESTED.get(f.name, ("", ()))
        names += [f.name] + [prefix + g.name for g in nested]
    return names


@pytest.mark.parametrize("heading, columns, expected", [
    ("Model file:", 1, [[name] for name in _names(models.MODEL)]),
    ("Certificate:", 2,
     [["status", None]] + [[name, status] for status, table in certify.CERTIFICATES.items()
                           for name in _names(table)]),
], ids=["model", "certificate"])
def test_readme_document_tables(heading, columns, expected):
    # the field cells (and the status cells) of the document tables in
    # README.md, against the tables the two documents are read through
    assert _readme_rows((heading,), columns) == expected


def _tables() -> list:
    """Every table of fields in the CLI: the subcommands' and the nested objects'."""
    def is_table(t):
        return isinstance(t, tuple) and t and all(isinstance(f, cli.Field) for f in t)

    found = [table for _, table in cli.COMMANDS.values()]
    for value in vars(cli).values():
        for t in value.values() if isinstance(value, dict) else [value]:
            if is_table(t) and all(t is not seen for seen in found):
                found.append(t)
    return found


class TestSchemaKinds:
    """Every field of every table takes a value of each JSON kind in turn:
    main returns 0 or 2 and never raises, and a kind the field does not take
    exits 2 and writes no output."""

    PAIR = {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}
    POINT_MASS = {"generator": "point-mass", "u": [1.0, 0.0, 0.0], "v": [0.0, 1.0, 0.0],
                  "coupling": "independent"}
    ISOTROPIC = {"generator": "isotropic", "atoms": 10, "coupling": "independent"}
    GRID = {"n_u": 4, "n_v": 4, "n_mirrored": 4}
    TARGET = {**PAIR, "e": 0.0}
    SIMULATE = {"model": POINT_MASS, "settings": [PAIR], "samples": 100, "k_sigma": 4.0}
    CHSH = {"scenario": {"a": [1.0, 0.0, 0.0], "a_prime": [0.0, 1.0, 0.0],
                         "b": [1.0, 1.0, 0.0], "b_prime": [1.0, -1.0, 0.0]},
            "model": ISOTROPIC}
    CERTIFY = {"grid": GRID, "targets": [TARGET]}
    SINGLET = {**CERTIFY, "targets": {"from": "singlet", "settings": [PAIR]}}
    OPTIMIZE = {"family": "orthogonal-doublets", "budget": 1, "grids": [GRID]}
    # (subcommand, config, path to an object, the table that object is read through)
    OBJECTS = [
        ("identity-check", {}, (), cli.COMMANDS["identity-check"][1]),
        ("simulate", SIMULATE, (), cli.COMMANDS["simulate"][1]),
        ("simulate", SIMULATE, ("model",), cli.MODEL_GENERATORS["point-mass"]),
        ("simulate", {**SIMULATE, "model": ISOTROPIC}, ("model",), cli.MODEL_GENERATORS["isotropic"]),
        ("simulate", {**SIMULATE, "model": {**ISOTROPIC, "generator": "mirrored"}}, ("model",),
         cli.MODEL_GENERATORS["mirrored"]),
        ("simulate", {**SIMULATE, "model": {"file": "model.json"}}, ("model",), cli.MODEL_FILE),
        ("simulate", SIMULATE, ("settings", 0), cli.SETTINGS_PAIR),
        ("simulate", {**SIMULATE, "settings": {"random": 2}}, ("settings",), cli.RANDOM_SETTINGS),
        ("chsh", CHSH, (), cli.COMMANDS["chsh"][1]),
        ("chsh", CHSH, ("scenario",), cli.SCENARIO),
        ("bounds", {"model": POINT_MASS, "settings": [PAIR]}, (),
         cli.COMMANDS["bounds"][1]),
        ("certify", CERTIFY, (), cli.COMMANDS["certify"][1]),
        ("certify", CERTIFY, ("grid",), cli.GRID),
        ("certify", CERTIFY, ("targets", 0), cli.TARGET),
        ("certify", {**CERTIFY, "targets": {"from": "singlet", "family": "orthogonal-doublets",
                                            "params": [0.94, 3.46, 2.11, 2.34]}},
         ("targets",), cli.FAMILY_TARGETS),
        ("certify", SINGLET, ("targets",), cli.TARGET_SOURCES["singlet"]),
        ("certify", {**CERTIFY, "targets": {"from": "model", "model": POINT_MASS, "settings": [PAIR]}},
         ("targets",), cli.TARGET_SOURCES["model"]),
        ("optimize", OPTIMIZE, (), cli.COMMANDS["optimize"][1]),
        ("optimize", OPTIMIZE, ("grids", 0), cli.GRID),
    ]
    # the keys that pick a model's or a target source's table
    VARIANT_KEYS = [("simulate", SIMULATE, ("model",), cli.Field("generator", cli.TEXT)),
                    ("certify", SINGLET, ("targets",), cli.Field("from", cli.TEXT))]
    # the run's seed and output path are flags alone: in a config they are
    # unknown keys, walked as required fields that take no kind
    FLAG_KEYS = [(command, config, path, cli.Field(name, cli.TEXT))
                 for command, config, path, table in OBJECTS if path == () and table
                 for name in ("seed", "output")]
    FIELDS = [(command, config, path + (f.name,), f)
              for command, config, path, table in OBJECTS for f in table]
    FIELDS += [(command, config, path + (f.name,), f) for command, config, path, f in VARIANT_KEYS + FLAG_KEYS]
    # the kinds, other than null, that each field takes; null is taken by a
    # field whose default is None
    TAKES = {"file": {"string"}, "coupling": {"string"}, "generator": {"string"}, "family": {"string"},
             "from": {"string"}, "k_sigma": {"fraction"}, "e": {"fraction"}}
    KINDS = st.one_of(
        st.tuples(st.just("null"), st.none()),
        st.tuples(st.just("boolean"), st.booleans()),
        st.tuples(st.just("string"), st.text(max_size=6)),
        st.tuples(st.just("list"), st.lists(st.none() | st.booleans() | st.text(max_size=2), max_size=3)),
        st.tuples(st.just("object"), st.dictionaries(st.text(max_size=3), st.none(), max_size=2)),
        st.tuples(st.just("nan"), st.just(math.nan)),
        st.tuples(st.just("inf"), st.sampled_from([math.inf, -math.inf])),
        st.tuples(st.just("fraction"), st.floats(0.01, 0.99)),
        st.tuples(st.just("negative"), st.integers(-100, -2) | st.floats(-100.0, -1.5)),
    )
    MODEL = {"atoms": [{"u": [1.0, 0.0, 0.0], "v": [0.0, 1.0, 0.0], "w": 1.0}], "coupling": "independent"}

    def test_every_table_walked(self):
        walked = [table for _, _, _, table in self.OBJECTS]
        assert all(any(t is w for w in walked) for t in _tables())

    @pytest.mark.parametrize("command, config, path, field", FIELDS,
                             ids=[f"{c}-{'.'.join(map(str, p))}" for c, _, p, _ in FIELDS])
    @hyp_settings(max_examples=4, deadline=None)
    @given(kind=KINDS)
    @example(kind=("null", None))
    @example(kind=("boolean", True))
    @example(kind=("string", "x"))
    @example(kind=("string", "model.json"))  # a valid model file, taken only as {"file": path}
    @example(kind=("list", []))
    @example(kind=("object", {}))
    @example(kind=("nan", math.nan))
    @example(kind=("inf", math.inf))
    @example(kind=("inf", -math.inf))
    @example(kind=("fraction", 0.5))
    @example(kind=("negative", -2))
    def test_kind(self, command, config, path, field, kind):
        name, value = kind
        config = TestIntegerFields._with(config, path, value)
        takes = self.TAKES.get(field.name, set()) | ({"null"} if field.default is None else set())
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                Path("model.json").write_text(json.dumps(self.MODEL))
                Path("config.json").write_text(json.dumps(config))
                before = set(os.listdir())
                code = main([command, "--config", "config.json"])
                after = set(os.listdir())
            finally:
                os.chdir(cwd)
        assert code in (EXIT_OK, EXIT_CONFIG)
        if name not in takes:
            assert code == EXIT_CONFIG
        if code == EXIT_CONFIG:
            assert after == before


def _leaves(node, path=()):
    """The path to every number, string or boolean of a JSON document."""
    if isinstance(node, dict):
        return [leaf for key, value in node.items() for leaf in _leaves(value, path + (key,))]
    if isinstance(node, list):
        return [leaf for i, value in enumerate(node) for leaf in _leaves(value, path + (i,))]
    return [path]


def _objects(node, path=()):
    """The path to every object of a JSON document, the document itself first."""
    if isinstance(node, dict):
        return [path] + [p for key, value in node.items() for p in _objects(value, path + (key,))]
    if isinstance(node, list):
        return [p for i, value in enumerate(node) for p in _objects(value, path + (i,))]
    return []


class TestDocumentKinds:
    """A model file and a certificate take the config's type rules, kind by
    kind. From the form ``to_dict`` writes, each leaf replaced by a boolean,
    a numeric string or a list of itself, and an unknown key added to each
    object, raise ValueError; a model file so changed exits 2 through
    ``bounds``, naming the file. The documents as written read back to
    records that write them again."""

    X, Y, Z = np.eye(3)
    MODEL = LeggettModel(SubensembleDistribution(np.array([X, Y]), np.array([Y, Z]), [0.25, 0.75]),
                         Coupling.COMONOTONE)
    FEASIBLE = certify.solve(feasible_problem())
    INFEASIBLE = certify.solve(two_atom_infeasible_problem())
    DOCUMENTS = {"model": MODEL.to_dict(), "feasible": FEASIBLE.to_dict(), "infeasible": INFEASIBLE.to_dict()}
    READ = {"model": LeggettModel.from_dict, "feasible": certify.read_certificate,
            "infeasible": certify.read_certificate}

    CASES = [(doc, path, kind) for doc, data in DOCUMENTS.items() for path in _leaves(data)
             for kind in ("bool", "numeric-string", "list")]
    CASES += [(doc, path + ("extra",), "unknown-key") for doc, data in DOCUMENTS.items() for path in _objects(data)]

    def _changed(self, doc, path, kind):
        node = self.DOCUMENTS[doc]
        for key in path[:-1]:
            node = node[key]
        value = node.get(path[-1]) if isinstance(node, dict) else node[path[-1]]
        numeric_string = "1" if isinstance(value, str) else repr(value)
        new = {"bool": True, "numeric-string": numeric_string, "list": [value], "unknown-key": 0}[kind]
        return TestIntegerFields._with(self.DOCUMENTS[doc], path, new)

    def test_cases_cover_the_documents(self):
        # every leaf of every document, and the atom and witness objects
        assert sum(doc == "model" and kind == "unknown-key" for doc, _, kind in self.CASES) == 3
        assert ("feasible", ("witness", "extra"), "unknown-key") in self.CASES
        assert ("infeasible", ("farkas_ub", 0), "bool") in self.CASES

    @pytest.mark.parametrize("doc, path, kind", CASES,
                             ids=[f"{d}-{'.'.join(map(str, p))}-{k}" for d, p, k in CASES])
    def test_refused(self, tmp_path, capsys, doc, path, kind):
        data = self._changed(doc, path, kind)
        if kind == "numeric-string" and path[-1] == "grid_hash":  # any string is a grid hash
            self.READ[doc](data)
            return
        with pytest.raises(ValueError):
            self.READ[doc](data)
        if doc == "model":
            model = tmp_path / "model.json"
            model.write_text(json.dumps(data), encoding="utf-8")
            config = write_config(tmp_path, {"model": {"file": str(model)},
                                             "settings": [{"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}]})
            out = tmp_path / "bounds.json"
            assert main(["bounds", "--config", config, "--output", str(out)]) == EXIT_CONFIG
            assert f"invalid model file {model}: " in capsys.readouterr().err
            assert not out.exists()

    def test_model_reads_back(self):
        data = json.loads(json.dumps(self.DOCUMENTS["model"]))
        record = LeggettModel.from_dict(data)
        for name in ("u", "v", "w"):
            np.testing.assert_array_equal(getattr(record.distribution, name), getattr(self.MODEL.distribution, name))
        assert record.coupling is self.MODEL.coupling
        assert record.to_dict() == data

    @pytest.mark.parametrize("status", ["feasible", "infeasible"])
    def test_certificate_reads_back(self, status):
        data = json.loads(json.dumps(self.DOCUMENTS[status]))
        record = certify.read_certificate(data)
        assert type(record) is type(getattr(self, status.upper()))
        assert record.to_dict() == data
