"""Layer calls of ``simulate``, ``bounds`` and ``certify``, traced by the
benchmark's tracer.

perfbench/tracing.py is loaded from its file under a private name, by the
``perfbench`` fixture of conftest.py, and is not changed. Each setting's
atoms are projected once (two ``sphere.dots`` calls: u.a and v.b), and each
layer the tracer wraps in the CLI is called once per setting, so the
benchmark's per-layer spans stay filled. A ``certify`` call builds and
hashes its grid once and projects each distinct setting once. An
``optimize`` call solves each evaluated point once per grid, plus the best
point once more, and verifies each certificate once: the counts the
benchmark's optimizer workload checks its traced passes against.
"""

import functools
import json

import pytest

from leggettsim import certify
from leggettsim.cli import EXIT_OK, main
from leggettsim.montecarlo import BLOCK_SIZE

SETTINGS = 2
CONFIG = {
    "model": {"generator": "isotropic", "atoms": 50, "coupling": "comonotone"},
    "settings": {"random": SETTINGS},
}


@pytest.fixture
def tracing(perfbench):
    return perfbench[0]


def _traced(tracing, tmp_path, command: str, config: dict):
    """Calls per span name, and (parent, child) edge counts, of one CLI run."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main([command, "--config", str(path), "--output", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == EXIT_OK
    layers, edges = tracing.summarize(tracer.spans, 0)
    return {name: layer.calls for name, layer in layers.items()}, edges


def test_simulate_projects_each_setting_once(tracing, tmp_path):
    # two blocks per setting
    calls, edges = _traced(tracing, tmp_path, "simulate", {**CONFIG, "samples": BLOCK_SIZE + 1})
    assert calls["sphere.dots"] == 2 * SETTINGS
    assert calls["montecarlo.estimate_correlation"] == SETTINGS
    assert calls["bounds.averaged_bounds"] == SETTINGS
    assert calls["models.exact_model_correlation"] == SETTINGS
    assert calls["models.sample_outcome_arrays"] == 2 * SETTINGS
    assert edges[("montecarlo.estimate_correlation", "sphere.make_rng")] == 2 * SETTINGS


def test_bounds_projects_each_setting_once(tracing, tmp_path):
    calls, _ = _traced(tracing, tmp_path, "bounds", CONFIG)
    assert calls["sphere.dots"] == 2 * SETTINGS
    assert calls["bounds.averaged_bounds"] == SETTINGS
    assert calls["models.exact_model_correlation"] == SETTINGS
    assert "montecarlo.estimate_correlation" not in calls


def test_certify_builds_each_layer_once(tracing, tmp_path, monkeypatch):
    read, verified = [], []
    read_certificate, verify_certificate = certify.read_certificate, certify.verify_certificate

    def counted_read(data):
        read.append(read_certificate(data))
        return read[-1]

    @functools.wraps(verify_certificate)  # the tracer names its span after the wrapped function
    def recorded_verify(problem, cert):
        verified.append(cert)
        return verify_certificate(problem, cert)

    monkeypatch.setattr(certify, "read_certificate", counted_read)
    monkeypatch.setattr(certify, "verify_certificate", recorded_verify)
    # the six orthogonal doublets share three settings a among them
    calls, _ = _traced(tracing, tmp_path, "certify", {
        "targets": {"from": "singlet", "family": "orthogonal-doublets", "params": [0.94, 3.46, 2.11, 2.34]},
        "grid": {"n_u": 8, "n_v": 8, "n_mirrored": 16},
    })
    assert calls["certify.build_atom_grid"] == 1
    assert calls["certify.grid_hash"] == 1
    assert calls["sphere.dots"] == 9
    assert calls["kernels.abs_sum_diff"] == 6
    assert calls["certify.solve"] == 1
    # solve verifies the record it built; cmd_certify verifies the record
    # read_certificate reads back from the certificate as written
    assert calls["certify.verify_certificate"] == 2
    assert len(read) == 1
    assert verified[0] is not read[0] and verified[1] is read[0]


def test_optimize_solves_each_point_once_per_grid(tracing, tmp_path):
    budget, grids = 5, [{"n_u": 4, "n_v": 4, "n_mirrored": 8}, {"n_u": 6, "n_v": 6, "n_mirrored": 8}]
    calls, _ = _traced(tracing, tmp_path, "optimize", {
        "family": "orthogonal-doublets", "budget": budget, "grids": grids,
    })
    evaluations = budget + 1  # the best point is evaluated again for the report
    assert calls["optimize.certified_margin"] == evaluations
    for name in ("certify.build_problem", "certify.solve", "simplex.phase1_simplex",
                 "certify.verify_certificate"):
        assert calls[name] == evaluations * len(grids), name
