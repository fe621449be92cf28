"""The names the benchmark harness looks up in the package still resolve.

perfbench/tracing.py wraps functions by name in the namespaces their
callers use, and names each span after the module that defines the
function; perfbench/workloads.py pins per-pass counts of some of those
spans. Moving a function between modules breaks only a traced benchmark
run, so these tests read both files (without changing them, through the
``perfbench`` fixture of conftest.py) and check the names against the
package. The output checks a workload pins at its default seed run here
too, on one traced pass of its CLI calls, with the per-pass counts that
perfbench/run.py --trace 1 checks.
"""

import importlib

import numpy as np
import pytest

from leggettsim import certify, cli, kernels
from leggettsim.models import SettingsPair

# pinned per-pass metrics that tracing.pass_metrics derives from spans
# other than the one in their name, and the spans each reads
DERIVED = {
    "certify.verify_per_solve": ("certify.verify_certificate", "certify.solve"),
    "certify.infeasible_frac": ("certify.solve",),
    "montecarlo.blocks": ("montecarlo.estimate_correlation", "sphere.make_rng"),
}


@pytest.fixture(scope="module")
def workloads(perfbench, tmp_path_factory):
    _, wl = perfbench
    workdir = tmp_path_factory.mktemp("perfbench")
    return [make(wl.DEFAULT_SEED, workdir) for make in wl.WORKLOADS.values()]


def _span_name(tracer, fn) -> str:
    """The span the tracer records for a call of fn: the wrapper is called
    with a keyword fn does not take, so fn fails before its body runs."""
    with pytest.raises(TypeError):
        tracer._wrap(fn)(_not_an_argument=None)
    return tracer.spans[-1][0]


def _wrapped(tracing):
    for module_name, names in tracing.WRAPPED.items():
        module = importlib.import_module(module_name)
        for name in names:
            yield module_name, name, getattr(module, name, None)


def test_wrapped_names_resolve(perfbench):
    tracing, _ = perfbench
    missing = [f"{module}.{name}" for module, name, fn in _wrapped(tracing) if not callable(fn)]
    assert missing == []


def test_pinned_spans_are_traced(perfbench, workloads):
    tracing, _ = perfbench
    tracer = tracing.Tracer()
    traced = {_span_name(tracer, fn) for _, _, fn in _wrapped(tracing)}
    for workload in workloads:
        for metric in workload.expected:
            if metric in DERIVED:
                spans = DERIVED[metric]
            else:
                assert metric.endswith(".calls"), f"{workload.name}: no span known for {metric}"
                spans = (metric.removesuffix(".calls"),)
            assert set(spans) <= traced, f"{workload.name} pins {metric}, but no wrapped function records {spans}"


def test_probe_points_resolve(workloads):
    for workload in workloads:
        module_name, name = workload.probe_at
        assert callable(getattr(importlib.import_module(module_name), name, None)), workload.name


def test_solve_note_reads_the_verdict(perfbench):
    # the certify.solve span notes whether each certificate is infeasible,
    # from cert.status.value; certify.infeasible_frac is their mean
    tracing, _ = perfbench
    x, y = np.eye(3)[:2]
    grid = certify.AtomGrid(np.array([x, y]), np.array([x, y]))
    notes = []
    # two pairs, each aligned with one atom: at E = -0.5 no weighting fits
    for e in (0.0, -0.5):
        targets = [certify.TargetConstraint(SettingsPair(s, s), e) for s in (x, y)]
        cert = certify.solve(certify.build_problem(grid, targets))
        notes.append((type(cert), tracing.NOTES["certify.solve"](None, cert)))
    assert notes == [(certify.Witness, 0), (certify.Farkas, 1)]


@pytest.mark.parametrize("name", ["optimize-doublets", "certify-refine", "simulate-mc"])
def test_workload_outputs_pass_their_checks(perfbench, tmp_path, name):
    # one traced pass, as perfbench/run.py --trace 1 runs it: every output
    # passes its check (the margin pins of optimize-doublets and
    # certify-refine, the CSV sha256 of simulate-mc), and the pass shows
    # the per-pass counts the workload expects
    tracing, wl = perfbench
    workload = wl.WORKLOADS[name](wl.DEFAULT_SEED, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in workload.ops:
            with tracer.span("cli.main"):
                assert cli.main(op.argv) == cli.EXIT_OK, op.argv
    finally:
        tracer.uninstall()
    for op in workload.ops:
        assert op.check(op.output.read_bytes()) is None, op.argv
    # wall and cpu time and output size enter no pinned metric
    metrics = tracing.pass_metrics(*tracing.summarize(tracer.spans, 0), 1.0, 0.0, 0)
    assert {metric: metrics[metric] for metric in workload.expected} == workload.expected


def test_provenance_stub():
    # perfbench/run.py records it in every result's provenance
    assert kernels.numba_enabled() is False
