"""Outside-in span tracing of the leggettsim layers.

The tracer replaces public functions, by name, in the module namespace
where their callers look them up (``leggettsim.optimize.solve`` is the
binding ``certified_margin`` calls, ``leggettsim.certify.solve`` the one
the CLI calls). Each wrapper records a span (name, start, end, parent)
and passes arguments and return values through unchanged, so every
output check still holds while tracing. Spans are named after the module
that defines the function, so one function seen through two namespaces
is one layer entry: ``optimize.build_problem`` records as
``certify.build_problem``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# namespace -> functions looked up there by the code under test
WRAPPED = {
    "leggettsim.optimize": ("optimize_settings", "certified_margin", "build_problem", "solve"),
    "leggettsim.certify": (
        "build_atom_grid", "build_problem", "solve", "phase1_simplex",
        "verify_certificate", "grid_hash",
    ),
    "leggettsim.montecarlo": ("sample_outcome_arrays",),
    "leggettsim.cli": ("estimate_correlation", "averaged_bounds"),
    "leggettsim.kernels": ("draw_outcomes", "abs_sum_diff"),
    "leggettsim.sphere": ("dots", "make_rng"),
    "leggettsim.models": ("isotropic_product", "exact_model_correlation"),
}

# bytes a draw moves through draw_outcomes: four float64 inputs, two outputs
DRAW_BYTES = 6 * 8


def _lp_bytes(args, problem) -> int:
    return problem.A_ub.nbytes + problem.b_ub.nbytes + problem.A_eq.nbytes + problem.b_eq.nbytes


def _tableau_bytes(args, result) -> int:
    """Size of the dense tableau phase1_simplex allocates, from its inputs:
    rows p + q by columns n + p slacks + (p + q) artificials + rhs."""
    a_ub, b_ub, _, b_eq = args[:4]
    p, q, n = len(b_ub), len(b_eq), a_ub.shape[1]
    return 8 * (p + q) * (n + p + (p + q) + 1)


def _draw_bytes(args, result) -> int:
    return DRAW_BYTES * len(args[0])


def _infeasible(args, cert) -> int:
    return int(cert.status.value == "infeasible")


# span name -> what to note about a call, computed from its arguments and result
NOTES = {
    "certify.build_problem": _lp_bytes,
    "simplex.phase1_simplex": _tableau_bytes,
    "kernels.draw_outcomes": _draw_bytes,
    "certify.solve": _infeasible,
}


class Tracer:
    """Single-threaded span recorder; spans live in memory until dumped."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, note]
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if note is not None:
                spans[idx][4] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr in names:
                fn = getattr(module, attr)
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, note."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "note": note}) + "\n")


@dataclass
class Layer:
    """Aggregates of one span name over one traced pass."""

    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    durations: list[float] = field(default_factory=list)
    notes: list = field(default_factory=list)


def summarize(spans: list[list], first: int) -> tuple[dict[str, Layer], dict[tuple[str, str], int]]:
    """Aggregate spans[first:] by name, and count (parent name, name) edges.

    A span's self time is its duration minus that of its direct children;
    the tracer is single-threaded, so children never overlap.
    """
    child_time = [0.0] * (len(spans) - first)
    edges: dict[tuple[str, str], int] = {}
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child_time[parent - first] += end - start
            key = (spans[parent][0], name)
            edges[key] = edges.get(key, 0) + 1
    layers: dict[str, Layer] = {}
    for offset, (name, start, end, _, note) in enumerate(spans[first:]):
        layer = layers.setdefault(name, Layer())
        layer.calls += 1
        layer.busy += end - start
        layer.self_time += end - start - child_time[offset]
        layer.durations.append(end - start)
        if note is not None:
            layer.notes.append(note)
    return layers, edges


def pass_metrics(layers: dict[str, Layer], edges: dict[tuple[str, str], int],
                 wall: float, cpu: float, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (percentiles are pooled elsewhere)."""
    empty = Layer()

    def get(name: str) -> Layer:
        return layers.get(name, empty)

    solves = get("certify.solve").calls
    verify = get("certify.verify_certificate")
    out = {
        "certify.verify_certificate.share": verify.busy / wall,
        "certify.verify_per_solve": verify.calls / solves if solves else 0.0,
        "certify.infeasible_frac": sum(get("certify.solve").notes) / solves if solves else 0.0,
        "certify.lp_bytes": max(get("certify.build_problem").notes, default=0),
        "simplex.tableau_bytes": max(get("simplex.phase1_simplex").notes, default=0),
        "kernels.draw_outcomes.bytes": sum(get("kernels.draw_outcomes").notes),
        "optimize.self_s": sum(l.self_time for n, l in layers.items() if n.startswith("optimize.")),
        "montecarlo.blocks": edges.get(("montecarlo.estimate_correlation", "sphere.make_rng"), 0),
        "cli.output_bytes": output_bytes,
        "process.cpu_s": cpu,
    }
    for name in ("certify.verify_certificate", "certify.solve", "certify.build_problem",
                 "simplex.phase1_simplex", "optimize.certified_margin", "kernels.abs_sum_diff",
                 "kernels.draw_outcomes", "models.sample_outcome_arrays",
                 "montecarlo.estimate_correlation", "sphere.dots"):
        out[f"{name}.calls"] = get(name).calls
    for name in ("certify.verify_certificate", "certify.build_problem", "certify.build_atom_grid",
                 "certify.grid_hash", "simplex.phase1_simplex", "kernels.abs_sum_diff",
                 "kernels.draw_outcomes", "sphere.dots", "models.isotropic_product",
                 "models.exact_model_correlation", "bounds.averaged_bounds"):
        out[f"{name}.busy_s"] = get(name).busy
    for name in ("certify.solve", "models.sample_outcome_arrays",
                 "montecarlo.estimate_correlation", "cli.main"):
        out[f"{name}.self_s"] = get(name).self_time
    return out


PERCENTILES = {
    "certify.solve": (50, 95),
    "simplex.phase1_simplex": (50,),
    "optimize.certified_margin": (50, 95),
}


def percentile_metrics(durations: dict[str, list[float]]) -> dict[str, float]:
    """Nearest-rank percentiles of span durations in ms, pooled over every
    traced pass; 0 for a layer the workload never calls."""
    out = {}
    for name, qs in PERCENTILES.items():
        values = sorted(durations.get(name, []))
        for q in qs:
            out[f"{name}.p{q}_ms"] = values[math.ceil(q / 100 * len(values)) - 1] * 1e3 if values else 0.0
    return out
