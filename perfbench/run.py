#!/usr/bin/env python3
"""leggettsim benchmark: one workload per process, run in-process through
``leggettsim.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload optimize-doublets --seed 2026 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The load is a closed loop with one client: one CLI call at a time, no
threads of the benchmark's own, and OpenBLAS on one thread unless
``OPENBLAS_NUM_THREADS`` says otherwise. A run imports the package,
writes its inputs from ``--seed``, makes one untimed warm-up pass, then
repeats passes until ``--seconds`` have elapsed.

On a shared two-core host, neighbours slow the whole processor by up to
about 1.5x for minutes at a time, which raw times would measure instead
of the program. So a fixed reference kernel is timed at both ends of
every pass and, about every 0.1 s, at entry to one function the workload
calls often (see hostspeed.py); the probes are taken out of the pass
times, and each pass is scaled to the reference host speed by its own
probes. ``wall_ref_s`` is the median scaled pass. ``setup_s`` is the
import and input generation (medians of three) plus the scaled warm-up
pass. Raw pass times and probes go to
``.perfbench/<workload>-seed<seed>-trace<0|1>.passes.json``. Every call's
output is checked; a call fails if it raises, exits non-zero, misses a
pin or differs from its warm-up output.

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics; spans are written to
``.perfbench/<workload>-seed<seed>.spans.jsonl``. The last line of
standard output is the result object. ``--workload all`` runs each
workload, untraced and then traced, in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("optimize-doublets", "certify-refine", "simulate-mc")
SETUP_SAMPLES = 3  # imports (the run's own plus fresh interpreters) and input generations
# One OpenBLAS thread unless the caller chose: on two vCPUs the second
# thread spins after every BLAS call and, in slow host periods, made
# simulate-mc passes 1.3x slower and host-speed probes up to 3x slower.
# Set before numpy loads; fresh interpreters inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
IMPORT_PROBE = "import time; t = time.perf_counter(); import leggettsim.cli; print(time.perf_counter() - t)"


class CountingSink:
    """Stands in for stdout during a CLI call and counts what it writes."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def provenance() -> dict:
    import numpy
    import workloads
    from leggettsim import __version__, kernels

    cpu_model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": workloads.blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": kernels.numba_enabled(),
        "LEGGETTSIM_DISABLE_NUMBA": os.environ.get("LEGGETTSIM_DISABLE_NUMBA"),
        "leggettsim": __version__,
    }


def import_seconds(own: float) -> float:
    """Median package import time over the run's own import and fresh interpreters."""
    samples = [own]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


class Runner:
    """Runs and checks the passes of one workload."""

    def __init__(self, cli_main, workload, speed, tracer=None):
        self.cli_main = cli_main
        self.workload = workload
        self.speed = speed
        self.tracer = tracer
        self.reference: list[str] | None = None  # output digests of the warm-up pass
        self.attempted = 0
        self.failed = 0

    def _call(self, op, sink):
        try:
            with contextlib.redirect_stdout(sink):
                return self.cli_main(op.argv)
        except (Exception, SystemExit) as exc:  # a failing call is counted, not fatal
            traceback.print_exc()
            return exc

    def run_pass(self, traced: bool = False) -> dict:
        """One pass: every op once, timed; then every output checked.

        A traced pass takes no probes inside the program, so that none
        falls inside a span; its speed comes from the probes at its ends.
        """
        for op in self.workload.ops:
            op.output.unlink(missing_ok=True)
        sinks = [CountingSink() for _ in self.workload.ops]
        codes = []
        self.speed.inflight = not traced
        self.speed.start_pass()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for op, sink in zip(self.workload.ops, sinks):
            if traced:
                with self.tracer.span("cli.main"):
                    codes.append(self._call(op, sink))
            else:
                codes.append(self._call(op, sink))
        wall = time.perf_counter() - t0 - self.speed.probe_s
        cpu = time.process_time() - cpu0 - self.speed.probe_s
        self.speed.end_pass()

        digests, output_bytes = [], sum(s.chars for s in sinks)
        for i, (op, code) in enumerate(zip(self.workload.ops, codes)):
            self.attempted += 1
            digests.append(None)
            if code != 0:
                problem = f"exit code {code!r}"
            elif not op.output.is_file():
                problem = "no output written"
            else:
                data = op.output.read_bytes()
                output_bytes += len(data)
                digests[i] = hashlib.sha256(data).hexdigest()
                if self.reference is not None and digests[i] != self.reference[i]:
                    problem = "output differs from the warm-up pass"
                else:
                    try:
                        problem = op.check(data)
                    except (ValueError, KeyError, TypeError) as exc:
                        problem = f"malformed output: {exc!r}"
            if problem:
                self.failed += 1
                print(f"FAIL {op.argv[0]} {op.output.name}: {problem}", file=sys.stderr)
        if self.reference is None:
            self.reference = digests
        return {"wall": wall, "probes": self.speed.samples, "cpu": cpu, "output_bytes": output_bytes}


def run_workload(args) -> int:
    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import leggettsim.cli
    own_import = time.perf_counter() - t_import
    import hostspeed
    import tracing
    import workloads

    if not Path(leggettsim.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported leggettsim from {leggettsim.cli.__file__}, not from {SRC}")
    metrics_spec = declared_metrics()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        gen_samples = []
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            gen_samples.append(time.perf_counter() - t0)
        tracer = tracing.Tracer() if args.trace else None
        speed = hostspeed.HostSpeed(*workload.probe_at)
        runner = Runner(leggettsim.cli.main, workload, speed, tracer)
        warmup = runner.run_pass()
        import_s = import_seconds(own_import)
        warmup_s = hostspeed.at_reference([warmup], workload.speed_exponent)
        setup_s = import_s + statistics.median(gen_samples) + warmup_s

        plain, traced, traced_metrics, durations = [], [], [], {}
        deadline = time.perf_counter() + args.seconds
        while not plain or (args.trace and not traced) or time.perf_counter() < deadline:
            if args.trace and len(traced) < len(plain):
                tracer.install()
                first = len(tracer.spans)
                try:
                    result = runner.run_pass(traced=True)
                finally:
                    tracer.uninstall()
                traced.append(result)
                layers, edges = tracing.summarize(tracer.spans, first)
                traced_metrics.append(tracing.pass_metrics(
                    layers, edges, result["wall"], result["cpu"], result["output_bytes"]))
                for name, layer in layers.items():
                    durations.setdefault(name, []).extend(layer.durations)
            else:
                plain.append(runner.run_pass())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        speed.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.passes.json"
    passes_path.write_text(json.dumps({
        kind: [{"wall": p["wall"], "cpu": p["cpu"], "probes": p["probes"]} for p in group]
        for kind, group in (("warmup", [warmup]), ("plain", plain), ("traced", traced))
    }), encoding="utf-8")
    walls = sorted(p["wall"] for p in plain)
    probe_ms = 1e3 * statistics.median(t for p in plain for t in p["probes"])
    wall_ref_s = hostspeed.at_reference(plain, workload.speed_exponent)
    e2e = {
        "setup_s": setup_s,
        "wall_ref_s": wall_ref_s,
        "items_per_s": workload.items_per_pass / wall_ref_s,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {workload.name} seed {args.seed}: {len(workload.ops)} CLI call(s) per pass, "
          f"1 warm-up pass, {len(plain)} timed pass(es), {len(traced)} traced pass(es)")
    print(f"provenance {json.dumps(provenance(), sort_keys=True)}")
    print(f"  setup_s = {setup_s:.4f} s (import {import_s:.4f} s, inputs {statistics.median(gen_samples):.4f} s, "
          f"warm-up pass {warmup_s:.4f} s at reference speed, {warmup['wall']:.4f} s raw)")
    print(f"  wall_ref_s = {wall_ref_s:.4f} s (median of {len(plain)} timed passes at reference speed; "
          f"raw passes: fastest {walls[0]:.4f}, median {statistics.median(walls):.4f}, max {walls[-1]:.4f} s; "
          f"median probe {probe_ms:.4f} ms, nominal {1e3 * hostspeed.NOMINAL_S:g} ms, "
          f"exponent {workload.speed_exponent:g})")
    print(f"  passes: raw times and probes written to {passes_path.relative_to(ROOT)}")
    print(f"  items_per_s = {e2e['items_per_s']:.6g} 1/s ({workload.items_name}: "
          f"{workload.items_per_pass} per pass)")
    print(f"  peak_rss_mb = {peak_rss_mb:.1f} MB")
    print(f"  fail_frac = {runner.failed / runner.attempted:g} ratio ({runner.failed} of {runner.attempted} calls)")

    correct = runner.failed == 0
    if args.trace:
        layer = {name: statistics.median_low(m[name] for m in traced_metrics) for name in traced_metrics[0]}
        layer.update(tracing.percentile_metrics(durations))
        # each traced pass against the untraced pass just before it, so both
        # ran at much the same host speed
        layer["trace.overhead_frac"] = statistics.median(
            t["wall"] / p["wall"] for t, p in zip(traced, plain)) - 1.0
        for name, want in workload.expected.items():
            got = [m[name] for m in traced_metrics]
            if any(g != want for g in got):
                correct = False
                print(f"TRACE COUNT {name}: expected {want} per pass, got {got}", file=sys.stderr)
        trace_path = OUT / f"{workload.name}-seed{args.seed}.spans.jsonl"
        tracer.dump(trace_path)
        print(f"  spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        print(f"  certify.infeasible_frac = {layer['certify.infeasible_frac']:g} ratio")
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in metrics_spec["per_layer"]}
        for name, entry in metrics.items():
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in metrics_spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, untraced and then traced."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            status |= subprocess.run(cmd, cwd=ROOT, timeout=900).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "leggettsim" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} holds no leggettsim sources under src/ or no BENCHMARK.json; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
