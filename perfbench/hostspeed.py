"""Host-speed probes: a fixed reference kernel timed during every pass.

On a shared host, neighbours slow the whole processor by up to about 1.5x
for seconds to minutes at a time; process CPU time slows with wall time,
so it is no way round. The probe runs a fixed mix of interpreter work
over numpy scalars (the exact sums of certificate checks), small-array
numpy updates, random draws and a stream over an array larger
than one core's L2, the kinds of work the leggettsim layers do, and a
slow period stretches it as it stretches the program. The harness times
each pass with the probes taken out and scales it by ``NOMINAL_S`` over
the mean probe time of that pass, raised to the workload's own exponent:
its wall time at the reference host speed. Workloads slow by different
powers of the probe's slowdown: over 20 runs of 30 s each on a 2-vCPU
Xeon VM, log pass time against log probe time had slopes of 1.22 for
optimize-doublets, 1.10 for certify-refine and 0.72 for simulate-mc
(vectorised numpy). The exponents are 1.2, 1.2 and 0.7, certify-refine's
rounded up because noise in a pass's probe mean flattens a fitted slope;
with exponent 1 the spread of ten runs reached 10%, with these 5%.
The exponent sets only how host speed is taken out: at any host speed,
a change that makes the program 10% slower makes the number 10% larger.
A change of host speed mostly cancels. The mean, not the median, of a
pass's probes, because the pass's own time adds up every slow moment.
Over ten 30 s runs per workload with busy neighbours, the interquartile
spread of the median raw pass reached 46% of its median; a run-wide ratio
of median pass to median probe did about half as well as a per-pass one.

The probe code is the benchmark's own and never calls leggettsim, so no
change to the program can make it faster or slower, except through
threads the program leaves running (``process.cpu_s`` in the traced run
flags those).
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time

import numpy as np

# median probe time on the reference host: 2 vCPUs of an Intel Xeon VM
NOMINAL_S = 0.002
EVERY_S = 0.1  # least time between two probes inside a pass
BRACKET = 3  # probes at each end of a pass

_CLOCK = time.perf_counter


class ReferenceKernel:
    """A fixed amount of work that allocates no array. Arrays this large
    are mapped afresh on each allocation, and how many pages fault then
    depends on the allocator state the program left, which made single
    probes up to three times slower; so every array is made here, once."""

    def __init__(self):
        self.row = np.linspace(-1.0, 1.0, 4096)
        self.tableau = np.linspace(0.0, 1.0, 128 * 256).reshape(128, 256)
        self.column = np.linspace(1.0, 2.0, 128)
        self.stream = np.linspace(0.0, 1.0, 1 << 18)  # 2 MiB of float64
        self.work = np.empty_like(self.tableau)
        self.outer = np.empty_like(self.tableau)
        self.draws = np.empty(65536)
        self.stream_out = np.empty_like(self.stream)

    def __call__(self) -> float:
        total = math.fsum(float(a) * float(b) for a, b in zip(self.row, self.row))
        work, outer, draws = self.work, self.outer, self.draws
        np.copyto(work, self.tableau)
        for row in range(10):
            np.multiply.outer(self.column, work[row], out=outer)
            np.multiply(outer, 1e-3, out=outer)
            np.subtract(work, outer, out=work)
        np.random.default_rng(12345).random(out=draws)
        np.subtract(draws, 0.5, out=draws)
        np.abs(draws, out=draws)
        np.multiply(self.stream, 0.5, out=self.stream_out)
        return total + float(work.sum() + draws.sum() + self.stream_out[-1])


class HostSpeed:
    """Probes at both ends of a pass and, when ``inflight`` is set, at entry
    to one function the workload calls often, at most every ``EVERY_S``.
    The function is wrapped in the namespace where its callers look it up.
    """

    def __init__(self, module_name: str, attr: str):
        self.samples: list[float] = []  # probe times of the current pass
        self.probe_s = 0.0  # probe time inside the current pass
        self.inflight = True
        self._kernel = ReferenceKernel()
        for _ in range(BRACKET):  # first-call effects stay out of the samples
            self._kernel()
        self._last = _CLOCK()
        self._module = importlib.import_module(module_name)
        self._attr = attr
        self._original = getattr(self._module, attr, None)
        if self._original is None:
            print(f"perfbench: {module_name}.{attr} not found; probes only at pass ends", file=sys.stderr)
            return
        fn = self._original

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if self.inflight and _CLOCK() - self._last >= EVERY_S:
                self.probe()
            return fn(*args, **kwargs)

        setattr(self._module, attr, probed)

    def probe(self) -> None:
        """Time the kernel once its data is back in cache: the program's
        own data evicts it between probes, which would otherwise add a
        cold-cache cost that depends on what the program did just before."""
        t0 = _CLOCK()
        self._kernel()
        t1 = _CLOCK()
        self._kernel()
        self._last = _CLOCK()
        self.samples.append(self._last - t1)
        self.probe_s += self._last - t0

    def bracket(self) -> None:
        """Probes at a pass boundary, outside the timed program."""
        for _ in range(BRACKET):
            self.probe()

    def start_pass(self) -> None:
        self.samples = []
        self.bracket()
        self.probe_s = 0.0

    def end_pass(self) -> None:
        before = self.probe_s
        self.bracket()
        self.probe_s = before

    def close(self) -> None:
        if self._original is not None:
            setattr(self._module, self._attr, self._original)


def at_reference(passes: list[dict], exponent: float) -> float:
    """Median over passes of wall time times (``NOMINAL_S`` over the mean
    probe time of the same pass) to the workload's ``exponent``."""
    return statistics.median(p["wall"] * (NOMINAL_S / statistics.fmean(p["probes"])) ** exponent
                             for p in passes)
