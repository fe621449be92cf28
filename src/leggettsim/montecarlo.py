"""Monte Carlo estimation of correlations with seeded streams.

The sample budget is split into fixed-size blocks, each drawn from a
disjoint counter region of the same Philox stream, so the estimate is
identical no matter how the blocks are scheduled. A block's uniforms are
one (rows, size) array, filled from the block's own generator in the
order the sampler reads them (see ``models.sample_outcome_arrays``).
With two or more blocks and two or more usable CPUs, the next block's
uniforms are drawn on one helper thread while the calling thread searches
atoms and draws outcomes for this block; Philox is counter-based, so the
draws are the same ones (Salmon et al., *Parallel random numbers: as easy
as 1, 2, 3*, SC'11). Otherwise each block is drawn inline. The calling
thread makes every generator and buffer; the helper only fills, and
stops before the estimate returns or raises.

An estimate takes a setting's ``OutcomeLaw`` (per-atom u.a and v.b, weight
CDF and its guide table), built by the caller once per setting, so the
law the blocks draw from is the one the exact values and the bounds read.
Each block's +/-1 products AB are summed exactly, as the draws minus twice
the disagreements.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import sphere
from .models import OutcomeLaw, sample_outcome_arrays

BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class CorrelationEstimate:
    """Sample mean of a +/-1 variable with its exact-form standard error."""

    mean: float
    n: int

    @property
    def se(self) -> float:
        # exact for +/-1 support: Var(X) = 1 - mean^2
        return float(np.sqrt(max(0.0, 1.0 - self.mean * self.mean) / self.n))


def _usable_cpus() -> int:
    """CPUs this process may run on; all of the host's where the OS cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fill(jobs, done) -> None:
    """Helper thread: fill each job's array from its generator, in order, until
    a job is None, and pass back each array or the exception that stopped its fill."""
    for rng, out in iter(jobs.get, None):
        try:
            rng.random(out=out)
        except Exception as exc:  # raised again on the calling thread
            out = exc
        done.put(out)


def _uniform_blocks(rows: int, n: int, seed: int, stream_id: int):
    """Each block's uniforms as a (rows, size) array from the block's own stream.

    Filled into a buffer made once per estimate, so a yielded array is
    written again by a later block. With two or more blocks and two or more
    usable CPUs, a helper thread fills the next block into the other of
    two buffers while the caller uses this one; ``close`` stops it.
    """
    sizes = [min(BLOCK_SIZE, n - offset) for offset in range(0, n, BLOCK_SIZE)]
    ahead = len(sizes) > 1 and _usable_cpus() > 1
    buffers = [np.empty(rows * sizes[0]) for _ in range(1 + ahead)]
    # the caller asks for block b once it is done with block b - 1, so one
    # buffer serves inline fills; ahead, block b fills buffer b % 2, which
    # block b - 2 is done with once block b - 1 is asked for
    fills = ((sphere.make_rng(seed, stream_id, block=block),
              buffers[block % len(buffers)][: rows * size].reshape(rows, size))
             for block, size in enumerate(sizes))
    if not ahead:
        for rng, out in fills:
            rng.random(out=out)
            yield out
        return
    # imported here, not at the top: a command that never draws two blocks
    # does not pay for the module
    from queue import SimpleQueue

    jobs, done = SimpleQueue(), SimpleQueue()
    helper = threading.Thread(target=_fill, args=(jobs, done))
    helper.start()
    try:
        jobs.put(next(fills))
        for _ in sizes:
            jobs.put(next(fills, None))  # after the last block, None stops the helper
            uniforms = done.get()
            if isinstance(uniforms, Exception):
                raise uniforms
            yield uniforms
    finally:
        jobs.put(None)
        helper.join()


def estimate_correlation(law: OutcomeLaw, n: int, seed: int, stream_id: int = 0) -> CorrelationEstimate:
    """Estimate E(AB) from n draws of ``law``; deterministic given (seed, stream_id)."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    blocks = _uniform_blocks(law.rows, n, seed, stream_id)
    sum_ab = 0
    try:
        for uniforms in blocks:
            a, b = sample_outcome_arrays(law, uniforms)
            # AB is 1 where the outcomes agree and -1 where they differ
            sum_ab += a.size - 2 * np.count_nonzero(a != b)
    finally:
        blocks.close()
    return CorrelationEstimate(sum_ab / n, n)
