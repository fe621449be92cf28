"""Monte Carlo estimation of correlations with seeded streams.

The sample budget is split into fixed-size blocks, each drawn from a
disjoint counter region of the same Philox stream (Salmon et al.,
*Parallel random numbers: as easy as 1, 2, 3*, SC'11), so the estimate is
identical no matter which thread fills a block. A block's uniforms are one
(rows, size) array, filled from the block's own generator in the order the
sampler reads them (see ``models.sample_outcome_arrays``). The calling
thread fills block 0; while it searches atoms and draws outcomes for block
b, one worker thread fills block b + 1 into the other of two buffers.
A fill (``Generator.random(out=...)``) runs outside the GIL, so it
overlaps the calling thread's work, but only while a second CPU is free.
An estimate holds those two buffers and at most one pending fill,
whatever n, and keeps nothing per block: block b's view of buffer b % 2
and its generator are made when its fill is queued. The calling thread
makes every generator and buffer; the worker only fills, and is joined
before the estimate returns or raises. A one-block estimate starts no
thread.

An estimate takes a setting's ``OutcomeLaw`` (per-atom u.a and v.b, weight
CDF and its guide table), built by the caller once per setting, so the
law the blocks draw from is the one the exact values and the bounds read.
Each block's +/-1 products AB are summed exactly, as the draws minus twice
the disagreements; an estimate returns the mean of those sums, a float.
"""

from __future__ import annotations

import math

import numpy as np

from . import sphere
from .models import OutcomeLaw, sample_outcome_arrays

BLOCK_SIZE = 1 << 16


def standard_error(x: float, n: int) -> float:
    """sqrt((1 - x^2)/n): the standard error of the mean of n draws of a
    +/-1 variable with mean x, exact since its variance is 1 - x^2."""
    return math.sqrt(max(0.0, 1.0 - x * x) / n)


def estimate_correlation(law: OutcomeLaw, n: int, seed: int, stream_id: int = 0) -> float:
    """The mean of AB over n draws of ``law``; deterministic given (seed, stream_id)."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    # imported here, not at the top, so importing the CLI does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    blocks = -(-n // BLOCK_SIZE)
    buffers = [np.empty(law.rows * min(BLOCK_SIZE, n)) for _ in range(min(blocks, 2))]

    def view(block):
        return buffers[block % 2][: law.rows * min(BLOCK_SIZE, n - block * BLOCK_SIZE)].reshape(law.rows, -1)

    sum_ab = 0
    with ThreadPoolExecutor(max_workers=1) as worker:
        uniforms = view(0)
        sphere.make_rng(seed, stream_id, block=0).random(out=uniforms)
        for block in range(blocks):
            if block + 1 < blocks:
                # block + 1's buffer was last read by block - 1, sampled already
                ahead = view(block + 1)
                filled = worker.submit(sphere.make_rng(seed, stream_id, block=block + 1).random, out=ahead)
            a, b = sample_outcome_arrays(law, uniforms)
            sum_ab += a.size - 2 * np.count_nonzero(a != b)
            if block + 1 < blocks:
                filled.result()  # raises here what the fill raised
                uniforms = ahead
    return float(sum_ab / n)
