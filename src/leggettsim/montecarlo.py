"""Monte Carlo estimation of correlations with seeded streams.

The sample budget is split into fixed-size blocks, each drawn from a
disjoint counter region of the same Philox stream, so the estimate is
identical no matter how the blocks are scheduled. An estimate takes a
setting's ``OutcomeLaw`` (per-atom Malus marginals, weight CDF and its guide
table), built by the caller once per setting, so the law the blocks draw
from is the one the exact values and the bounds read. Each block's +/-1
products AB are summed exactly in int64.
"""

from __future__ import annotations

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


def estimate_correlation(law: OutcomeLaw, n: int, seed: int, stream_id: int = 0) -> CorrelationEstimate:
    """Estimate E(AB) from n draws of ``law``; deterministic given (seed, stream_id)."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    sum_ab = 0
    for block, offset in enumerate(range(0, n, BLOCK_SIZE)):
        rng = sphere.make_rng(seed, stream_id, block=block)
        a, b = sample_outcome_arrays(law, min(BLOCK_SIZE, n - offset), rng)
        sum_ab += int(np.sum(a * b, dtype=np.int64))
    return CorrelationEstimate(sum_ab / n, n)
