"""Monte Carlo estimation of correlations and marginals with seeded streams.

The sample budget is split into fixed-size blocks, each drawn from a
disjoint counter region of the same Philox stream, so the estimate is
identical no matter how the blocks are scheduled. The sampling law (per-atom
Malus marginals, weight CDF and its guide table) is built once per estimate
and shared by all its blocks. Each block's +/-1 int8 outcomes are summed
exactly in int64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sphere
from .models import LeggettModel, SettingsPair, outcome_law, sample_outcome_arrays

BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class CorrelationEstimate:
    """Sample mean of a +/-1 variable with its exact-form standard error."""

    mean: float
    n: int
    se: float

    @classmethod
    def from_mean(cls, mean: float, n: int) -> "CorrelationEstimate":
        # exact for +/-1 support: Var(X) = 1 - mean^2
        se = float(np.sqrt(max(0.0, 1.0 - mean * mean) / n))
        return cls(mean=mean, n=n, se=se)


def _sample_sums(
    model: LeggettModel, settings: SettingsPair, n: int, seed: int, stream_id: int
) -> tuple[int, int, int]:
    """Integer sums of AB, A, B over n draws (exact, order-independent)."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    sum_ab = 0
    sum_a = 0
    sum_b = 0
    law = outcome_law(model, settings)
    offset = 0
    block = 0
    while offset < n:
        m = min(BLOCK_SIZE, n - offset)
        rng = sphere.make_rng(seed, stream_id, block=block)
        a, b = sample_outcome_arrays(law, m, rng)
        sum_ab += int(np.sum(a * b, dtype=np.int64))
        sum_a += int(np.sum(a, dtype=np.int64))
        sum_b += int(np.sum(b, dtype=np.int64))
        offset += m
        block += 1
    return sum_ab, sum_a, sum_b


def estimate_correlation(
    model: LeggettModel, settings: SettingsPair, n: int, seed: int, stream_id: int = 0
) -> CorrelationEstimate:
    """Estimate E(AB) from n draws; deterministic given (seed, stream_id)."""
    sum_ab, _, _ = _sample_sums(model, settings, n, seed, stream_id)
    return CorrelationEstimate.from_mean(sum_ab / n, n)


def estimate_marginals(
    model: LeggettModel, settings: SettingsPair, n: int, seed: int, stream_id: int = 0
) -> tuple[CorrelationEstimate, CorrelationEstimate]:
    """Estimate (E(A), E(B)) from the same n draws."""
    _, sum_a, sum_b = _sample_sums(model, settings, n, seed, stream_id)
    return (
        CorrelationEstimate.from_mean(sum_a / n, n),
        CorrelationEstimate.from_mean(sum_b / n, n),
    )
