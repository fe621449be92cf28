"""The derivation chain: pointwise identity, conditional and averaged bounds.

For +/-1 outcomes, -1 + |A+B| = AB = 1 - |A-B| holds pointwise. Taking
conditional expectations given (u, v) turns it into
-1 + |u.a + v.b| <= E(AB|u,v) <= 1 - |u.a - v.b|, and averaging that over
the subensemble distribution into two-sided bounds on E(AB) that every
model with Malus-law conditional marginals must satisfy. ``averaged_bounds``
forms those averages from a setting's ``OutcomeLaw``, reading only the
weights and each atom's u.a and v.b: no coupling, and no further
assumption, enters them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .models import OutcomeLaw

DEFAULT_K_SIGMA = 4.0


@dataclass(frozen=True)
class LeggettBounds:
    """Two-sided bounds on a correlation, with lower <= upper. That holds in
    exact arithmetic, because |x+y| + |x-y| <= 2 for x, y in [-1, 1];
    ``averaged_bounds`` keeps it in float64, where the two sums can round
    across each other."""

    lower: float
    upper: float


@dataclass(frozen=True)
class BoundsVerdict:
    satisfied: bool
    margin: float  # distance to the nearest bound before allowance; negative when outside


def pointwise_identity(a_outcome: int, b_outcome: int) -> tuple[float, float, float]:
    """Evaluate (-1 + |A+B|, AB, 1 - |A-B|) for one outcome pair."""
    if a_outcome not in (-1, 1) or b_outcome not in (-1, 1):
        raise ValueError("outcomes must be -1 or +1")
    lhs = -1.0 + abs(a_outcome + b_outcome)
    mid = float(a_outcome * b_outcome)
    rhs = 1.0 - abs(a_outcome - b_outcome)
    return lhs, mid, rhs


def averaged_bounds(law: OutcomeLaw) -> LeggettBounds:
    """Bounds on E(AB) with the integrals reduced to atom-weighted sums of
    the law's ``alpha`` = u.a and ``beta`` = v.b; its coupling is not read.
    Clamped like ``exact_model_correlation``: a weight sum a few ulps over 1
    must not put ``lower`` above 1. ``upper`` is raised to ``lower`` where
    rounding crosses them (at u = a, |1 + beta| and |1 - beta| round apart
    by an ulp); widening a bound is conservative. As ``lower`` is at least
    -1, that also clamps ``upper`` at -1."""
    plus, minus = kernels.abs_sum_diff(law.alpha, law.beta)
    lower = min(1.0, -1.0 + float(law.w @ plus))
    return LeggettBounds(lower=lower, upper=max(lower, 1.0 - float(law.w @ minus)))


def check_bounds(value: float, se: float, b: LeggettBounds, k_sigma: float = DEFAULT_K_SIGMA) -> BoundsVerdict:
    """Compare a (possibly noisy) correlation against bounds with a
    k_sigma * se statistical allowance."""
    # written so that NaN fails: every comparison with NaN is False
    if not (0.0 <= se < math.inf and 0.0 <= k_sigma < math.inf):
        raise ValueError("se and k_sigma must be finite and nonnegative")
    allowance = k_sigma * se
    satisfied = (b.lower - allowance <= value) and (value <= b.upper + allowance)
    margin = min(value - b.lower, b.upper - value)
    return BoundsVerdict(satisfied=satisfied, margin=margin)
