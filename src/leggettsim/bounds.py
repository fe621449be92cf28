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

from dataclasses import dataclass

from . import kernels
from .models import OutcomeLaw


@dataclass(frozen=True)
class LeggettBounds:
    """Two-sided bounds on a correlation, with lower <= upper. That holds in
    exact arithmetic, because |x+y| + |x-y| <= 2 for x, y in [-1, 1];
    ``averaged_bounds`` keeps it in float64, where the two sums can round
    across each other."""

    lower: float
    upper: float


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
