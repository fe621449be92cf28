"""The derivation chain: pointwise identity, conditional and averaged bounds.

For +/-1 outcomes, -1 + |A+B| = AB = 1 - |A-B| holds pointwise. Taking
conditional expectations given (u, v) and then averaging over the
subensemble distribution turns this into two-sided bounds on E(AB) that
every model with Malus-law conditional marginals must satisfy. They read
only the weights and each atom's u.a and v.b from a setting's
``OutcomeLaw``: no coupling, and no further assumption, enters them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, sphere
from .models import OutcomeLaw, SettingsPair

DEFAULT_K_SIGMA = 4.0


@dataclass(frozen=True)
class LeggettBounds:
    """Two-sided bounds on a correlation; lower <= upper always holds
    because |x+y| + |x-y| <= 2 for x, y in [-1, 1]."""

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


def conditional_bounds(u, v, settings: SettingsPair) -> LeggettBounds:
    """Bounds on E(AB | u, v): -1 + |u.a + v.b| <= E(AB|u,v) <= 1 - |u.a - v.b|."""
    alpha = sphere.dot(u, settings.a)
    beta = sphere.dot(v, settings.b)
    return LeggettBounds(lower=-1.0 + abs(alpha + beta), upper=1.0 - abs(alpha - beta))


def averaged_bounds(law: OutcomeLaw) -> LeggettBounds:
    """Bounds on E(AB) with the integrals reduced to atom-weighted sums of
    the law's ``alpha`` = u.a and ``beta`` = v.b; its coupling is not read."""
    plus, minus = kernels.abs_sum_diff(law.alpha, law.beta)
    return LeggettBounds(lower=-1.0 + float(law.w @ plus), upper=1.0 - float(law.w @ minus))


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
