"""Elementwise numpy kernels for sampling and the bound integrals.

Outcome draws come back as +/-1 int8 arrays, built from the comparison
masks. Aggregation (means, weighted sums) happens in the callers.
"""

from __future__ import annotations

import numpy as np

COUPLING_INDEPENDENT = 0
COUPLING_COMONOTONE = 1
COUPLING_ANTIMONOTONE = 2


def numba_enabled() -> bool:
    """Always False; kept because the provenance line of perfbench/run.py calls it."""
    return False


def draw_outcomes(pa, pb, u1, u2, coupling: int):
    """Map per-draw marginals (pa, pb) and uniforms to +/-1 int8 outcome arrays."""
    a_plus = u1 < pa
    if coupling == COUPLING_INDEPENDENT:
        b_plus = u2 < pb
    elif coupling == COUPLING_COMONOTONE:
        # shared uniform realizes the min-coupling
        b_plus = u1 < pb
    else:
        b_plus = (1.0 - u1) < pb
    return a_plus.view(np.int8) * 2 - 1, b_plus.view(np.int8) * 2 - 1


def abs_sum_diff(alpha, beta):
    """Elementwise (|alpha + beta|, |alpha - beta|) for the bound integrals."""
    return np.abs(alpha + beta), np.abs(alpha - beta)
