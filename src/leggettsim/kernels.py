"""The couplings, and elementwise numpy kernels for sampling and the bound
integrals.

Each coupling's joint law P(A=1, B=1) and its sampling rule sit together
here. Outcome draws come back as +/-1 int8 arrays, built from the
comparison masks. Aggregation (means, weighted sums) happens in the callers.
"""

from __future__ import annotations

import enum

import numpy as np


class Coupling(enum.Enum):
    """Joint conditional law for (A, B) given fixed marginals."""

    INDEPENDENT = "independent"
    COMONOTONE = "comonotone"
    ANTIMONOTONE = "antimonotone"

    def p_pp(self, pa, pb):
        """P(A=1, B=1) under the coupling, for scalar or array marginals."""
        if self is Coupling.INDEPENDENT:
            return pa * pb
        if self is Coupling.COMONOTONE:
            return np.minimum(pa, pb)
        return pa - np.minimum(pa, 1.0 - pb)


def numba_enabled() -> bool:
    """Always False; kept because the provenance line of perfbench/run.py calls it."""
    return False


def draw_outcomes(pa, pb, u1, u2, coupling: Coupling):
    """Map per-draw marginals (pa, pb) and uniforms to +/-1 int8 outcome arrays
    whose joint law is the coupling's. Only the independent coupling reads u2."""
    a_plus = u1 < pa
    if coupling is Coupling.INDEPENDENT:
        b_plus = u2 < pb
    elif coupling is Coupling.COMONOTONE:
        # shared uniform realizes the min-coupling
        b_plus = u1 < pb
    else:
        b_plus = (1.0 - u1) < pb
    return a_plus.view(np.int8) * 2 - 1, b_plus.view(np.int8) * 2 - 1


def abs_sum_diff(alpha, beta, out=None):
    """Elementwise (|alpha + beta|, |alpha - beta|) for the bound integrals.

    With ``out`` a pair of arrays of the inputs' shape, the two results are
    written there (build_problem passes two rows of its LP matrix) and that
    pair is returned; the values are the same either way.
    """
    plus = np.add(alpha, beta, out=None if out is None else out[0])
    minus = np.subtract(alpha, beta, out=None if out is None else out[1])
    np.abs(plus, out=plus)
    np.abs(minus, out=minus)
    return plus, minus
