"""Phase-1 simplex for feasibility of {x >= 0, A_ub x <= b_ub, A_eq x = b_eq}.

Minimizes the sum of artificial variables with a fixed pivoting rule
(most-negative reduced cost, lowest column index on ties; lowest row
index on ratio-test ties; after a pivot budget, Bland's rule, which
takes the lowest-index basic variable on ratio-test ties), so results
are bit-stable across runs. On infeasibility the optimal simplex
multipliers provide a Farkas-style dual vector for the original row
orientation.

The solver works in revised form. The column matrix [A | slacks | I] is
built once, with A_ub and A_eq written straight into it and the rows with
a negative right-hand side negated in place; the state is one m x (m + 1)
array [binv | xb], the inverse of the basis columns (m the number of rows)
beside the basic values, and the reduced costs. A pivot forms the entering
column as binv @ cols[:, j], finds its row by one masked division into a
buffer of inf, scales that row of the state and subtracts one outer
product from all of it, and updates the reduced costs with one product of
the new pivot row of binv against the columns, instead of rewriting an
m x (columns) tableau. Every element sees the same operations in the same
order as when binv and xb were two arrays, so the results are the same to
the bit. On the small bases of the certification LPs a pivot's cost is
mostly numpy call overhead, so the loop makes as few calls as its
arithmetic allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SolverFailure(RuntimeError):
    """Numerical breakdown or iteration cap; distinct from infeasibility."""


PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9


@dataclass
class Phase1Result:
    feasible: bool
    x: np.ndarray  # primal point (meaningful when feasible)
    y: np.ndarray  # simplex multipliers per original row (meaningful when infeasible)
    objective: float  # optimal sum of artificials
    iterations: int  # pivots made
    bland_used: bool  # whether Bland's rule chose any pivot


def phase1_simplex(A_ub, b_ub, A_eq, b_eq, max_iter: int | None = None) -> Phase1Result:
    """Phase 1 on {x >= 0, A_ub x <= b_ub, A_eq x = b_eq}. Mismatched shapes
    and non-finite entries raise ValueError; a breakdown or the iteration cap
    raises SolverFailure."""
    A_ub = np.atleast_2d(np.asarray(A_ub, dtype=np.float64))
    A_eq = np.atleast_2d(np.asarray(A_eq, dtype=np.float64))
    b_ub = np.atleast_1d(np.asarray(b_ub, dtype=np.float64))
    b_eq = np.atleast_1d(np.asarray(b_eq, dtype=np.float64))
    p = b_ub.shape[0]
    q = b_eq.shape[0]
    n = A_ub.shape[1] if p else A_eq.shape[1]
    if (p and A_ub.shape != (p, n)) or (q and A_eq.shape != (q, n)):
        raise ValueError("constraint matrix shapes do not match")
    m = p + q

    b = np.concatenate([b_ub, b_eq])
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand sides must be finite")

    # orient every row to a nonnegative right-hand side; remember the flips
    flip = np.where(b < 0.0, -1.0, 1.0)
    b = b * flip

    # columns: n structural | p slacks (inequality rows only) | m artificials
    total = n + p + m
    cols = np.zeros((m, total))
    if p:
        cols[:p, :n] = A_ub
    if q:
        cols[p:, :n] = A_eq
    cols[flip < 0.0, :n] *= -1.0
    cols[np.arange(p), n + np.arange(p)] = flip[:p]  # slack coefficient carries the row flip
    cols[:, n + p :] = np.eye(m)

    # revised form: the tableau is binv @ cols, with binv the inverse of
    # the basis columns (the tableau's artificial block), and xb its rhs.
    # Both live in one (m, m + 1) array [binv | xb], so one row scaling and
    # one outer product update them together.
    basis = np.arange(n + p, n + p + m)
    state = np.empty((m, m + 1))
    state[:, :m] = np.eye(m)
    state[:, m] = b
    binv = state[:, :m]
    xb = state[:, m]
    ratios = np.empty(m)
    cost = np.zeros(total)
    cost[n + p :] = 1.0

    # reduced costs for basis of artificials: r = c - sum of rows. A NaN or
    # inf entry of A_ub or A_eq makes its column's sum non-finite, so this
    # one check on the sums refuses it without another pass over the matrix.
    r = cost - cols.sum(axis=0)
    if not np.all(np.isfinite(r)):
        raise ValueError("constraint matrices must be finite (or a column sum overflowed)")

    if max_iter is None:
        max_iter = 200 * (m + n) + 1000
    bland_after = 20 * (m + n) + 200

    for it in range(max_iter):
        if it < bland_after:
            j = int(r.argmin())
            if r[j] >= -PIVOT_TOL:
                break
        else:
            # Bland's rule as an anti-cycling fallback
            candidates = np.nonzero(r < -PIVOT_TOL)[0]
            if candidates.size == 0:
                break
            j = int(candidates[0])
        col = binv @ cols[:, j]
        # ratio test in one pass: rows without an admissible pivot keep inf,
        # and argmin takes the lowest row on ties
        admissible = col > PIVOT_TOL
        ratios.fill(np.inf)
        np.divide(xb, col, out=ratios, where=admissible)
        i = int(ratios.argmin())
        if ratios[i] == np.inf:
            # no admissible row, or every admissible ratio overflowed
            rows = admissible.nonzero()[0]
            if rows.size == 0:
                # phase-1 objective is bounded below by 0; unboundedness signals breakdown
                raise SolverFailure("no admissible pivot row (numerical breakdown)")
            i = int(rows[0])
        if it >= bland_after:  # Bland: the lowest-index basic variable on ties
            tied = ((ratios == ratios[i]) & admissible).nonzero()[0]
            i = int(tied[basis[tied].argmin()])
        row = state[i]  # a view: it follows state through the update below
        row /= col[i]
        col[i] = 0.0
        state -= col[:, None] * row  # the outer product; leaves row i as is
        r -= (r[j] * row[:m]) @ cols
        r[j] = 0.0
        basis[i] = j
    else:
        raise SolverFailure("simplex iteration cap exceeded")

    xb = xb.copy()  # contiguous, so the products below sum as they always have
    objective = float(cost[basis] @ xb)

    x = np.zeros(total)
    x[basis] = xb

    # multipliers: artificial column i has reduced cost 1 - y_i in the
    # flipped orientation; undo the flips for the original rows
    y_flipped = 1.0 - r[n + p :]
    y = y_flipped * flip

    return Phase1Result(
        feasible=objective <= FEAS_TOL,
        x=x[:n].copy(),
        y=y,
        objective=objective,
        iterations=it,
        bland_used=it > bland_after,
    )
