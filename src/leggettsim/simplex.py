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
column as binv @ cols[:, j], finds its row by the ratio test, scales that
row of the state and subtracts one outer product from all of it, and
updates the reduced costs with one product of the new pivot row of binv
against the columns, instead of rewriting an m x (columns) tableau. Every
element sees the same operations in the same order as when binv and xb
were two arrays, so the results are the same to the bit. On the small
bases of the certification LPs a pivot's cost is mostly numpy call
overhead, so the loop makes as few calls as its arithmetic allows: the
ratio test (``_pivot_row``) runs over the column and the basic values as
Python floats, whose division is the same IEEE binary64 division as
numpy's, and picks the row that ``argmin`` over a masked division into a
buffer of inf picked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SolverFailure(RuntimeError):
    """Numerical breakdown or iteration cap; distinct from infeasibility."""


PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9


@dataclass(eq=False)
class Phase1Result:
    feasible: bool
    x: np.ndarray  # primal point (meaningful when feasible)
    y: np.ndarray  # simplex multipliers per original row (meaningful when infeasible)
    objective: float  # optimal sum of artificials
    iterations: int  # pivots made
    bland_used: bool  # whether Bland's rule chose any pivot


def _pivot_row(col: list[float], xb: list[float], basis=None) -> int:
    """The ratio test: the row i with col[i] > PIVOT_TOL that minimizes
    xb[i] / col[i], the lowest such row on ties.

    It picks the row that ``argmin`` picks over a buffer of inf holding the
    admissible ratios: the first NaN ratio if there is one, and the first
    admissible row when every admissible ratio overflows to inf. With
    ``basis`` (Bland's rule), a tie goes to the row of the lowest-index
    basic variable instead. No admissible row raises SolverFailure.
    """
    i = -1
    best = math.inf
    tol = PIVOT_TOL
    for k, c in enumerate(col):
        if c > tol:
            t = xb[k] / c
            if t < best:
                best, i = t, k
            elif t != t:  # NaN
                i = k
                break
            elif i < 0:
                i = k
    if i < 0:
        # phase-1 objective is bounded below by 0; unboundedness signals breakdown
        raise SolverFailure("no admissible pivot row (numerical breakdown)")
    if basis is not None:
        t = xb[i] / col[i]
        i = min((k for k, c in enumerate(col) if c > tol and xb[k] / c == t), key=basis.__getitem__)
    return i


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
    rhs = b.tolist()
    if not all(map(math.isfinite, rhs)):
        raise ValueError("right-hand sides must be finite")

    # orient every row to a nonnegative right-hand side; remember the flips
    # (the rows to negate are found in Python floats, and most LPs have none)
    negative = [k for k, v in enumerate(rhs) if v < 0.0]
    flip = np.ones(m)
    if negative:
        flip[negative] = -1.0
        b[negative] *= -1.0

    # columns: n structural | p slacks (inequality rows only) | m artificials.
    # Only the slack and artificial blocks need zeros; their diagonals are
    # written through strided views of the flat buffer, (k, n + k) and
    # (k, n + p + k) lying total + 1 entries apart.
    total = n + p + m
    cols = np.empty((m, total))
    if p:
        cols[:p, :n] = A_ub
    if q:
        cols[p:, :n] = A_eq
    cols[:, n:] = 0.0
    if negative:
        cols[negative, :n] *= -1.0
    flat = cols.reshape(-1)
    flat[n : n + p * (total + 1) : total + 1] = flip[:p]  # slack coefficient carries the row flip
    flat[n + p :: total + 1] = 1.0

    # revised form: the tableau is binv @ cols, with binv the inverse of
    # the basis columns (the tableau's artificial block), and xb its rhs.
    # Both live in one (m, m + 1) array [binv | xb], so one row scaling and
    # one outer product update them together.
    basis = np.arange(n + p, n + p + m)
    state = np.zeros((m, m + 1))
    state.reshape(-1)[:: m + 2] = 1.0  # binv's diagonal, (k, k) lying m + 2 entries apart
    state[:, m] = b
    binv = state[:, :m]
    xb = state[:, m]
    cost = np.zeros(total)
    cost[n + p :] = 1.0

    # reduced costs for basis of artificials: r = c - sum of rows. A NaN or
    # inf entry of A_ub or A_eq makes its column's sum non-finite, so this
    # one check on the sums refuses it without another pass over the matrix.
    r = cost - cols.sum(axis=0)
    if not np.isfinite(r).all():
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
        # the ratio test runs in Python floats: on a few rows, the divisions
        # and comparisons cost less than the numpy calls of a masked division
        pivots = col.tolist()
        i = _pivot_row(pivots, xb.tolist(), basis if it >= bland_after else None)
        row = state[i]  # a view: it follows state through the update below
        row /= pivots[i]
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
