"""Phase-1 simplex for feasibility of {x >= 0, A_ub x <= b_ub, A_eq x = b_eq}.

Minimizes the sum of artificial variables with a fixed pivoting rule
(most-negative reduced cost, lowest column index on ties; lowest row
index on ratio-test ties; after a pivot budget, Bland's rule, which
takes the lowest-index basic variable on ratio-test ties), so results
are bit-stable across runs. On infeasibility the optimal simplex
multipliers provide a Farkas-style dual vector for the rows. Every
right-hand side is finite and nonnegative (each certification row is
bounded by 1 +- E with |E| <= 1), so the artificial basis starts feasible
with no row turned round; any other right-hand side raises ValueError.

The solver works in revised form on the column matrix [A | slacks | I]
in the one layout ``column_matrix`` gives it. ``certify.build_problem``
writes its rows straight into such a matrix and freezes it, and phase 1
prices that matrix in place; any other input raises ValueError.
Pricing always reads the whole matrix, never A_ub alone: OpenBLAS's gemv
gives a prefix of width n the full product's bits only when n % 4 == 0.
The state is one m x (m + 1) array [binv | xb], the inverse of the basis
columns (m the number of rows) beside the basic values, and the reduced
costs. A pivot forms the entering column as binv @ cols[:, j], finds its
row by the ratio test, scales that row of the state and subtracts one
outer product from all of it, and updates the reduced costs with one
product of the new pivot row of binv against the columns, instead of
rewriting an m x (columns) tableau. Every element sees the same
operations in the same order as when binv and xb were two arrays, so the
results are the same to the bit. On the small bases of the certification
LPs a pivot's cost is mostly numpy call overhead, so the loop makes as
few calls as its arithmetic allows: the ratio test (``_pivot_row``) runs
over the column and the basic values as Python floats, whose division is
the same IEEE binary64 division as numpy's, and picks the row that
``argmin`` over a masked division into a buffer of inf picked.
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
    y: np.ndarray  # simplex multipliers, one per row (meaningful when infeasible)
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


def column_matrix(n: int, p: int, q: int) -> np.ndarray:
    """The (p + q) x (n + p + p + q) column matrix phase 1 prices, as
    ``np.empty`` gives it, with its slack and artificial blocks written and
    its first n columns left to the caller: A_ub goes in rows [:p] and A_eq
    in rows [p:]. Frozen with those blocks in place, it is the matrix
    phase1_simplex adopts when given its top-left (p, n) block as A_ub.

    Only the slack and artificial blocks need zeros; their diagonals are
    written through strided views of the flat buffer, (k, n + k) and
    (k, n + p + k) lying total + 1 entries apart.
    """
    m = p + q
    total = n + p + m
    cols = np.empty((m, total))
    cols[:, n:] = 0.0
    flat = cols.reshape(-1)
    flat[n : n + p * (total + 1) : total + 1] = 1.0
    flat[n + p :: total + 1] = 1.0
    return cols


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and bool(
        (a.view(np.uint64) == b.view(np.uint64)).all())


def _adopted(A_ub, A_eq, p: int, q: int) -> np.ndarray:
    """The base of A_ub, which must be its top-left block and this LP's
    column matrix: read-only, in ``column_matrix``'s layout, with the bits
    of A_eq in its equality rows and its slack and artificial blocks as
    ``column_matrix`` writes them. Any other input raises ValueError.

    The checks read the equality rows and the two small blocks, never the
    inequality rows: as for ``models.hold``, only a writable view made
    before the freeze can change the matrix afterwards."""
    cols, n = A_ub.base, A_ub.shape[1]
    if (isinstance(cols, np.ndarray) and A_ub.dtype == np.float64 and cols.dtype == np.float64
            and cols.shape == (p + q, n + p + p + q) and cols.flags.c_contiguous and not cols.flags.writeable
            and A_ub.ctypes.data == cols.ctypes.data and A_ub.strides == cols.strides
            and _same_bits(cols[p:, :n], A_eq) and _same_bits(cols[:, n:], column_matrix(0, p, q))):
        return cols
    raise ValueError("A_ub must be the top-left block of its frozen column_matrix(n, p, q), A_eq below it")


def phase1_simplex(A_ub, b_ub, A_eq, b_eq, max_iter: int | None = None) -> Phase1Result:
    """Phase 1 on {x >= 0, A_ub x <= b_ub, A_eq x = b_eq}, given as 2-D and
    1-D float64 arrays (an empty block is a (0, n) or (0,) array).
    Mismatched shapes, non-finite entries and a negative right-hand side
    raise ValueError; a breakdown or the iteration cap raises SolverFailure.
    A_ub must be the top-left block of its frozen ``column_matrix``, A_eq
    the rows below it, or ValueError is raised; the matrix is priced in place."""
    p = b_ub.shape[0]
    q = b_eq.shape[0]
    n = A_ub.shape[1]
    if A_ub.shape != (p, n) or A_eq.shape != (q, n):
        raise ValueError("constraint matrix shapes do not match")
    m = p + q

    b = np.concatenate([b_ub, b_eq])
    # checked in Python floats, so NaN fails too
    if not all(0.0 <= v < math.inf for v in b.tolist()):
        raise ValueError("right-hand sides must be finite and nonnegative")

    # columns: n structural | p slacks (inequality rows only) | m artificials
    cols = _adopted(A_ub, A_eq, p, q)

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

    # reduced costs for the basis of artificials: r = c - sum of rows, with
    # c = 1 on the artificial columns and 0 elsewhere. -s differs from 0 - s
    # only in the sign of a zero sum, which no pivot choice and no field of
    # the result reads, and the artificials' 1 - 1 is +0 either way. A NaN
    # or inf entry of A_ub or A_eq makes its column's sum non-finite, so
    # this one check on the sums refuses it without another pass over the
    # matrix.
    r = cols.sum(axis=0)
    np.negative(r, out=r)  # in place: a second row of that length costs peak memory
    r[n + p :] += 1.0
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

    xb = xb.copy()  # contiguous, so the product below sums as it always has
    # c over the basis: 1.0 on the basic artificials, 0.0 on the rest
    objective = float((basis >= n + p).astype(np.float64) @ xb)

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = xb[structural]

    return Phase1Result(
        feasible=objective <= FEAS_TOL,
        x=x,
        y=1.0 - r[n + p :],  # artificial column i has reduced cost 1 - y_i
        objective=objective,
        iterations=it,
        bland_used=it > bland_after,
    )
