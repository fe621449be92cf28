"""Direct tests of the phase-1 simplex: every result is checked against its
own proof, a feasible point row by row and an infeasible one as a Farkas
combination in exact rational arithmetic."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from leggettsim.certify import build_atom_grid, build_problem
from leggettsim.optimize import FAMILIES
from leggettsim.simplex import (FEAS_TOL, PIVOT_TOL, SolverFailure, _adopted, _pivot_row, _same_bits, column_matrix,
                               phase1_simplex)

from conftest import DOUBLET_PARAMS, exact_farkas_gap, exact_feasible, frozen_lp, masked_argmin_row


def farkas_multipliers(y, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(lam, mu) of the solver's multipliers y on an LP with p inequality
    rows whose last equality row is sum(x) = 1: with g = -y, lam =
    max(g_ub, 0) and mu = g_eq without the normalization row, which
    exact_farkas_gap's sum(x) = 1 takes the place of."""
    g = -np.asarray(y, dtype=np.float64)
    return np.maximum(g[:p], 0.0), g[p:-1]


def normalized(A_ub, b_ub, A_eq, b_eq):
    """Append the row sum(x) = 1, which bounds the feasible set."""
    n = A_ub.shape[1]
    return A_ub, b_ub, np.vstack([A_eq, np.ones((1, n))]), np.concatenate([b_eq, [1.0]])


def check_proof(A_ub, b_ub, A_eq, b_eq):
    result = phase1_simplex(*frozen_lp(A_ub, b_ub, A_eq, b_eq))
    if result.feasible:
        assert result.objective <= FEAS_TOL
        assert exact_feasible(A_ub, b_ub, A_eq, b_eq, result.x)
    else:
        assert result.objective > FEAS_TOL
        lam, mu = farkas_multipliers(result.y, len(b_ub))
        assert exact_farkas_gap(A_ub, b_ub, A_eq[:-1], b_eq[:-1], lam, mu) > 0
    return result


# x1 + x2 = 1, x2 <= 1/4, so x1 - x2 >= 1/2
FEASIBLE = normalized(np.array([[0.0, 1.0]]), np.array([0.25]), np.empty((0, 2)), np.empty(0))
# x1 + x2 = 1 against x1 + x2 <= 1/2
INFEASIBLE = normalized(np.array([[1.0, 1.0]]), np.array([0.5]), np.empty((0, 2)), np.empty(0))


class TestProofs:
    def test_feasible_point(self):
        result = check_proof(*FEASIBLE)
        assert result.feasible
        assert result.x[1] <= 0.25 + FEAS_TOL
        assert result.x[0] - result.x[1] >= 0.5 - FEAS_TOL

    def test_infeasible_farkas(self):
        result = check_proof(*INFEASIBLE)
        assert not result.feasible

    @hyp_settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 4),
        st.integers(0, 2),
        st.integers(1, 5),
        st.data(),
    )
    def test_random_lps_carry_proofs(self, p, q, n, data):
        # the solver takes only nonnegative right-hand sides
        entry, rhs = st.integers(-3, 3).map(float), st.integers(0, 3).map(float)
        A_ub = np.array(data.draw(st.lists(entry, min_size=p * n, max_size=p * n))).reshape(p, n)
        b_ub = np.array(data.draw(st.lists(rhs, min_size=p, max_size=p)))
        A_eq = np.array(data.draw(st.lists(entry, min_size=q * n, max_size=q * n))).reshape(q, n)
        b_eq = np.array(data.draw(st.lists(rhs, min_size=q, max_size=q)))
        check_proof(*normalized(A_ub, b_ub, A_eq, b_eq))


# pivot-column entries at and around the admissibility threshold, ties, a
# NaN, and entries small enough that a large basic value overflows over them
# (Python floats, as the solver passes them)
PIVOT_ENTRIES = [0.0, -0.0, 1.0, 2.0, 0.5, 3.0, PIVOT_TOL, -PIVOT_TOL, float(np.nextafter(PIVOT_TOL, 1.0)),
                 float(np.nextafter(PIVOT_TOL, 0.0)), 1e-9, np.nan, np.inf, -np.inf, -1.0]
BASIC_VALUES = [0.0, -0.0, 1.0, 2.0, 1.5, 1e-17, -1e-17, 1e300, float(np.finfo(np.float64).max), np.inf, np.nan]


class TestRatioTest:
    """The Python-float ratio test picks the row of the masked-division
    argmin it replaced, under both entering rules, or fails as it did."""

    @staticmethod
    def outcome(rule, *args):
        try:
            return rule(*args)
        except (SolverFailure, ValueError) as exc:
            return type(exc)

    @hyp_settings(max_examples=400, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda m: st.tuples(
        st.lists(st.sampled_from(PIVOT_ENTRIES), min_size=m, max_size=m),
        st.lists(st.sampled_from(BASIC_VALUES), min_size=m, max_size=m),
        st.permutations(range(m)),
    )), st.booleans())
    def test_same_row_as_masked_argmin(self, drawn, bland):
        col, xb, basis = drawn
        basis = np.array(basis) + 5 if bland else None
        want = self.outcome(masked_argmin_row, col, xb, basis)
        assert self.outcome(_pivot_row, col, xb, basis) == want

    def test_edge_cases(self):
        inf, nan = np.inf, np.nan
        # the lowest row on ties, or with Bland's rule the lowest basic variable
        assert _pivot_row([1.0, 1.0, 2.0], [1.0, 1.0, 2.0]) == 0
        assert _pivot_row([1.0, 1.0, 2.0], [1.0, 1.0, 2.0], np.array([9, 7, 3])) == 2
        # a NaN ratio wins, as argmin takes it; every ratio overflowing gives the first admissible row
        assert _pivot_row([1.0, 1.0, 1.0], [1.0, nan, 0.5]) == 1
        assert _pivot_row([PIVOT_TOL, 1e-9, 1e-9], [1.0, 1e300, 1e300]) == 1
        assert _pivot_row([1.0, 1.0], [inf, inf]) == 0
        for col in ([PIVOT_TOL, -1.0, 0.0], [nan, -inf]):
            with pytest.raises(SolverFailure):
                _pivot_row(col, [1.0] * len(col))


class TestBoundary:
    def test_mismatched_shapes(self):
        A_ub, b_ub, A_eq, b_eq = frozen_lp(np.ones((2, 3)), np.ones(2), np.ones((1, 3)), np.ones(1))
        with pytest.raises(ValueError, match="shapes"):
            phase1_simplex(A_ub, b_ub, np.ones((1, 4)), b_eq)
        with pytest.raises(ValueError, match="shapes"):
            phase1_simplex(A_ub, np.ones(3), A_eq, b_eq)

    @pytest.mark.parametrize("where, index, bad", [
        ("b_ub", 1, np.nan), ("A_ub", (1, 0), np.nan), ("A_ub", (0, 1), np.inf),
        ("b_ub", 0, -2.0**-1074), ("b_eq", 0, -1.0),
    ])
    def test_non_finite_input_rejected(self, where, index, bad):
        # a NaN right-hand side used to give feasible=False, objective=nan, and
        # a NaN or inf entry a SolverFailure; both are bad input, not results.
        # A negative right-hand side is refused too: no row is turned round
        lp = {"A_ub": np.array([[1.0, 2.0], [0.5, -1.0]]), "b_ub": np.array([1.0, 0.5]),
              "A_eq": np.ones((1, 2)), "b_eq": np.ones(1)}
        lp[where][index] = bad
        with pytest.raises(ValueError, match="finite"):
            phase1_simplex(*frozen_lp(**lp))

    def test_iteration_cap(self):
        # the artificial basis needs two pivots to leave x1 + x2 = 2, x1 - x2 = 0
        lp = frozen_lp(np.empty((0, 2)), np.empty(0), np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([2.0, 0.0]))
        assert phase1_simplex(*lp).iterations >= 2
        with pytest.raises(SolverFailure):
            phase1_simplex(*lp, max_iter=1)


def output_digest(result) -> str:
    """sha256 of the bytes of x, then y, then the hex form of the objective."""
    h = hashlib.sha256()
    for part in (result.x.tobytes(), result.y.tobytes(), result.objective.hex().encode()):
        h.update(part)
    return h.hexdigest()


def readme_problem(grid):
    constraints = FAMILIES["orthogonal-doublets"].build(np.array([0.94, 3.46, 2.11, 2.34]))
    problem = build_problem(build_atom_grid(*grid), constraints)
    return problem.A_ub, problem.b_ub, np.ones((1, problem.n_atoms)), np.ones(1)


# the most-negative rule cycles on this LP, and so does Bland's entering rule
# when ratio ties go to the lowest row rather than to the lowest-index basic
# variable (the solver then hit its cap)
BLAND_LP = frozen_lp(
    np.array([[3.0, 1.0, 0.0, -1.0, -1.0], [-1.0, 2.0, -2.0, 2.0, -3.0],
              [2.0, -1.0, 0.0, 3.0, 0.0], [-3.0, 3.0, 2.0, -2.0, 3.0]]),
    np.zeros(4),
    np.array([[-3.0, -3.0, -3.0, -3.0, -2.0]]),
    np.array([1.0]),
)


class TestPivotPath:
    # pivots of the README problem on the two optimizer grids, counted on the
    # dense-tableau solver this one replaced; a change here means a changed
    # pivot path, and with it possibly changed pinned margins
    @pytest.mark.parametrize("grid, pivots", [((24, 24, 64), 26), ((48, 48, 256), 30)])
    def test_readme_problem_iterations(self, grid, pivots):
        result = phase1_simplex(*readme_problem(grid))
        assert not result.feasible
        assert result.iterations == pivots
        assert not result.bland_used

    def test_bland_fallback_does_not_cycle(self):
        A_ub, b_ub, A_eq, b_eq = BLAND_LP
        result = phase1_simplex(A_ub, b_ub, A_eq, b_eq)
        assert not result.feasible
        assert result.bland_used
        # y^T [A | slacks] <= 0 on every column while y^T b > 0: no x >= 0
        # with nonnegative slacks meets the rows
        y = result.y
        assert np.all(y @ np.vstack([A_ub, A_eq]) <= 1e-9)
        assert np.all(y[: len(b_ub)] <= 1e-9)
        assert y @ np.concatenate([b_ub, b_eq]) > 0


class TestOutputBytes:
    """The exact bytes of x, y and the objective, measured on the solver that
    kept its basis inverse and basic values as two arrays. A change to the
    arithmetic of the pivot state shows here even where the pivot count and
    the rounded margins hold."""

    @pytest.mark.parametrize("lp, digest", [
        (lambda: readme_problem((24, 24, 64)),
         "e5ebd9fb3aab74ccd955d8fb82182d8250ded504d4c77f9fc26d9a4ed1fcf851"),
        (lambda: readme_problem((48, 48, 256)),
         "b452139c668b7416e1a248693a7a642f5fcf1382f28e56c013b15fbf061b0e4e"),
        (lambda: BLAND_LP,
         "011c6350edb34e48375bb4a58e6a7d0b8c60798dfa5fb4d79ba9436858926e71"),
    ], ids=["readme-640", "readme-2560", "bland"])
    def test_pinned_digest(self, lp, digest):
        assert output_digest(phase1_simplex(*lp())) == digest


def result_bits(result) -> tuple:
    """Every field of a Phase1Result, the arrays and the objective as bytes."""
    return result.feasible, result.iterations, result.bland_used, output_digest(result)


README_PARAMS = np.array([0.94, 3.46, 2.11, 2.34])


class TestColumnMatrix:
    """Phase 1 takes one input: A_ub as the top-left block of its frozen
    column matrix, as build_problem writes it and frozen_lp builds it from
    given rows. Every other input is refused."""

    @hyp_settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.integers(1, 9), st.integers(1, 9), st.integers(0, 6), DOUBLET_PARAMS,
           st.lists(st.floats(0.0, 2.0), min_size=12, max_size=12))
    def test_adopted_as_copied(self, residue, n_u, n_v, k, params, b_ub):
        # the atom count takes every residue mod 4: OpenBLAS's gemv rounds a
        # width-n prefix of a wider matrix as the whole only when n % 4 == 0,
        # so pricing reads the whole matrix, whichever path built it
        n_mirrored = 4 * k + (residue - n_u * n_v) % 4
        problem = build_problem(build_atom_grid(n_u, n_v, n_mirrored), FAMILIES["orthogonal-doublets"].build(params))
        n = problem.n_atoms
        assert n % 4 == residue
        cols = problem.lp  # the frozen column matrix, kept by hold, not a copy
        assert problem.A_ub.base is cols and not cols.flags.writeable
        ones = cols[-1:, :n]  # the record's own sum w = 1 row, as certify.solve passes it
        for lp in (problem, dataclasses.replace(problem, b_ub=np.array(b_ub))):
            assert _adopted(lp.A_ub, ones, len(lp.b_ub), 1) is cols
            built = phase1_simplex(lp.A_ub, lp.b_ub, ones, np.ones(1))
            helper = frozen_lp(np.array(lp.A_ub), lp.b_ub, np.ones((1, n)), np.ones(1))
            assert _same_bits(helper[0].base, cols)
            assert result_bits(phase1_simplex(*helper)) == result_bits(built)

    @pytest.mark.parametrize("tamper", [None, "writable", "slack", "artificial", "signed zero", "equality row"])
    def test_tampered_layout_is_copied(self, tamper):
        problem = build_problem(build_atom_grid(6, 6, 8), FAMILIES["orthogonal-doublets"].build(README_PARAMS))
        (p, n), b_ub = problem.A_ub.shape, problem.b_ub
        cols = column_matrix(n, p, 1)
        cols[:p, :n] = problem.A_ub
        cols[p:, :n] = 1.0
        A_eq = np.ones((1, n))
        if tamper == "slack":
            cols[0, n] = 2.0
        elif tamper == "artificial":
            cols[p, n + p + p] = 0.5
        elif tamper == "signed zero":
            cols[0, n + p + 1] = -0.0  # equal to the artificial block's 0.0, not the same bits
        elif tamper == "equality row":
            A_eq = np.full((1, n), 0.5)
        if tamper != "writable":
            cols.setflags(write=False)
        A_ub = cols[:p, :n]
        if tamper is None:
            assert _adopted(A_ub, A_eq, p, 1) is cols
            want = phase1_simplex(*frozen_lp(np.array(A_ub), b_ub, A_eq, np.ones(1)))
            assert result_bits(phase1_simplex(A_ub, b_ub, A_eq, np.ones(1))) == result_bits(want)
        else:
            with pytest.raises(ValueError, match="column_matrix"):
                phase1_simplex(A_ub, b_ub, A_eq, np.ones(1))
