import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from leggettsim import certify
from leggettsim.sphere import make_rng
from leggettsim.models import (
    Coupling,
    LeggettModel,
    OutcomeLaw,
    SettingsPair,
    SubensembleDistribution,
    outcome_law,
    point_mass,
)
from leggettsim.simplex import FEAS_TOL, PIVOT_TOL, SolverFailure, column_matrix

# the outcome pairs (A, B) in the order of joint_law's entries
OUTCOME_VALUES = [(1, 1), (1, -1), (-1, 1), (-1, -1)]

# orthogonal-doublets parameters within the family's box
DOUBLET_PARAMS = st.tuples(st.floats(0.05, 2.0), *[st.floats(0.0, 2.0 * np.pi)] * 3).map(np.array)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation matrix via QR of a Gaussian matrix."""
    m = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def point_law(u, v, settings: SettingsPair, coupling: Coupling = Coupling.INDEPENDENT) -> OutcomeLaw:
    """The outcome law of the one-atom model at (u, v): ``pa[0]``, ``pb[0]``
    are that atom's Malus marginals, and its averaged bounds are the
    conditional bounds given (u, v)."""
    return outcome_law(LeggettModel(point_mass(u, v), coupling), settings)


def edge_distribution() -> SubensembleDistribution:
    """Five atoms at u = x, v = y whose weights sum to 1 + 2**-52, as a model
    file's weights do once renormalized on load: at a = +-x, b = +-y every
    weighted sum over them rounds a few ulps past +-1."""
    w = np.array([0.258, 0.119, 0.111, 0.408, 0.104])
    x, y = np.eye(3)[:2]
    return SubensembleDistribution(np.tile(x, (5, 1)), np.tile(y, (5, 1)), w / w.sum())


def joint_law(pa: float, pb: float, coupling: Coupling) -> np.ndarray:
    """Reference: one atom's joint law over (++, +-, -+, --) from the
    coupling's P(A=1, B=1), clipped against rounding at the edge of the
    probability simplex."""
    p_pp = coupling.p_pp(pa, pb)
    return np.clip(np.array([p_pp, pa - p_pp, pb - p_pp, 1.0 - pa - pb + p_pp]), 0.0, 1.0)


def law_correlation(pa: float, pb: float, coupling: Coupling) -> float:
    """Reference: E(AB) by exhaustive enumeration of the four-outcome law."""
    return sum(p * a * b for p, (a, b) in zip(joint_law(pa, pb, coupling), OUTCOME_VALUES))


def numpy_orthogonal_doublets(params) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reference: the (a, b) settings of the orthogonal-doublets family as
    numpy arithmetic on the rows of np.eye(3) forms them, with b scaled by
    np.linalg.norm(axis=-1). ``optimize`` forms the same vectors in Python
    floats and must match these bit for bit."""
    theta, psis = params[0], params[1:]
    axes = np.eye(3)
    others = [(1, 2), (2, 0), (0, 1)]
    out = []
    for i in range(3):
        e = axes[i]
        j, k = others[i]
        m = np.cos(psis[i]) * axes[j] + np.sin(psis[i]) * axes[k]
        b_plus = np.cos(theta / 2.0) * m + np.sin(theta / 2.0) * e
        b_minus = np.cos(theta / 2.0) * m - np.sin(theta / 2.0) * e
        for b in (b_plus, b_minus):
            out.append((m, b / np.linalg.norm(b, axis=-1, keepdims=True)))
    return out


def frozen_lp(A_ub, b_ub, A_eq, b_eq) -> tuple:
    """The LP in the one form phase1_simplex takes, as build_problem gives
    it: the rows written into their ``column_matrix``, which is frozen, and
    A_ub and A_eq returned as its blocks, b_ub and b_eq as float64 arrays."""
    (p, n), q = np.shape(A_ub), len(b_eq)
    cols = column_matrix(n, p, q)
    cols[:p, :n], cols[p:, :n] = A_ub, A_eq
    cols.setflags(write=False)
    return cols[:p, :n], np.asarray(b_ub, dtype=np.float64), cols[p:, :n], np.asarray(b_eq, dtype=np.float64)


def masked_argmin_row(col, xb, basis=None) -> int:
    """Reference: the ratio test as numpy calls ran it, with the solver's own
    rule. The admissible ratios (col > PIVOT_TOL) are divided into a buffer
    of inf and ``argmin`` picks the row; when it lands on inf, the first
    admissible row is taken, and with none the solver fails. With ``basis``
    (Bland's rule) a tie goes to the lowest-index basic variable."""
    col, xb = np.asarray(col, dtype=np.float64), np.asarray(xb, dtype=np.float64)
    admissible = col > PIVOT_TOL
    ratios = np.full(col.shape[0], np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(xb, col, out=ratios, where=admissible)
    i = int(ratios.argmin())
    if ratios[i] == np.inf:
        rows = admissible.nonzero()[0]
        if rows.size == 0:
            raise SolverFailure("no admissible pivot row (numerical breakdown)")
        i = int(rows[0])
    if basis is not None:
        tied = ((ratios == ratios[i]) & admissible).nonzero()[0]
        i = int(tied[np.asarray(basis)[tied].argmin()])
    return i


def numpy_proven_gap(problem, lam) -> tuple[float, float]:
    """Reference: the verifier's proven Farkas gap and scale, with the sum of
    absolute terms taken from a copy of |A_ub| by a second product."""
    combo = lam @ problem.A_ub
    value = float(lam @ problem.b_ub)
    scale = float(np.max(lam, initial=0.0))
    combo_abs = lam @ np.abs(problem.A_ub)
    value_abs = float(lam @ np.abs(problem.b_ub))
    g = certify._gamma(lam.size + 3)
    entry = float(np.sum(lam)) * certify._ENTRY_ERR
    gap = float(np.min(combo - g * combo_abs)) - value - g * value_abs - entry
    return gap, scale


def _exact_dot(x, y) -> Fraction:
    """sum_i x[i] * y[i], exactly, from the float values."""
    return sum((Fraction(float(a)) * Fraction(float(b)) for a, b in zip(x, y)), Fraction(0))


def exact_farkas_gap(A_ub, b_ub, A_eq, b_eq, lam, mu) -> Fraction:
    """min_j (lam^T A_ub + mu^T A_eq)_j - (lam^T b_ub + mu^T b_eq), exactly,
    from the stored floats. Every x >= 0 with sum(x) = 1 meeting the rows
    has min_j (...)_j <= (lam^T A_ub + mu^T A_eq) x <= lam^T b_ub + mu^T b_eq
    when lam >= 0, so a positive gap proves that no such x exists."""
    g = np.concatenate([lam, mu])
    rows = np.vstack([A_ub, A_eq])
    return min(_exact_dot(g, column) for column in rows.T) - _exact_dot(g, np.concatenate([b_ub, b_eq]))


def exact_feasible(A_ub, b_ub, A_eq, b_eq, w) -> bool:
    """w >= -FEAS_TOL and every row holds within FEAS_TOL, exactly, from the stored floats."""
    tol = Fraction(FEAS_TOL)
    return (
        all(Fraction(float(x)) >= -tol for x in w)
        and all(_exact_dot(row, w) - Fraction(float(r)) <= tol for row, r in zip(A_ub, b_ub))
        and all(abs(_exact_dot(row, w) - Fraction(float(r))) <= tol for row, r in zip(A_eq, b_eq))
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(12345, 0)


@pytest.fixture(scope="session")
def perfbench():
    """perfbench/tracing.py and perfbench/workloads.py, loaded from their
    files under private names (the files are only read, never changed)."""
    loaded = []
    for name in ("tracing", "workloads"):
        path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses looks the module up while defining classes
        spec.loader.exec_module(module)
        loaded.append(module)
    yield tuple(loaded)
    for module in loaded:
        sys.modules.pop(module.__name__, None)
