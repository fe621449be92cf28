"""LP feasibility certification of subensemble distributions.

Given a grid of candidate hidden-vector atoms and target correlations for
a family of settings pairs, decide whether any nonnegative normalized
weighting of the atoms satisfies every averaged bound. An AtomGrid is
checked for unit norms and hashed once, when it is built; build_problem
then only computes the LP rows, so a search that solves many problems on
one grid pays for neither again.
Feasible problems return a Witness (the support of a weighting);
infeasible problems return Farkas multipliers. read_certificate reads
either back from JSON. verify_certificate recomputes either in float64
and charges an a priori bound on every rounding against it, in the sums
and in the LP entries themselves, so an accepted infeasibility
certificate proves that no weighting of the given grid exists. The bound
rows are absolute values, A_ub >= 0, and their right-hand sides are
b_ub = 1 +- E with |E| <= 1, so b_ub >= 0; a CertificationProblem checks
both when it is built. The verifier then reads the sums of absolute terms
of its products with A_ub and b_ub from those products themselves.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import kernels, sphere
from .models import (TEXT, Field, SettingsPair, SubensembleDistribution, float_array, hold, is_integer, read_fields,
                     read_variant, real, typed)
# The solver calls a problem feasible when its phase-1 objective is at most
# FEAS_TOL, so the verifier's tolerance must be at least that threshold, or
# a feasible solve could fail verification; both read this one constant.
from .simplex import FEAS_TOL, SolverFailure, column_matrix, phase1_simplex


class CertStatus(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class TargetConstraint:
    """Target correlation for one settings pair."""

    settings: SettingsPair
    e: float

    def __post_init__(self):
        # written so that NaN fails too
        if not abs(self.e) <= 1.0:
            raise ValueError("target correlation must lie in [-1, 1]")


def grid_hash(u: np.ndarray, v: np.ndarray) -> str:
    """sha256 of the float64 bytes of u, then v, read from the array buffers
    (C-ordered float64 arrays, as hold copies and build_atom_grid freezes, are not copied)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(u, dtype=np.float64))
    h.update(np.ascontiguousarray(v, dtype=np.float64))
    return h.hexdigest()


@dataclass(frozen=True, eq=False)
class AtomGrid:
    """Candidate hidden-vector atoms (u_i, v_i), checked and hashed once.

    Holds the two (m, 3) float64 arrays through ``models.hold``, so neither
    the vectors nor grid_hash can change after the unit-norm check.
    """

    u: np.ndarray  # (m, 3) candidate hidden vectors for Alice's side
    v: np.ndarray  # (m, 3) candidate hidden vectors for Bob's side
    grid_hash: str = field(init=False)

    def __post_init__(self):
        u, v = sphere.unit_checked(self.u), sphere.unit_checked(self.v)
        if u.ndim != 2 or u.shape != v.shape:
            raise ValueError("atom grids must be matching (m, 3) arrays")
        hold(self, u=u, v=v, grid_hash=grid_hash(u, v))

    @property
    def n_atoms(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True, eq=False)
class CertificationProblem:
    """A grid and the LP of its targets, as ``build_problem`` writes it (the
    targets are not kept): ``lp`` is the solver's column matrix
    (``simplex.column_matrix``) of the p bound rows and the row sum w = 1,
    which phase 1 prices in place, and A_ub is its view ``lp[:p, :n_atoms]``.

    Every entry of A_ub is some |u.a +- v.b|, so A_ub >= 0, and every entry
    of b_ub is some 1 +- E with |E| <= 1 (TargetConstraint), so b_ub >= 0;
    a negative or NaN entry in either raises ValueError when the problem is
    built. The verifier relies on it: lam^T A_ub and lam^T b_ub are then
    also the sums of the absolute terms of those products; and the solver,
    which refuses a negative right-hand side, takes the rows as they are.
    b_ub must be 1-D, of some length p, and lp (p + 1, n_atoms + 2p + 1),
    or ValueError is raised: rows that miss atoms would let a proof about
    fewer atoms verify under the grid's hash. Both arrays are held by
    ``models.hold`` before the checks, so no later write can undo them:
    ``build_problem`` freezes its matrix, so it is kept, also by
    ``dataclasses.replace(problem, b_ub=...)``; any other lp is copied.
    Phase 1 refuses, with ValueError, an lp whose slack and artificial
    blocks are not ``column_matrix``'s.

    ``A_eq`` and ``b_eq`` are empty read-only stubs of 0 bytes, kept
    because perfbench/tracing.py reads them; nothing in this package does.
    """

    A_eq = b_eq = np.broadcast_to(0.0, 0)  # a broadcast view is read-only

    grid: AtomGrid
    b_ub: np.ndarray
    lp: np.ndarray

    def __post_init__(self):
        hold(self, b_ub=self.b_ub, lp=self.lp)
        b_ub, lp, n = self.b_ub, self.lp, self.n_atoms
        if b_ub.ndim != 1 or lp.shape != (b_ub.size + 1, n + 2 * b_ub.size + 1):
            raise ValueError(f"LP of shapes {b_ub.shape}, {lp.shape} is not (p,), (p + 1, {n} + 2p + 1)")
        # written so that NaN fails too
        if not (self.A_ub.min(initial=0.0) >= 0.0 and b_ub.min(initial=0.0) >= 0.0):
            raise ValueError("the bound rows A_ub and b_ub must be nonnegative and not NaN")

    @property
    def A_ub(self) -> np.ndarray:
        return self.lp[: self.b_ub.size, : self.n_atoms]

    @property
    def grid_hash(self) -> str:
        return self.grid.grid_hash

    @property
    def n_atoms(self) -> int:
        return self.grid.n_atoms


@dataclass(frozen=True, eq=False)
class Witness:
    """The feasible certificate: a weighting by its support, weight[k] on
    atom index[k] of n_atoms, zero elsewhere. A record that breaks the shape
    rules below raises ValueError when it is built, so the verifier can
    index by it; it then holds its arrays through ``models.hold``."""

    status = CertStatus.FEASIBLE
    margin = 0.0

    grid_hash: str
    n_atoms: int  # an int in [1, 2**63)
    index: np.ndarray  # 1-D int64, strictly increasing within [0, n_atoms)
    weight: np.ndarray  # float64, one per index; NaN and inf count as nonzero and are kept

    def __post_init__(self):
        n, index, weight = self.n_atoms, self.index, self.weight
        if not (is_integer(n) and 1 <= n < 2**63):
            raise ValueError(f"witness n_atoms must be an integer in [1, 2**63), got {n!r}")
        if not (isinstance(index, np.ndarray) and index.dtype == np.int64 and index.ndim == 1 and (
                index.size == 0 or (index[0] >= 0 and index[-1] < n and np.all(index[1:] > index[:-1])))):
            raise ValueError(f"witness index must be a 1-D int64 array increasing strictly within [0, {n})")
        if not (isinstance(weight, np.ndarray) and weight.dtype == np.float64 and weight.shape == index.shape):
            raise ValueError(f"witness has {index.size} indices but weights of shape {np.shape(weight)}")
        hold(self, index=index, weight=weight)

    def to_dict(self) -> dict:
        """JSON-ready form: the witness is written as its support."""
        return {"status": self.status.value, "grid_hash": self.grid_hash, "margin": self.margin, "witness": {
            "n_atoms": int(self.n_atoms), "index": self.index.tolist(), "weight": self.weight.tolist()}}


@dataclass(frozen=True, eq=False)
class Farkas:
    """The infeasible certificate: multipliers on the bound rows (farkas_ub,
    >= 0 when it proves anything) and the computed Farkas gap over the
    largest multiplier. Anything but a 1-D float64 array raises ValueError;
    it then holds the array through ``models.hold``."""

    status = CertStatus.INFEASIBLE

    grid_hash: str
    farkas_ub: np.ndarray
    margin: float

    def __post_init__(self):
        lam = self.farkas_ub
        if not (isinstance(lam, np.ndarray) and lam.dtype == np.float64 and lam.ndim == 1):
            raise ValueError("Farkas multipliers must be a 1-D float64 array")
        hold(self, farkas_ub=lam)

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {"status": self.status.value, "grid_hash": self.grid_hash, "margin": self.margin,
                "farkas_ub": self.farkas_ub.tolist()}


def _indices(values, name: str) -> np.ndarray:
    """Reader of a list of JSON integers in the int64 range, as int64: a
    float (1.0) or a boolean is refused, not converted."""
    if not isinstance(values, list) or not all(is_integer(i) and -2**63 <= i < 2**63 for i in values):
        raise ValueError(f"{name} must be a list of int64 integers")
    return np.array(values, dtype=np.int64)


# the form Witness.to_dict and Farkas.to_dict write, by status. The number
# lists and the Farkas margin are read with NaN and inf, which the verifier
# refuses.
WITNESS = (Field("n_atoms", typed(int, "an integer")), Field("index", _indices), Field("weight", float_array))
CERTIFICATES = {
    "feasible": (Field("grid_hash", TEXT), Field("margin", real(0.0, 0.0)),
                 Field("witness", partial(read_fields, WITNESS))),
    "infeasible": (Field("grid_hash", TEXT), Field("margin", lambda value, name: float(float_array([value], name)[0])),
                   Field("farkas_ub", float_array)),
}


def read_certificate(data) -> Witness | Farkas:
    """Read the form ``to_dict`` writes, through the table its status names
    in CERTIFICATES; anything else raises ValueError. The record checks its
    own rules; a witness's atom count is compared with a problem's when it
    is verified."""
    status, f = read_variant(data, "certificate", "status", CERTIFICATES)
    return Farkas(**f) if status == "infeasible" else Witness(f["grid_hash"], **f["witness"])


def build_atom_grid(n_u: int, n_v: int, n_mirrored: int = 0) -> AtomGrid:
    """Candidate atoms: the product of two Fibonacci lattices, plus an
    optional mirrored sub-grid (v = -u) covering anticorrelated models."""
    if n_u < 1 or n_v < 1:
        raise ValueError("lattice sizes must be >= 1")
    if n_mirrored < 0:
        raise ValueError("mirrored grid size must be >= 0")
    n = n_u * n_v
    u = np.empty((n + n_mirrored, 3))
    v = np.empty((n + n_mirrored, 3))
    # atom i * n_v + k pairs lattice point i of u with point k of v
    u[:n].reshape(n_u, n_v, 3)[:] = sphere.sphere_grid(n_u)[:, None]
    v[:n].reshape(n_u, n_v, 3)[:] = sphere.sphere_grid(n_v)
    if n_mirrored > 0:
        u[n:] = sphere.sphere_grid(n_mirrored)
        np.negative(u[n:], out=v[n:])
    u.setflags(write=False)  # frozen, so AtomGrid holds the arrays, not copies
    v.setflags(write=False)
    return AtomGrid(u, v)


def build_problem(grid: AtomGrid, constraints) -> CertificationProblem:
    """Assemble the LP rows: per settings pair j, the averaged bounds become

        sum_i w_i |u_i.a_j + v_i.b_j| <= 1 + E_j    (row 2j of A_ub)
        sum_i w_i |u_i.a_j - v_i.b_j| <= 1 - E_j    (row 2j + 1)

    The grid was checked when it was built, so only the rows are computed.
    They are written straight into the solver's column matrix
    (``simplex.column_matrix``), whose top-left block is A_ub and whose one
    equality row is the sum w = 1; the problem holds that matrix as ``lp``,
    and phase 1 prices it in place. Pairs that share a setting a (the same
    float64 bits) share one u.a projection, so no more than one alpha, one
    beta and the temporary of sphere.dots are held besides that matrix."""
    constraints = tuple(constraints)
    if len(constraints) == 0:
        raise ValueError("constraint list must be non-empty")
    u, v = grid.u, grid.v
    p, n = 2 * len(constraints), grid.n_atoms
    lp = column_matrix(n, p, 1)
    A_ub = lp[:p, :n]

    pairs_of_a: dict[bytes, list[int]] = {}
    for j, c in enumerate(constraints):
        pairs_of_a.setdefault(c.settings.a.tobytes(), []).append(j)
    for js in pairs_of_a.values():
        alpha = sphere.dots(u, constraints[js[0]].settings.a)
        for j in js:
            beta = sphere.dots(v, constraints[j].settings.b)
            kernels.abs_sum_diff(alpha, beta, out=(A_ub[2 * j], A_ub[2 * j + 1]))
            del beta  # no stale row is held through the next projection
        del alpha
    lp[p:, :n] = 1.0
    lp.setflags(write=False)  # so the problem keeps it: a later write would undo the A_ub >= 0 check

    return CertificationProblem(
        grid=grid,
        b_ub=np.asarray([rhs for c in constraints for rhs in (1.0 + c.e, 1.0 - c.e)]),
        lp=lp,
    )


def _farkas_combination(problem: CertificationProblem, lam) -> tuple[np.ndarray, float, float]:
    """The combination lam^T A_ub, its right-hand side lam^T b_ub, and the
    largest multiplier of lam >= 0.

    For any w in the simplex the combination times w is at least its
    smallest entry, while the rows force it to at most the right-hand
    side, so a positive gap between the two excludes every admissible w.
    """
    return lam @ problem.A_ub, float(lam @ problem.b_ub), float(lam.max(initial=0.0))


def solve(problem: CertificationProblem) -> Witness | Farkas:
    """Phase-1 feasibility solve over {w >= 0, sum w = 1, constraint rows}."""
    m = problem.n_atoms
    result = phase1_simplex(problem.A_ub, problem.b_ub, problem.lp[problem.b_ub.size :, :m], np.ones(1))

    if result.feasible:
        w = np.maximum(result.x, 0.0)
        index = np.flatnonzero(w)
        cert = Witness(problem.grid_hash, m, index, w[index])
    else:
        # the multipliers y on the original rows satisfy y^T A <= 0 (columns)
        # and y^T b > 0; the certificate stores lam = -y_ub >= 0 and drops
        # the last, normalization row (it cancels in the margin).
        lam = np.maximum(-result.y[:-1], 0.0)
        combo, value, scale = _farkas_combination(problem, lam)
        cert = Farkas(problem.grid_hash, lam, (float(combo.min()) - value) / scale if scale > 0.0 else 0.0)
        del result, combo  # no atom-length row is held through the verifier's own
    # the verifier also rejects a gap that is not positive: its proven gap
    # is never larger than the computed one
    if not verify_certificate(problem, cert):
        raise SolverFailure(f"{cert.status.value} certificate failed independent verification")
    return cert


_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative error bound of a
    float64 sum of n products, in any order and with or without FMA."""
    nu = n * _UNIT_ROUNDOFF
    return nu / (1.0 - nu)


# A priori bound on |A[i, j] - A_exact[i, j]| for every entry build_problem
# writes, where A_exact uses the normalized grid vectors and settings in
# exact arithmetic. Grid atoms (AtomGrid) and settings (SettingsPair) are
# held read-only after the unit-norm check, so a squared norm is within
# tau of 1 (the tolerance plus the rounding of that test); a clamped 3-term
# dot is then off by at most gamma_3 (1 + tau) + tau, since clamping to
# [-1, 1] only moves it toward the exact value. A row entry
# |alpha +- beta| adds two such errors and one rounding of a sum of size
# <= 2. tau uses 2 gamma_3 where (UNIT_NORM_TOL + gamma_3)/(1 - gamma_3)
# suffices; the surplus covers the rounding of the slack terms built from
# this constant.
_NORM_TAU = sphere.UNIT_NORM_TOL + 2.0 * _gamma(3)
_ENTRY_ERR = 2.0 * (_gamma(3) * (1.0 + _NORM_TAU) + _NORM_TAU) + 2.0 * _UNIT_ROUNDOFF


def verify_certificate(problem: CertificationProblem, cert: Witness | Farkas) -> bool:
    """Re-check a certificate from the problem arrays, trusting no solver state.

    Every product is computed in float64 and accepted only after an a
    priori bound on its rounding is charged against it: Higham's gamma_n
    times the sum of absolute terms, plus the entry error of the LP rows
    (_ENTRY_ERR) times the 1-norm of the multipliers or weights.

    A Farkas certificate is accepted when its multipliers are finite,
    lam >= 0, and the Farkas gap min_j (lam^T A_ub)_j - lam^T b_ub stays
    positive under that bound, and at least the claimed margin up to
    FEAS_TOL. It then proves that no weighting of the given float grid
    meets the rows, in exact arithmetic; it says nothing about
    distributions off the grid.

    A Witness is accepted when its weights are finite, none is below
    -FEAS_TOL, and every row residual and the normalization residual stay
    within FEAS_TOL after adding the bound. Only its support columns are
    read; a witness for another atom count raises ValueError.
    """
    if cert.grid_hash != problem.grid_hash:
        return False
    if isinstance(cert, Witness):
        if cert.n_atoms != problem.n_atoms:
            raise ValueError("witness has wrong dimensions")
        w = cert.weight
        if not np.isfinite(w).all() or (w < -FEAS_TOL).any():
            return False
        A_ub = problem.A_ub[:, cert.index]
        # n_atoms terms per dot, plus the rounded right-hand sides 1 +- e,
        # the subtraction and the evaluation of the bound itself
        g = _gamma(problem.n_atoms + 3)
        abs_w = np.abs(w)
        w_norm = float(abs_w.sum())
        entry = w_norm * _ENTRY_ERR
        # A_ub >= 0 and b_ub >= 0 (CertificationProblem): each is its own absolute value
        ub = A_ub @ w - problem.b_ub + g * (A_ub @ abs_w + problem.b_ub) + entry
        total = abs(float(w.sum()) - 1.0) + g * (w_norm + 1.0)
        return bool((ub <= FEAS_TOL).all() and total <= FEAS_TOL)

    lam = cert.farkas_ub
    if lam.shape != (problem.b_ub.shape[0],):
        raise ValueError("Farkas vector has wrong dimensions")
    if not np.isfinite(lam).all() or (lam < 0.0).any():
        return False
    gap, scale = _proven_gap(problem, lam)
    if scale <= 0.0:
        return False
    margin = gap / scale
    return margin > 0.0 and margin >= cert.margin - FEAS_TOL


def _proven_gap(problem: CertificationProblem, lam) -> tuple[float, float]:
    """The Farkas gap of finite multipliers lam >= 0 less the a priori bound
    on its rounding, and their scale (see ``_farkas_combination``).

    With lam >= 0, A_ub >= 0 and b_ub >= 0 (b_ub = 1 +- E with |E| <= 1),
    lam^T A_ub and lam^T b_ub are their own sums of absolute terms, so each
    product serves as the value and as its bound.
    """
    combo, value, scale = _farkas_combination(problem, lam)
    # one term per row, plus one each for the rounded right-hand sides
    # 1 +- e, the subtraction and the evaluation of the bound
    g = _gamma(lam.size + 3)
    entry = float(lam.sum()) * _ENTRY_ERR
    combo -= g * combo
    gap = float(combo.min()) - value - g * value - entry
    return gap, scale


def witness_distribution(problem: CertificationProblem, witness: Witness) -> SubensembleDistribution:
    """Convert a feasible witness into a model distribution."""
    if not isinstance(witness, Witness) or witness.n_atoms != problem.n_atoms:
        raise ValueError("only a witness on the problem's atoms gives a distribution")
    # the verifier accepts weights down to -FEAS_TOL: drop them before
    # normalizing, so the kept weights sum to 1 (a NaN is kept, and refused)
    keep = ~(witness.weight <= 0.0)
    w = witness.weight[keep]
    atoms = witness.index[keep]
    return SubensembleDistribution(problem.grid.u[atoms], problem.grid.v[atoms], w / math.fsum(w))

