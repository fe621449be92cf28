"""Search for settings families that certify infeasibility of singlet targets.

A settings family maps a small real parameter vector to a list of target
constraints (correlations from the singlet prediction).
The optimizer runs a random-restart pattern search (coordinate steps with
shrinking radius) maximizing the certified infeasibility margin; the
margin of a feasible problem counts as zero. With several atom grids the
objective is the worst margin across them; a violation that every grid
shows can still be an artifact of discretization (planar-chsh is one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import sphere
from .certify import AtomGrid, TargetConstraint, build_problem, solve
from .models import SettingsPair, hold
from .quantum import planar_scenario, singlet_correlation

SHRINK = 0.5  # pattern search: step factor after a sweep that finds no improvement
MIN_STEP = 1e-3  # a restart ends once its step falls below this


@dataclass(frozen=True, eq=False)
class SettingsFamily:
    """A named map from a parameter vector in the box [lower, upper] to
    singlet targets. It holds read-only float64 copies of its bounds, and
    ``build`` refuses a vector whose length is not the box's."""

    name: str
    lower: np.ndarray  # per-parameter search bounds
    upper: np.ndarray
    builder: Callable[[np.ndarray], list[TargetConstraint]]

    def __post_init__(self):
        hold(self, lower=np.array(self.lower, dtype=np.float64), upper=np.array(self.upper, dtype=np.float64))

    @property
    def n_params(self) -> int:
        return self.lower.shape[0]

    def build(self, params: np.ndarray) -> list[TargetConstraint]:
        if len(params) != self.n_params:
            raise ValueError(f"family {self.name!r} takes {self.n_params} params")
        return self.builder(params)


def singlet_target(s: SettingsPair) -> TargetConstraint:
    """The singlet's correlation -a.b at ``s``."""
    return TargetConstraint(settings=s, e=singlet_correlation(s))


# rows of the identity, as Python floats
_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _orthogonal_doublets(params: np.ndarray) -> list[TargetConstraint]:
    """Six pairs: for each coordinate axis e, Bob measures the two
    directions cos(t/2) m +/- sin(t/2) e with m orthogonal to e (rotated
    by the per-axis angle), while Alice measures m. The two bound rows of
    such a doublet jointly cap the mean of |v.e|, and no distribution on
    the sphere can keep that small along three orthogonal axes at once.

    The 3-vectors are formed in Python floats, term by term as numpy's
    elementwise products and sums of the axis rows would form them (the
    products with 0.0 included, as they fix the sign of a zero), so the
    targets have the bits of that arithmetic at a fraction of its calls."""
    theta, psis = params[0], params[1:]
    ct, st = float(np.cos(theta / 2.0)), float(np.sin(theta / 2.0))
    others = [(1, 2), (2, 0), (0, 1)]
    out = []
    for i in range(3):
        e = _AXES[i]
        j, k = others[i]
        cp, sp = float(np.cos(psis[i])), float(np.sin(psis[i]))
        m = [cp * aj + sp * ak for aj, ak in zip(_AXES[j], _AXES[k])]
        b_plus = [ct * mt + st * et for mt, et in zip(m, e)]
        b_minus = [ct * mt - st * et for mt, et in zip(m, e)]
        out.append(singlet_target(SettingsPair(m, sphere.normalize(b_plus))))
        out.append(singlet_target(SettingsPair(m, sphere.normalize(b_minus))))
    return out


def _planar_chsh(params: np.ndarray) -> list[TargetConstraint]:
    """Four CHSH-style pairs with all directions in the xy-plane."""
    return [singlet_target(s) for s in planar_scenario(*params)]


FAMILIES = {family.name: family for family in (
    SettingsFamily("orthogonal-doublets", [0.05, 0.0, 0.0, 0.0], [2.0] + [2.0 * np.pi] * 3, _orthogonal_doublets),
    SettingsFamily("planar-chsh", np.zeros(4), np.full(4, 2.0 * np.pi), _planar_chsh),
)}


def certified_margin(family: SettingsFamily, params: np.ndarray, grids: Sequence[AtomGrid]) -> tuple[float, ...]:
    """Per-grid infeasibility margins at one parameter point (0 when feasible)."""
    constraints = family.build(params)
    margins = []
    for grid in grids:
        cert = solve(build_problem(grid, constraints))
        margins.append(cert.margin)
    return tuple(margins)


def pattern_search(
    objective: Callable[[np.ndarray], float],
    lower: np.ndarray,
    upper: np.ndarray,
    budget: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Maximize over a box via random-restart coordinate pattern search.

    The objective is called exactly ``budget`` times, and the best point
    it was called at is returned."""
    if budget < 1:
        raise ValueError("evaluation budget must be >= 1")
    span = upper - lower
    best_x, best_f = None, -np.inf
    evals = 0
    while evals < budget:
        x = lower + span * rng.random(lower.shape[0])
        f = objective(x)
        evals += 1
        step = 0.25
        while step >= MIN_STEP and evals < budget:
            improved = False
            for i in range(x.shape[0]):
                for sign in (1.0, -1.0):
                    if evals >= budget:
                        break
                    trial = x.copy()
                    trial[i] = np.clip(trial[i] + sign * step * span[i], lower[i], upper[i])
                    ft = objective(trial)
                    evals += 1
                    if ft > f:
                        x, f = trial, ft
                        improved = True
            if not improved:
                step *= SHRINK
        if f > best_f:
            best_x, best_f = x, f
    return best_x


def optimize_settings(
    family: SettingsFamily, grids: Sequence[AtomGrid], budget: int, seed: int
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Search the family's parameters for the largest certified margin, and
    return the best parameters with their per-grid margins.

    Deterministic given the seed; the objective is the minimum margin over
    the supplied grids, each checked and hashed once when it was built.
    """
    rng = sphere.make_rng(seed, stream_id=0)

    def objective(params: np.ndarray) -> float:
        return min(certified_margin(family, params, grids))

    best = pattern_search(objective, family.lower, family.upper, budget, rng)
    return best, certified_margin(family, best, grids)
