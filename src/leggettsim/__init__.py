"""Simulation and certification toolkit for Leggett-type hidden-variable models.

Builds hidden-variable models with Malus-law conditional marginals, checks the
averaged correlation bounds they must obey (the pointwise identity taken first
over each atom's conditional law, then over the atoms), and uses
linear-programming feasibility (with Farkas infeasibility certificates) to show
that quantum singlet correlations admit no such model.
"""

__version__ = "0.1.0"

from .sphere import make_rng, random_unit_vectors, sphere_grid
from .models import (
    Coupling,
    LeggettModel,
    SettingsPair,
    SubensembleDistribution,
    exact_model_correlation,
    outcome_law,
)
from .quantum import ChshScenario, chsh_value, singlet_correlation
from .bounds import (
    BoundsVerdict,
    LeggettBounds,
    averaged_bounds,
    check_bounds,
    pointwise_identity,
)
from .montecarlo import CorrelationEstimate, estimate_correlation
from .certify import (
    AtomGrid,
    CertificationProblem,
    FeasibilityCertificate,
    SolverFailure,
    TargetConstraint,
    build_atom_grid,
    build_problem,
    solve,
    verify_certificate,
)
from .optimize import optimize_settings, settings_family

__all__ = [
    "AtomGrid",
    "BoundsVerdict",
    "CertificationProblem",
    "ChshScenario",
    "CorrelationEstimate",
    "Coupling",
    "FeasibilityCertificate",
    "LeggettBounds",
    "LeggettModel",
    "SettingsPair",
    "SolverFailure",
    "SubensembleDistribution",
    "TargetConstraint",
    "averaged_bounds",
    "build_atom_grid",
    "build_problem",
    "check_bounds",
    "chsh_value",
    "estimate_correlation",
    "exact_model_correlation",
    "make_rng",
    "optimize_settings",
    "outcome_law",
    "pointwise_identity",
    "random_unit_vectors",
    "settings_family",
    "singlet_correlation",
    "solve",
    "sphere_grid",
    "verify_certificate",
]
