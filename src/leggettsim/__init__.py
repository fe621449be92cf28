"""Simulation and certification toolkit for Leggett-type hidden-variable models.

Builds hidden-variable models with Malus-law conditional marginals, checks the
pointwise / conditional / averaged correlation bounds they must obey, and uses
linear-programming feasibility (with Farkas infeasibility certificates) to show
that quantum singlet correlations admit no such model.
"""

__version__ = "0.1.0"

from .sphere import dot, make_rng, random_unit_vectors, sphere_grid, unit_vector
from .models import (
    Coupling,
    LeggettModel,
    SettingsPair,
    SubensembleDistribution,
    conditional_marginals,
    exact_model_correlation,
    joint_conditional_law,
    outcome_law,
)
from .quantum import ChshScenario, chsh_value, singlet_correlation
from .bounds import (
    BoundsVerdict,
    LeggettBounds,
    averaged_bounds,
    check_bounds,
    conditional_bounds,
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
    "conditional_bounds",
    "conditional_marginals",
    "dot",
    "estimate_correlation",
    "exact_model_correlation",
    "joint_conditional_law",
    "make_rng",
    "optimize_settings",
    "outcome_law",
    "pointwise_identity",
    "random_unit_vectors",
    "settings_family",
    "singlet_correlation",
    "solve",
    "sphere_grid",
    "unit_vector",
    "verify_certificate",
]
