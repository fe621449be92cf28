"""Simulation and certification toolkit for Leggett-type hidden-variable models.

Builds hidden-variable models with Malus-law conditional marginals, checks the
averaged correlation bounds they must obey (the pointwise identity taken first
over each atom's conditional law, then over the atoms), and uses
linear-programming feasibility (with Farkas infeasibility certificates) to show
that quantum singlet correlations admit no such model.
"""

__version__ = "0.1.0"
