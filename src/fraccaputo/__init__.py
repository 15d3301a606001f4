"""Fast evaluation of fractional time derivatives of order in (0, 1).

Kernel compression into sums of decaying exponentials, four streaming
derivative evaluators (direct, two fast mode-based rules, binomial
baseline), a 1D fractional diffusion solver with nonreflecting
fractional boundaries, and a benchmark CLI.
"""

from .pde import (
    DiffusionProblem,
    SolveReport,
    SpaceGrid,
    manufactured_problem,
    nonlinear_problem,
    solve,
)
from .property_suite import theorem_constants, truncation_bound
from .quadrature import ConstructionError, QuadRule, gauss_jacobi_power, gauss_legendre
from .schemes import TimeGrid, caputo_reference, new_history
from .soe import (
    SoEApproximation,
    SoEParams,
    build_soe,
    soe_error_bound_terms,
    soe_eval,
    soe_max_error,
    tail_integral,
)

__all__ = [
    "ConstructionError",
    "DiffusionProblem",
    "QuadRule",
    "SoEApproximation",
    "SoEParams",
    "SolveReport",
    "SpaceGrid",
    "TimeGrid",
    "build_soe",
    "caputo_reference",
    "gauss_jacobi_power",
    "gauss_legendre",
    "manufactured_problem",
    "new_history",
    "nonlinear_problem",
    "soe_error_bound_terms",
    "soe_eval",
    "soe_max_error",
    "solve",
    "tail_integral",
    "theorem_constants",
    "truncation_bound",
]

__version__ = "0.1.0"
