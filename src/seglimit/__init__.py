"""Finite-difference toolkit for singularly perturbed elliptic systems
whose components segregate in the vanishing-diffusion-penalty limit.

The package constructs the segregated limit explicitly from m - 1 harmonic
difference fields, solves the m coupled equations at fixed epsilon by
monotone Newton on one reduced scalar equation started from that limit on
the same fields, and provides convergence-rate and free-boundary
diagnostics.
"""

__version__ = "0.1.0"

from .elliptic_core import (
    ScalarField,
    apply_laplacian,
    solve_harmonic,
    solve_screened,
)
from .epsilon_solver import SolveResult, solve_epsilon
from .errors import ConfigError, SolverError
from .geometry import BoundaryPoint, DomainSpec, Grid, NodeClass, boundary_points, build_grid
from .limit_solver import LimitResult, solve_limit
from .problem_data import (
    BoundaryDatum,
    CouplingWeights,
    Exponents,
    Piece,
    ProblemData,
)

__all__ = [
    "BoundaryDatum",
    "BoundaryPoint",
    "ConfigError",
    "CouplingWeights",
    "DomainSpec",
    "Exponents",
    "Grid",
    "LimitResult",
    "NodeClass",
    "Piece",
    "ProblemData",
    "ScalarField",
    "SolveResult",
    "SolverError",
    "apply_laplacian",
    "boundary_points",
    "build_grid",
    "solve_epsilon",
    "solve_harmonic",
    "solve_limit",
    "solve_screened",
    "__version__",
]
