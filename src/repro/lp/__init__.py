"""Linear programming: problem IR, from-scratch simplex, max-min refinement."""

from .problem import Constraint, LinearProgram, LPSolution
from .revised import RevisedBackend, solve_revised
from .simplex import solve_simplex
from .solvers import register_backend, resolve_backend, solve, solve_scipy
from .sparse import CSRMatrix, SparseLP
from .maxmin import lexicographic_maxmin

__all__ = [
    "Constraint",
    "LinearProgram",
    "LPSolution",
    "CSRMatrix",
    "SparseLP",
    "solve_simplex",
    "solve_revised",
    "RevisedBackend",
    "solve",
    "solve_scipy",
    "register_backend",
    "resolve_backend",
    "lexicographic_maxmin",
]
