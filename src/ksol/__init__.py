"""Numerical laboratory for rotationally symmetric k-Yamabe gradient
solitons: phase-plane reduction, local existence by contraction mapping,
global orbit classification, profile reconstruction and decay-rate
verification.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    KsolError,
    NotApplicableError,
    ParameterError,
)
from .phase import PhaseState, SolitonParams, make_params
from .picard import LocalSolution, picard_solve, picard_solve_at_A
from .orbit import OrbitControls, OrbitTrace, classify_orbit, integrate, run_orbit, run_orbits
from .profile import ProfileTable, admissible_samples, reconstruct_u, tail_rate

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "KsolError",
    "LocalSolution",
    "NotApplicableError",
    "OrbitControls",
    "OrbitTrace",
    "ParameterError",
    "PhaseState",
    "ProfileTable",
    "SolitonParams",
    "admissible_samples",
    "classify_orbit",
    "integrate",
    "make_params",
    "picard_solve",
    "picard_solve_at_A",
    "reconstruct_u",
    "run_orbit",
    "run_orbits",
    "tail_rate",
]
