"""Optimal covariance steering for linear stochastic systems.

Solves the finite-horizon steering of a state covariance between two
positive definite endpoints for continuous-time linear systems driven by
additive and state-dependent (multiplicative) martingale noise, minimizing
a quadratic state/control cost.  Submodules: matfun (polynomial matrix
functions), transition (Hamiltonian transition blocks), riccati, steering
(boundary solve), controllability, sde_sim (jump-diffusion Monte Carlo),
cli (batch tool).
"""

from .controllability import (
    ControllabilityReport,
    FeasibleSteering,
    ScalarSteeringProblem,
    canonical_transform,
    classify,
    construct_feasible_steering,
    scalar_steering_u,
    theta_matrices,
)
from .matfun import (
    BoundaryData,
    MatrixPoly,
    SystemSpec,
    unvec,
    validate_system,
    vec,
)
from .riccati import (
    RiccatiSolution,
    existence_check,
    integrate_general,
    maximal_interval,
    solve_closed_form,
)
from .sde_sim import (
    NoiseComponent,
    NoiseModel,
    SimulationConfig,
    SimulationResult,
    covariance_standard_error,
    derive_intensities,
    empirical_moments,
    simulate_paths,
)
from .steering import (
    JacobianWorkspace,
    SteeringSolution,
    feedback_gain,
    jacobian_f,
    map_f,
    optimal_cost,
    propagate_covariance,
    solve_boundary,
    special_case_pi0,
)
from .transition import (
    GramianCheck,
    TransitionBlocks,
    TransitionPath,
    gramian_identity,
    pi_bounds,
    symplectic_residuals,
    transition_blocks,
)

__all__ = [
    "BoundaryData",
    "ControllabilityReport",
    "FeasibleSteering",
    "GramianCheck",
    "JacobianWorkspace",
    "MatrixPoly",
    "NoiseComponent",
    "NoiseModel",
    "RiccatiSolution",
    "ScalarSteeringProblem",
    "SimulationConfig",
    "SimulationResult",
    "SteeringSolution",
    "SystemSpec",
    "TransitionBlocks",
    "TransitionPath",
    "canonical_transform",
    "classify",
    "construct_feasible_steering",
    "covariance_standard_error",
    "derive_intensities",
    "empirical_moments",
    "existence_check",
    "feedback_gain",
    "gramian_identity",
    "integrate_general",
    "jacobian_f",
    "map_f",
    "maximal_interval",
    "optimal_cost",
    "pi_bounds",
    "propagate_covariance",
    "scalar_steering_u",
    "simulate_paths",
    "solve_boundary",
    "solve_closed_form",
    "special_case_pi0",
    "symplectic_residuals",
    "theta_matrices",
    "transition_blocks",
    "unvec",
    "validate_system",
    "vec",
]

__version__ = "0.1.0"
