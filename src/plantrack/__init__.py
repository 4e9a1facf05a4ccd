"""Plan-then-track trade-off toolkit for the planar quadrotor climb task."""

from .collocation_planner import (
    InfeasibleProblemError,
    PlannedTrajectory,
    PlannerNumericalError,
    PlanProblem,
    solve,
)
from .error_estimator import (
    ErrorSeries,
    VelocityProfile,
    error_discrete_limit_form,
    error_integral_form,
    error_sum_discretization,
    lag_response_matrix,
    trapezoid_quadrature,
)
from .frontier import (
    Frontier,
    FrontierPoint,
    SpringFit,
    best_compromise,
    frontier_gap,
    spring_fit,
    sweep,
)
from .lqr import ControllerSpec, EigenvaluePair, control_law, design_controller
from .model import ModelParams, nonlinear_derivative
from .tracking_sim import (
    SimConfig,
    TrackingResult,
    reference_lookup,
    select_step,
    simulate,
    simulate_planar,
)

__all__ = [
    "ControllerSpec",
    "EigenvaluePair",
    "ErrorSeries",
    "Frontier",
    "FrontierPoint",
    "InfeasibleProblemError",
    "ModelParams",
    "PlanProblem",
    "PlannedTrajectory",
    "PlannerNumericalError",
    "SimConfig",
    "SpringFit",
    "TrackingResult",
    "VelocityProfile",
    "best_compromise",
    "control_law",
    "design_controller",
    "error_discrete_limit_form",
    "error_integral_form",
    "error_sum_discretization",
    "frontier_gap",
    "lag_response_matrix",
    "nonlinear_derivative",
    "reference_lookup",
    "select_step",
    "simulate",
    "simulate_planar",
    "solve",
    "spring_fit",
    "sweep",
    "trapezoid_quadrature",
]
