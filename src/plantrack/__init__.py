"""Plan-then-track trade-off toolkit for the planar quadrotor climb task."""

from .collocation_planner import (
    InfeasibleProblemError,
    PlannedTrajectory,
    PlannerNumericalError,
    PlanProblem,
    solve,
)
from .error_estimator import lag_response_matrix
from .frontier import (
    FrontierPoint,
    SpringFit,
    best_compromise,
    spring_fit_from_points,
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
)

__all__ = [
    "ControllerSpec",
    "EigenvaluePair",
    "FrontierPoint",
    "InfeasibleProblemError",
    "ModelParams",
    "PlanProblem",
    "PlannedTrajectory",
    "PlannerNumericalError",
    "SimConfig",
    "SpringFit",
    "TrackingResult",
    "best_compromise",
    "control_law",
    "design_controller",
    "lag_response_matrix",
    "nonlinear_derivative",
    "reference_lookup",
    "select_step",
    "simulate",
    "solve",
    "spring_fit_from_points",
    "sweep",
]
