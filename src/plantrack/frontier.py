"""The frontier sweep over the design weight mu and its spring-model fit.

For one controller, re-solving the design problem over a grid of mu
values traces the design Pareto frontier (designed cost vs predicted
squared-error integral); tracking every designed trajectory maps each
point to the pseudo frontier (actual cost vs actual error).  The pseudo
frontier typically dips below its mu = 0 head: the neck.  Its geometry
is summarized by a Hooke's-law stiffness fitted from the head cost and
the largest cost decrease.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter

from ._artifact_csv import read_rows, write_records
from .collocation_planner import PlanProblem, solve
from .lqr import ControllerSpec
from .tracking_sim import SimConfig, simulate


class SweepError(RuntimeError):
    """A planner or simulator failure inside a sweep; carries mu.

    Its args are (mu, the cause's message), so it pickles whether or not
    the cause itself pickles.
    """

    def __init__(self, mu: float, cause: Exception | str):
        self.mu = mu
        self.reason = str(cause)
        super().__init__(mu, self.reason)

    def __str__(self):
        return f"sweep failed at mu = {self.mu:g}: {self.reason}"


@dataclass(frozen=True)
class FrontierPoint:
    """Design and tracked scores of one swept trajectory."""

    mu: float
    designed_cost: float
    predicted_error_integral: float
    actual_cost: float
    actual_error_integral: float
    trajectory_id: int

    def __post_init__(self):
        scalars = (
            self.mu,
            self.designed_cost,
            self.predicted_error_integral,
            self.actual_cost,
            self.actual_error_integral,
        )
        if not all(math.isfinite(s) and s >= 0 for s in scalars):
            raise ValueError("frontier point scalars must be finite and nonnegative")


@dataclass(frozen=True)
class SpringFit:
    """Hooke's-law summary of the pseudo frontier's neck.

    2b is the head (mu = 0) actual cost, a the largest decrease from it.
    With no neck (a = 0) the stiffness is reported as the +inf sentinel
    and neck_found stays False.
    """

    a: float
    b: float
    k: float
    neck_found: bool


def evaluate_point(
    controller: ControllerSpec,
    mu: float,
    problem_template: PlanProblem,
    step: float,
    trajectory_id: int,
) -> FrontierPoint:
    """Plan with the given weight, track the plan, score both curves."""
    problem = replace(
        problem_template, mu=mu, dominant_lambda=controller.dominant_lambda
    )
    try:
        traj = solve(problem)
        result = simulate(
            SimConfig(
                step=step,
                reference=traj,
                controller=controller,
                params=problem.params,
            )
        )
        return FrontierPoint(
            mu=mu,
            designed_cost=traj.designed_cost,
            predicted_error_integral=traj.predicted_error_integral,
            actual_cost=result.actual_cost,
            actual_error_integral=result.actual_error_integral,
            trajectory_id=trajectory_id,
        )
    except Exception as exc:
        raise SweepError(mu, exc) from exc


def sweep(
    controller: ControllerSpec,
    mu_grid,
    problem_template: PlanProblem,
    step: float,
) -> tuple[FrontierPoint, ...]:
    """The frontier points of one controller over an ascending mu grid,
    in grid order; the first point that fails raises its SweepError.

    The grid must start at 0 (the unweighted head point).
    """
    grid = [float(mu) for mu in mu_grid]
    if not grid:
        raise ValueError("mu grid is empty")
    if grid[0] != 0.0:
        raise ValueError("mu grid must start at 0")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("mu grid must be strictly ascending")
    return tuple(
        evaluate_point(controller, mu, problem_template, step, index)
        for index, mu in enumerate(grid)
    )


def best_compromise(points) -> FrontierPoint:
    """Point with the least actual cost; ties go to the earlier point."""
    if not points:
        raise ValueError("frontier is empty")
    return min(points, key=attrgetter("actual_cost"))


def spring_constant(a: float, b: float) -> float:
    """Stiffness of the neck geometry: k = 1 / (4a (1 - (1+(a/b)^2)^(-1/2))).

    Evaluated in the equal form k = h (h + b/a) / (4a), h = sqrt(1+(b/a)^2),
    which keeps its digits when a << b, where 1 - (...) cancels.
    """
    if a < 0 or b <= 0:
        raise ValueError("need a >= 0 and b > 0")
    if a == 0.0:
        return math.inf
    q = b / a
    h = math.hypot(1.0, q)
    return h * (h + q) / (4.0 * a)


def spring_fit_from_points(points) -> SpringFit:
    """Fit the spring model from frontier points (first one at mu = 0)."""
    if not points or points[0].mu != 0.0:
        raise ValueError("spring fit needs the mu = 0 head point first")
    head = points[0].actual_cost
    if head <= 0:
        raise ValueError("head actual cost must be positive")
    a = head - best_compromise(points).actual_cost
    b = head / 2.0
    return SpringFit(a=a, b=b, k=spring_constant(a, b), neck_found=a > 0.0)


FRONTIER_COLUMNS = {
    "mu": "mu",
    "designed_cost": "designed_cost",
    "predicted_error_sq_integral": "predicted_error_integral",
    "actual_cost": "actual_cost",
    "actual_error_sq_integral": "actual_error_integral",
}


def write_frontier_csv(points, path) -> None:
    write_records(path, FRONTIER_COLUMNS, points)


def read_frontier_points(path) -> list[FrontierPoint]:
    fields = FRONTIER_COLUMNS.values()
    return [
        FrontierPoint(**dict(zip(fields, row)), trajectory_id=index)
        for index, row in enumerate(read_rows(path, FRONTIER_COLUMNS).tolist())
    ]
