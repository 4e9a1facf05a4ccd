"""Frontier sweep over the design weight mu and its spring-model fit.

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

import numpy as np

from ._artifact_csv import read_rows, write_rows
from .collocation_planner import PlanProblem, solve
from .lqr import ControllerSpec
from .tracking_sim import SimConfig, select_step, simulate


class SweepError(RuntimeError):
    """A planner or simulator failure inside a sweep; carries mu.

    It pickles as (mu, the cause's message), so a failure inside a pool
    worker reaches the parent whether or not the cause itself pickles.
    """

    def __init__(self, mu: float, cause: Exception | str):
        super().__init__(f"sweep failed at mu = {mu:g}: {cause}")
        self.mu = mu
        self.reason = str(cause)

    def __reduce__(self):
        return type(self), (self.mu, self.reason)


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
class Frontier:
    controller: ControllerSpec
    points: tuple[FrontierPoint, ...]

    def __post_init__(self):
        mus = [p.mu for p in self.points]
        if any(b <= a for a, b in zip(mus, mus[1:])):
            raise ValueError("points must be ordered by strictly ascending mu")


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


def _evaluate_star(job) -> FrontierPoint:
    return evaluate_point(*job)


def sweep(
    controller: ControllerSpec,
    mu_grid,
    problem_template: PlanProblem,
    step: float | None = None,
    mapper=None,
) -> Frontier:
    """Build the frontier for one controller over an ascending mu grid.

    The grid must start at 0 (the unweighted head point).  `mapper` is
    a map-compatible callable; passing an executor's map runs the per-mu
    jobs concurrently, and since the reduction preserves grid order the
    result does not depend on the worker count.
    """
    grid = [float(mu) for mu in mu_grid]
    if not grid:
        raise ValueError("mu grid is empty")
    if grid[0] != 0.0:
        raise ValueError("mu grid must start at 0")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("mu grid must be strictly ascending")
    if step is None:
        step = select_step(controller, problem_template.horizon)
    jobs = [
        (controller, mu, problem_template, step, index)
        for index, mu in enumerate(grid)
    ]
    run = mapper if mapper is not None else map
    points = tuple(run(_evaluate_star, jobs))
    return Frontier(controller=controller, points=points)


def best_compromise(frontier: Frontier) -> FrontierPoint:
    """Point with the least actual cost; ties go to the smaller mu."""
    if not frontier.points:
        raise ValueError("frontier is empty")
    best = frontier.points[0]
    for point in frontier.points[1:]:
        if point.actual_cost < best.actual_cost:
            best = point
    return best


def frontier_gap(frontier: Frontier) -> float:
    """Mean absolute gap between actual and designed cost."""
    if not frontier.points:
        raise ValueError("frontier is empty")
    return float(
        np.mean([abs(p.actual_cost - p.designed_cost) for p in frontier.points])
    )


def spring_constant(a: float, b: float) -> float:
    """Stiffness of the neck geometry: k = 1 / (4a (1 - (1+(a/b)^2)^(-1/2)))."""
    if a < 0 or b <= 0:
        raise ValueError("need a >= 0 and b > 0")
    if a == 0.0:
        return math.inf
    return 1.0 / (4.0 * a * (1.0 - (1.0 + (a / b) ** 2) ** -0.5))


def spring_fit_from_points(points) -> SpringFit:
    """Fit the spring model from frontier points (first one at mu = 0)."""
    points = list(points)
    if not points or points[0].mu != 0.0:
        raise ValueError("spring fit needs the mu = 0 head point first")
    head = points[0].actual_cost
    if head <= 0:
        raise ValueError("head actual cost must be positive")
    floor = min(p.actual_cost for p in points)
    a = head - floor
    b = head / 2.0
    return SpringFit(a=a, b=b, k=spring_constant(a, b), neck_found=a > 0.0)


def spring_fit(frontier: Frontier) -> SpringFit:
    return spring_fit_from_points(frontier.points)


FRONTIER_COLUMNS = (
    "mu",
    "designed_cost",
    "predicted_error_sq_integral",
    "actual_cost",
    "actual_error_sq_integral",
)


class FrontierSchemaError(ValueError):
    """Frontier CSV does not match the expected column layout."""


def write_frontier_csv(frontier: Frontier, path) -> None:
    rows = (
        (
            p.mu,
            p.designed_cost,
            p.predicted_error_integral,
            p.actual_cost,
            p.actual_error_integral,
        )
        for p in frontier.points
    )
    write_rows(path, FRONTIER_COLUMNS, rows)


def read_frontier_points(path) -> list[FrontierPoint]:
    data = read_rows(path, FRONTIER_COLUMNS, FrontierSchemaError)
    return [
        FrontierPoint(
            mu=float(row[0]),
            designed_cost=float(row[1]),
            predicted_error_integral=float(row[2]),
            actual_cost=float(row[3]),
            actual_error_integral=float(row[4]),
            trajectory_id=index,
        )
        for index, row in enumerate(data)
    ]
