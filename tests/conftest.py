from dataclasses import replace

import numpy as np
import pytest

from oracles import simulate_planar, trapezoid_quadrature
from plantrack.cli import RunConfig
from plantrack.collocation_planner import PlannedTrajectory, solve
from plantrack.lqr import EigenvaluePair
from plantrack.model import ModelParams
from plantrack.tracking_sim import SimConfig

PAPER_PAIRS = (
    (-10.0, -100.0),
    (-20.0, -200.0),
    (-30.0, -300.0),
    (-50.0, -500.0),
)


def make_reference(times, y, v, a, params=None) -> PlannedTrajectory:
    """Assemble a PlannedTrajectory directly from knot arrays.

    Used to feed hand-built references (constants, ramps, analytic
    cubics) to the simulator without going through the planner.
    """
    params = params or ModelParams()
    times = np.asarray(times, dtype=float)
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    return PlannedTrajectory(
        times=times,
        y=y,
        v=v,
        a=a,
        u=params.mass * (a + params.gravity),
        predicted_error=np.zeros_like(y),
        designed_cost=trapezoid_quadrature(times, a**2),
        predicted_error_integral=0.0,
        mu=None,
    )


def constant_reference(level, horizon, knots=61, params=None) -> PlannedTrajectory:
    times = np.linspace(0.0, horizon, knots)
    return make_reference(
        times,
        np.full(knots, float(level)),
        np.zeros(knots),
        np.zeros(knots),
        params,
    )


def sim_configs(config):
    """One SimConfig per point of a config's sweep grid, planned as the sweep does."""
    template = config.problem_template()
    for controller in config.controllers.values():
        step = config.step_for(controller)
        for mu in config.mu_grid():
            traj = solve(replace(template, mu=mu, dominant_lambda=controller.dominant_lambda))
            yield SimConfig(
                step=step, reference=traj, controller=controller, params=config.params
            )


@pytest.fixture(scope="session")
def default_flights():
    """The 124 points of the default sweep grid, each as (SimConfig, its
    six-state simulate_planar flight)."""
    return [(config, simulate_planar(config)) for config in sim_configs(RunConfig())]


@pytest.fixture
def params():
    return ModelParams()


@pytest.fixture
def paper_pairs():
    return [
        EigenvaluePair(lambda_slow=slow, lambda_fast=fast)
        for slow, fast in PAPER_PAIRS
    ]
