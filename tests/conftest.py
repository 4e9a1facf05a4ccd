import numpy as np
import pytest

from oracles import trapezoid_quadrature
from plantrack.collocation_planner import PlannedTrajectory
from plantrack.lqr import EigenvaluePair
from plantrack.model import ModelParams

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


@pytest.fixture
def params():
    return ModelParams()


@pytest.fixture
def paper_pairs():
    return [
        EigenvaluePair(lambda_slow=slow, lambda_fast=fast)
        for slow, fast in PAPER_PAIRS
    ]
