"""Test-only references the library is checked against; none runs in the pipeline.

- ``error_integral_form`` is the planner's lag path (``lag_response_matrix``
  then ``apply_lag``) on a checked ``VelocityProfile``; criterion 2 holds it
  to ``rk4_lag_at_knots``, an RK4 integration of the lag ODE.  The finite-n
  forms converge to it, and criterion 3 holds ``error_discrete_limit_form``
  to the closed value.
- ``frontier_gap``, the mean |actual - designed| cost, is criterion 7's
  statistic.
- ``trapezoid_quadrature`` checks that a grid is uniform, as the readers
  do, and integrates samples on it with the pipeline's trapezoid rule.
- ``simulate_planar`` integrates all six rigid-body states with the lateral
  and attitude PD loops live.  It steps over ``simulate``'s stage references
  and scores through its ``_result``, so ``simulate`` must match it bit for
  bit (the ``.tobytes()`` tests); it is also criterion 9's model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from plantrack.error_estimator import (
    _trapezoid,
    _uniform_spacing,
    apply_lag,
    lag_response_matrix,
)
from plantrack.lqr import control_law
from plantrack.model import nonlinear_derivative
from plantrack.tracking_sim import SimConfig, SimulationDivergedError, TrackingResult
from plantrack.tracking_sim import _result, _stage_references

# PD gains of the dormant loops: lateral position and attitude.
_POSITION_GAIN_D = 10.0
_POSITION_GAIN_P = 100.0
_ATTITUDE_GAIN_D = 80.0
_ATTITUDE_GAIN_P = 100.0


@dataclass(frozen=True)
class VelocityProfile:
    """Reference velocity sampled on a uniform grid starting at t = 0.

    Between knots the profile is the piecewise-linear interpolant; the
    finite-n forms sample it off-grid that way.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.shape != values.shape:
            raise ValueError("times and values must have matching shape")
        if times.size and times[0] != 0.0:
            raise ValueError("profile must start at t = 0")
        _uniform_spacing(times)

    @property
    def dt(self) -> float:
        return _uniform_spacing(self.times)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def sample(self, t: np.ndarray) -> np.ndarray:
        return np.interp(t, self.times, self.values)


def error_integral_form(profile: VelocityProfile, lam: float) -> np.ndarray:
    """Predicted error e(t_k) at every knot via the integral (quadrature)
    form; e(0) is 0."""
    if lam <= 0:
        raise ValueError("lam must be a positive decay rate")
    return apply_lag(lag_response_matrix(profile.times, lam), profile.values)


def rk4_lag_at_knots(
    times: np.ndarray, values: np.ndarray, lam: float, substeps: int = 40
) -> np.ndarray:
    """RK4 of the lag ODE e' = v(t) - lam e, e(0) = 0, at every knot.

    ``values`` is one velocity profile on the uniform grid ``times``, or
    one per row; each is linear between knots and is integrated, all rows
    at once, with ``substeps`` RK4 steps per knot interval.  Returns e at
    the knots, shaped as ``values``.
    """
    values = np.asarray(values, dtype=float)
    rows = np.atleast_2d(values)
    steps = (times.size - 1) * substeps
    h = (times[1] - times[0]) / substeps
    half_grid = np.linspace(0.0, times[-1], 2 * steps + 1)
    v = np.array([np.interp(half_grid, times, row) for row in rows])
    e = np.zeros(rows.shape[0])
    knot_values = [e]
    for step in range(steps):
        v0, vm, v1 = v[:, 2 * step], v[:, 2 * step + 1], v[:, 2 * step + 2]
        k1 = v0 - lam * e
        k2 = vm - lam * (e + 0.5 * h * k1)
        k3 = vm - lam * (e + 0.5 * h * k2)
        k4 = v1 - lam * (e + h * k3)
        e = e + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % substeps == 0:
            knot_values.append(e)
    return np.array(knot_values).T.reshape(values.shape)


def error_discrete_limit_form(profile: VelocityProfile, lam: float, n: int) -> float:
    """Finite-n estimate of the error at the profile's final time.

    e(t, n) = (t/n) * sum_{i=1..n} v_ref((t/n) i) * (1 - p)^(n+1-i)
    with p = 1 - exp(-lam t / n).  The sum converges to the integral
    form as n grows.
    """
    if lam <= 0:
        raise ValueError("lam must be a positive decay rate")
    if n < 1:
        raise ValueError("n must be at least 1")
    t = profile.horizon
    step = t / n
    p = -math.expm1(-lam * step)
    i = np.arange(1, n + 1)
    samples = profile.sample(step * i)
    weights = (1.0 - p) ** (n + 1.0 - i)
    return float(step * np.dot(samples, weights))


def error_sum_discretization(profile: VelocityProfile, lam: float, n: int) -> float:
    """Riemann-sum discretization of the integral form at the final time.

    e(t, n) = exp(-lam t) * sum_{i=1..n} v_ref((t/n) i) exp(+lam (t/n) i) (t/n),
    evaluated with combined exponents.  Kept for comparison with the
    finite-n form above; the two agree only in the n -> infinity limit.
    """
    if lam <= 0:
        raise ValueError("lam must be a positive decay rate")
    if n < 1:
        raise ValueError("n must be at least 1")
    t = profile.horizon
    step = t / n
    tau = step * np.arange(1, n + 1)
    samples = profile.sample(tau)
    return float(step * np.dot(samples, np.exp(-lam * (t - tau))))


def frontier_gap(points) -> float:
    """Mean absolute gap between actual and designed cost."""
    if not points:
        raise ValueError("frontier is empty")
    return float(np.mean([abs(p.actual_cost - p.designed_cost) for p in points]))


def trapezoid_quadrature(times: np.ndarray, values: np.ndarray) -> float:
    """Integrate samples on a uniform grid with the trapezoid weight row."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != times.shape:
        raise ValueError("times and values must have matching shape")
    _uniform_spacing(times)
    return _trapezoid(times, values)


def simulate_planar(config: SimConfig) -> TrackingResult:
    """Run the closed loop from the trimmed initial state on all 6 states.

    Per stage: altitude thrust from the LQR law on (y, y_dot) and the
    interpolated reference; commanded lateral acceleration from the PD
    law with zero reference; commanded pitch from small-angle thrust
    inversion q_cmd = -M x_ddot_cmd / thrust; differential thrust from
    the attitude PD law.  The rotor pair is recovered from sum and
    difference and drives the nonlinear model.  The six states step as
    one sequence through one RK4 update, the expression ``simulate``
    writes out for (y, y_dot).
    """
    spec = config.controller
    params = config.params
    mass = params.mass
    arm = params.arm_length

    def stage(y_ref, x, y, q, xd, yd, qd):
        thrust = control_law(spec, y, yd, y_ref, params)
        xdd_cmd = -_POSITION_GAIN_D * xd - _POSITION_GAIN_P * x
        q_cmd = -mass * xdd_cmd / thrust if thrust != 0.0 else 0.0
        qdd_cmd = -_ATTITUDE_GAIN_D * qd + _ATTITUDE_GAIN_P * (q_cmd - q)
        diff = mass * arm * qdd_cmd
        u1 = 0.5 * (thrust - diff)
        u2 = 0.5 * (thrust + diff)
        accelerations = nonlinear_derivative(q, u1, u2, params)
        # The state derivative, and the channels the record keeps of it.
        return (xd, yd, qd, *accelerations), (u1, u2, y_ref, *accelerations)

    step = config.step
    half = 0.5 * step
    sixth = step / 6.0

    times, references = _stage_references(config)
    steps = times.size - 1
    start, middle, end = (row.tolist() for row in references)

    rows = []
    state = [0.0] * 6
    for i in range(steps + 1):
        k1, channels = stage(start[i], *state)
        rows.append((*state, *channels))
        if not all(map(math.isfinite, state[:3])):
            raise SimulationDivergedError(i * step)
        if i == steps:
            break
        k2, _ = stage(middle[i], *[s + half * k for s, k in zip(state, k1)])
        k3, _ = stage(middle[i], *[s + half * k for s, k in zip(state, k2)])
        k4, _ = stage(end[i], *[s + step * k for s, k in zip(state, k3)])
        state = [s + sixth * (a + 2.0 * (b + c) + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
    return _result(times, np.array(rows).T)
