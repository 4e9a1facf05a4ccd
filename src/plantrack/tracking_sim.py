"""Closed-loop tracking of a planned trajectory on the nonlinear quadrotor.

The vehicle is ``model.nonlinear_derivative`` and the altitude loop is
``lqr.control_law`` on the interpolated reference position only (no
feed-forward); this module adds the lateral and attitude loops, PD laws
with zero references.  Integration is fixed-step RK4, with the
controller evaluated at every stage; the reference at the three stage
times of every step (t, t + h/2, t + h) comes from one vectorised cubic
Hermite lookup before the loop starts.

``simulate`` integrates the altitude states (y, y_dot) only, and that is
exact, not an approximation.  The vehicle starts at x = x_dot = q =
q_dot = 0 and the lateral reference is zero; nothing in ``SimConfig``
can change either.  Every lateral and attitude derivative is then an
IEEE zero, the rotor pair splits the thrust evenly (u1 = u2 =
thrust / 2, u1 + u2 == thrust), and y_ddot = thrust / M - g in the same
order of operations as the full model.  Its RK4 loop writes that
altitude law out inline, the one copy of the physics outside ``model``
and ``lqr``; the thrust and the accelerations it reports are rebuilt
from the state history by ``control_law`` and ``nonlinear_derivative``
after the loop.  The two-state RK4 produces the same bits as the
six-state one.

``simulate_planar`` integrates all six rigid-body states and is the
reference the altitude path is tested against (bit for bit), and the
model behind the check that the sweep's flights stay vertical.

Scoring follows the planner's quadrature: actual cost is the trapezoid
integral of the squared body accelerations, actual error the integral
of the squared reference-minus-plant altitude gap, both over the
reference horizon exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._artifact_csv import write_rows
from .collocation_planner import PlannedTrajectory
from .error_estimator import trapezoid_quadrature
from .lqr import ControllerSpec, control_law
from .model import ModelParams, nonlinear_derivative

# PD gains of the dormant loops: lateral position and attitude.
_POSITION_GAIN_D = 10.0
_POSITION_GAIN_P = 100.0
_ATTITUDE_GAIN_D = 80.0
_ATTITUDE_GAIN_P = 100.0


class SimulationDivergedError(RuntimeError):
    """State left the finite range; carries the failure time."""

    def __init__(self, time: float):
        super().__init__(f"simulation diverged at t = {time:.6f} s")
        self.time = time

    def __reduce__(self):
        # A failure inside a pool worker crosses to the parent by pickle,
        # which would otherwise call __init__ with the message.
        return type(self), (self.time,)


def select_step(
    controller: ControllerSpec,
    horizon: float,
    max_step: float = 1e-3,
    pole_fraction: float = 0.2,
) -> float:
    """Fixed RK4 step for a controller: min(max_step, fraction / |fast pole|).

    The raw step is then snapped down so an integer number of steps
    lands on the horizon exactly.
    """
    raw = min(max_step, pole_fraction / abs(controller.pair.lambda_fast))
    steps = max(1, math.ceil(horizon / raw - 1e-9))
    return horizon / steps


@dataclass(frozen=True)
class SimConfig:
    step: float
    reference: PlannedTrajectory
    controller: ControllerSpec
    params: ModelParams = field(default_factory=ModelParams)

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.step > self.reference.knot_spacing * (1 + 1e-9):
            raise ValueError("step must not exceed the knot spacing")
        ratio = self.reference.horizon / self.step
        if abs(ratio - round(ratio)) > 1e-6:
            raise ValueError("step must divide the reference horizon")


@dataclass(frozen=True)
class TrackingResult:
    """Dense simulated history plus the two scalar scores."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    q: np.ndarray
    x_dot: np.ndarray
    y_dot: np.ndarray
    q_dot: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    y_ref: np.ndarray
    x_ddot: np.ndarray
    y_ddot: np.ndarray
    q_ddot: np.ndarray
    error: np.ndarray
    actual_cost: float
    actual_error_integral: float


def reference_lookup(traj: PlannedTrajectory, t):
    """Reference altitude at time(s) t by cubic Hermite interpolation.

    Each segment uses the knot positions and velocities, so the lookup
    reproduces cubic references exactly.  Beyond the horizon the final
    knot is held (the plan is over, the setpoint remains).  A scalar t
    gives a float; an array gives an array of the same shape, each
    element rounded exactly as the scalar call would round it.
    """
    y = traj.y
    v = traj.v
    dt = traj.knot_spacing
    horizon = traj.horizon
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.minimum((np.clip(t, 0.0, horizon) / dt).astype(np.intp), y.size - 2)
        s = (t - k * dt) / dt
        one = 1.0 - s
        h00 = (1.0 + 2.0 * s) * one * one
        h10 = s * one * one
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        inner = h00 * y[k] + h10 * dt * v[k] + h01 * y[k + 1] + h11 * dt * v[k + 1]
    values = np.where(t >= horizon, y[-1], np.where(t <= 0.0, y[0], inner))
    return float(values) if values.ndim == 0 else values


def _stage_references(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Step grid and the reference at each RK4 stage time.

    Row 0 of the references is at t_i = i * step, row 1 at t_i + step / 2,
    row 2 at t_i + step.  Row 2 is not row 0 shifted by one: in floating
    point i * step + step differs from (i + 1) * step in general.
    """
    step = config.step
    steps = round(config.reference.horizon / step)
    times = np.arange(steps + 1) * step
    stage_times = np.stack((times, times + 0.5 * step, times + step))
    return times, reference_lookup(config.reference, stage_times)


def _score(times, x_ddot, y_ddot, q_ddot, error) -> tuple[float, float]:
    """Actual cost and actual error integral of one flight.

    A state can stay finite while its squared acceleration or error
    overflows; the first time either integrand is non-finite is where
    the flight stops being scorable, and is reported as divergence.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        effort = x_ddot**2 + y_ddot**2 + q_ddot**2
        miss = error**2
    unscorable = np.flatnonzero(~(np.isfinite(effort) & np.isfinite(miss)))
    if unscorable.size:
        raise SimulationDivergedError(float(times[unscorable[0]]))
    return trapezoid_quadrature(times, effort), trapezoid_quadrature(times, miss)


def simulate(config: SimConfig) -> TrackingResult:
    """Run the closed loop from the trimmed initial state on (y, y_dot).

    Per stage: altitude thrust from the LQR law on (y, y_dot) and the
    interpolated reference, then y_ddot = thrust / M - g.  The result
    equals ``simulate_planar``'s bit for bit (see the module docstring).
    A future ``SimConfig`` field that sets a lateral or attitude state,
    or a nonzero lateral reference, breaks that argument: such a config
    must be routed to ``simulate_planar``.
    """
    spec = config.controller
    params = config.params
    mass = params.mass
    grav = params.gravity
    neg_k1 = -spec.k1
    k2 = spec.k2
    n1 = spec.n1
    trim = params.hover_thrust
    step = config.step
    half = 0.5 * step
    sixth = step / 6.0

    times, references = _stage_references(config)
    with np.errstate(over="ignore", invalid="ignore"):
        drive = n1 * references
    start, middle, end = drive[:, :-1].tolist()

    ys = [0.0]
    yds = [0.0]
    y = yd = 0.0
    for d1, d2, d4 in zip(start, middle, end):
        a1 = (neg_k1 * y - k2 * yd + d1 + trim) / mass - grav
        v2 = yd + half * a1
        a2 = (neg_k1 * (y + half * yd) - k2 * v2 + d2 + trim) / mass - grav
        v3 = yd + half * a2
        a3 = (neg_k1 * (y + half * v2) - k2 * v3 + d2 + trim) / mass - grav
        v4 = yd + step * a3
        a4 = (neg_k1 * (y + step * v3) - k2 * v4 + d4 + trim) / mass - grav
        y += sixth * (yd + 2.0 * (v2 + v3) + v4)
        yd += sixth * (a1 + 2.0 * (a2 + a3) + a4)
        ys.append(y)
        yds.append(yd)

    y = np.array(ys)
    y_dot = np.array(yds)
    # A non-finite altitude never turns finite again, so the first one
    # is where the step-by-step check would have stopped.
    diverged = np.flatnonzero(~np.isfinite(y))
    if diverged.size:
        raise SimulationDivergedError(float(times[diverged[0]]))

    y_ref = references[0]
    thrust = control_law(spec, y, y_dot, y_ref, params)
    u1 = 0.5 * thrust
    u2 = 0.5 * thrust
    x_ddot, y_ddot, q_ddot = nonlinear_derivative(0.0, u1, u2, params)
    error = y_ref - y
    cost, error_integral = _score(times, x_ddot, y_ddot, q_ddot, error)
    return TrackingResult(
        times=times,
        x=np.zeros_like(y),
        y=y,
        q=np.zeros_like(y),
        x_dot=np.zeros_like(y),
        y_dot=y_dot,
        q_dot=np.zeros_like(y),
        u1=u1,
        u2=u2,
        y_ref=y_ref,
        x_ddot=x_ddot,
        y_ddot=y_ddot,
        q_ddot=q_ddot,
        error=error,
        actual_cost=cost,
        actual_error_integral=error_integral,
    )


def simulate_planar(config: SimConfig) -> TrackingResult:
    """Run the closed loop from the trimmed initial state on all 6 states.

    Per stage: altitude thrust from the LQR law on (y, y_dot) and the
    interpolated reference; commanded lateral acceleration from the PD
    law with zero reference; commanded pitch from small-angle thrust
    inversion q_cmd = -M x_ddot_cmd / thrust; differential thrust from
    the attitude PD law.  The rotor pair is recovered from sum and
    difference and drives the nonlinear model.
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
        return (xd, yd, qd, *nonlinear_derivative(q, u1, u2, params), u1, u2, y_ref)

    step = config.step
    half = 0.5 * step
    sixth = step / 6.0

    times, references = _stage_references(config)
    steps = times.size - 1
    start, middle, end = (row.tolist() for row in references)
    hist = np.empty((steps + 1, 13))

    x = y = q = xd = yd = qd = 0.0
    for i in range(steps + 1):
        t = i * step
        d = stage(start[i], x, y, q, xd, yd, qd)
        hist[i] = (t, x, y, q, xd, yd, qd, d[6], d[7], d[8], d[3], d[4], d[5])
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(q)):
            raise SimulationDivergedError(t)
        if i == steps:
            break
        a1 = d[:6]
        a2 = stage(
            middle[i],
            x + half * a1[0], y + half * a1[1], q + half * a1[2],
            xd + half * a1[3], yd + half * a1[4], qd + half * a1[5],
        )[:6]
        a3 = stage(
            middle[i],
            x + half * a2[0], y + half * a2[1], q + half * a2[2],
            xd + half * a2[3], yd + half * a2[4], qd + half * a2[5],
        )[:6]
        a4 = stage(
            end[i],
            x + step * a3[0], y + step * a3[1], q + step * a3[2],
            xd + step * a3[3], yd + step * a3[4], qd + step * a3[5],
        )[:6]
        x += sixth * (a1[0] + 2.0 * (a2[0] + a3[0]) + a4[0])
        y += sixth * (a1[1] + 2.0 * (a2[1] + a3[1]) + a4[1])
        q += sixth * (a1[2] + 2.0 * (a2[2] + a3[2]) + a4[2])
        xd += sixth * (a1[3] + 2.0 * (a2[3] + a3[3]) + a4[3])
        yd += sixth * (a1[4] + 2.0 * (a2[4] + a3[4]) + a4[4])
        qd += sixth * (a1[5] + 2.0 * (a2[5] + a3[5]) + a4[5])

    error = hist[:, 9] - hist[:, 2]
    cost, error_integral = _score(times, hist[:, 10], hist[:, 11], hist[:, 12], error)
    return TrackingResult(
        times=times,
        x=hist[:, 1],
        y=hist[:, 2],
        q=hist[:, 3],
        x_dot=hist[:, 4],
        y_dot=hist[:, 5],
        q_dot=hist[:, 6],
        u1=hist[:, 7],
        u2=hist[:, 8],
        y_ref=hist[:, 9],
        x_ddot=hist[:, 10],
        y_ddot=hist[:, 11],
        q_ddot=hist[:, 12],
        error=error,
        actual_cost=cost,
        actual_error_integral=error_integral,
    )


TRACKING_COLUMNS = (
    "t", "x", "y", "q", "xdot", "ydot", "qdot", "u1", "u2", "y_ref", "err",
)


def write_tracking_csv(result: TrackingResult, path) -> None:
    columns = np.column_stack(
        [
            result.times,
            result.x,
            result.y,
            result.q,
            result.x_dot,
            result.y_dot,
            result.q_dot,
            result.u1,
            result.u2,
            result.y_ref,
            result.error,
        ]
    )
    write_rows(path, TRACKING_COLUMNS, columns)
