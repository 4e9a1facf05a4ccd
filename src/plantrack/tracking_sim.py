"""Closed-loop tracking of a planned trajectory on the nonlinear quadrotor.

The vehicle is ``model.nonlinear_derivative`` and the altitude loop is
``lqr.control_law`` on the interpolated reference position only (no
feed-forward).  Integration is fixed-step RK4, with the controller
evaluated at every stage; the reference at the three stage times of
every step (t, t + h/2, t + h) comes from one vectorised cubic Hermite
lookup before the loop starts, on a basis kept for the last flight
grid.  A flight is at most MAX_FLIGHT_STEPS steps: ``select_step`` and
``SimConfig`` reject a longer one before anything is allocated.

``simulate`` integrates the altitude states (y, y_dot) only, and that is
exact, not an approximation.  The vehicle starts at x = x_dot = q =
q_dot = 0 and the lateral reference is zero; nothing in ``SimConfig``
can change either.  The lateral and attitude loops (PD laws with zero
references) then stay dormant: every lateral and attitude derivative is
an IEEE zero, the rotor pair splits the thrust evenly (u1 = u2 =
thrust / 2, u1 + u2 == thrust), and y_ddot = thrust / M - g in the same
order of operations as the full model.  Its RK4 loop writes that
altitude law out inline, the one copy of the physics outside ``model``
and ``lqr``; the thrust and the accelerations it reports are rebuilt
from the state history by ``control_law`` and ``nonlinear_derivative``
after the loop.

The six-state reference, with the PD loops live, is
``simulate_planar`` in ``tests/oracles.py``.  It steps over the same
``_stage_references`` and scores through the same ``_result``, and
``simulate`` must match it bit for bit.

Scoring follows the planner's quadrature: actual cost is the trapezoid
integral of the squared body accelerations, actual error the integral
of the squared reference-minus-plant altitude gap, both over the
reference horizon exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._artifact_csv import write_samples
from .collocation_planner import PlannedTrajectory
from .error_estimator import _trapezoid
from .lqr import ControllerSpec, control_law
from .model import ModelParams, nonlinear_derivative


class SimulationDivergedError(RuntimeError):
    """State left the finite range; its one arg is the failure time, so
    it pickles as it is."""

    def __init__(self, time: float):
        super().__init__(time)
        self.time = time

    def __str__(self):
        return f"simulation diverged at t = {self.time:.6f} s"


# RK4 is stable on the negative real axis for |lambda| h up to about
# 2.785; both altitude poles are real.
RK4_STABILITY_LIMIT = 2.78

# A flight holds about 400 bytes per RK4 step at its peak (the stage
# basis, references and state history, and the result's channels): the
# peak RSS of a `plantrack track` grew by 399 B/step from a 1e3-step to a
# 1e5-step flight, and a 1e6-step one peaked at 403 MiB on x86-64 Linux,
# so the bound keeps one flight under about 0.4 GB.
MAX_FLIGHT_STEPS = 10**6


def _flight_too_long(horizon: float, step: float) -> ValueError:
    return ValueError(
        f"a {horizon:g} s flight takes {horizon / step:.3g} RK4 steps of {step:g} s,"
        f" over the bound of {MAX_FLIGHT_STEPS}"
    )


def select_step(
    controller: ControllerSpec,
    horizon: float,
    max_step: float = 1e-3,
    pole_fraction: float = 0.2,
) -> float:
    """Fixed RK4 step for a controller: min(max_step, fraction / |fast pole|).

    The raw step is then snapped down so an integer number of steps
    lands on the horizon exactly.  An RK4-unstable step, or more than
    MAX_FLIGHT_STEPS steps, raises ValueError here; ``SimConfig`` still
    accepts an unstable step.
    """
    for name, value in (("max_step", max_step), ("pole_fraction", pole_fraction)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    raw = min(max_step, pole_fraction / abs(controller.pair.lambda_fast))
    count = horizon / raw - 1e-9
    if not count <= MAX_FLIGHT_STEPS:
        raise _flight_too_long(horizon, raw)
    steps = max(1, math.ceil(count))
    step = horizon / steps
    if abs(controller.pair.lambda_fast) * step > RK4_STABILITY_LIMIT:
        raise ValueError(
            f"sim step {step!r} s is not RK4-stable"
            f" (|lambda_fast| * step > {RK4_STABILITY_LIMIT})"
        )
    return step


@dataclass(frozen=True)
class SimConfig:
    """One flight: ``steps`` RK4 steps of ``step`` over the reference's
    horizon, derived here and checked against MAX_FLIGHT_STEPS before
    anything is allocated."""

    step: float
    reference: PlannedTrajectory
    controller: ControllerSpec
    params: ModelParams = field(default_factory=ModelParams)
    steps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step!r}")
        spacing = self.reference.knot_spacing
        if self.step > spacing * (1 + 1e-9):
            raise ValueError(
                f"sim step {self.step!r} s exceeds the knot spacing {spacing!r} s"
            )
        horizon = self.reference.horizon
        ratio = horizon / self.step
        # A ratio below the bound + 0.5 rounds to at most the bound.
        if not ratio < MAX_FLIGHT_STEPS + 0.5:
            raise _flight_too_long(horizon, self.step)
        if abs(ratio - round(ratio)) > 1e-6:
            raise ValueError("step must divide the reference horizon")
        object.__setattr__(self, "steps", round(ratio))


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


def _hermite_basis(t: np.ndarray, dt: float, horizon: float, knots: int):
    """The cubic Hermite basis at times t on ``knots`` knots dt apart:
    (k, h00, h10 dt, h01, h11 dt, after, before), where k is each time's
    segment, the four weights multiply y[k], v[k], y[k+1] and v[k+1], and
    the masks mark the times held at the last knot and at the first.  It
    depends on the times and the grid alone, not on y or v."""
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.minimum((np.clip(t, 0.0, horizon) / dt).astype(np.intp), knots - 2)
        s = (t - k * dt) / dt
        one = 1.0 - s
        h00 = (1.0 + 2.0 * s) * one * one
        h10 = s * one * one * dt
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0) * dt
    return k, h00, h10, h01, h11, t >= horizon, t <= 0.0


def _hermite_values(basis, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The interpolant of knot positions y and velocities v on a basis."""
    k, h00, h10, h01, h11, after, before = basis
    with np.errstate(over="ignore", invalid="ignore"):
        inner = h00 * y[k] + h10 * v[k] + h01 * y[k + 1] + h11 * v[k + 1]
    return np.where(after, y[-1], np.where(before, y[0], inner))


def reference_lookup(traj: PlannedTrajectory, t):
    """Reference altitude at time(s) t by cubic Hermite interpolation.

    Each segment uses the knot positions and velocities, so the lookup
    reproduces cubic references exactly.  Beyond the horizon the final
    knot is held (the plan is over, the setpoint remains).  A scalar t
    gives a float; an array gives an array of the same shape, each
    element rounded exactly as the scalar call would round it.
    """
    t = np.asarray(t, dtype=float)
    basis = _hermite_basis(t, traj.knot_spacing, traj.horizon, traj.y.size)
    values = _hermite_values(basis, traj.y, traj.v)
    return float(values) if values.ndim == 0 else values


# One entry: a process flies a sweep pair by pair, and every point of a
# pair shares its flight grid.  The entry holds about 130 bytes per RK4
# step (one index and four weights per stage time, and the two masks),
# 130 MB at MAX_FLIGHT_STEPS, so it keeps no more than the last grid.
@functools.lru_cache(maxsize=1)
def _stage_basis(step: float, steps: int, spacing: float, horizon: float, knots: int):
    """The Hermite basis at every RK4 stage time of a flight grid, read-only."""
    times = np.arange(steps + 1) * step
    stage_times = np.stack((times, times + 0.5 * step, times + step))
    basis = _hermite_basis(stage_times, spacing, horizon, knots)
    for array in basis:
        array.flags.writeable = False
    return basis


def _stage_references(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Step grid and the reference at each RK4 stage time.

    Row 0 of the references is at t_i = i * step, row 1 at t_i + step / 2,
    row 2 at t_i + step.  Row 2 is not row 0 shifted by one: in floating
    point i * step + step differs from (i + 1) * step in general.
    """
    step = config.step
    reference = config.reference
    basis = _stage_basis(
        step, config.steps, reference.knot_spacing, reference.horizon, reference.y.size
    )
    times = np.arange(config.steps + 1) * step
    return times, _hermite_values(basis, reference.y, reference.v)


def _result(times, channels) -> TrackingResult:
    """Score one flight and assemble its record.

    ``channels`` are the per-step arrays of ``TrackingResult`` from x to
    q_ddot, in field order.  The scores are trapezoid integrals over the
    step grid.  A state can stay finite while its squared acceleration
    or error overflows; the first time either integrand is non-finite is
    where the flight stops being scorable, and is reported as divergence.
    """
    x, y, q, x_dot, y_dot, q_dot, u1, u2, y_ref, x_ddot, y_ddot, q_ddot = channels
    error = y_ref - y
    with np.errstate(over="ignore", invalid="ignore"):
        effort = x_ddot**2 + y_ddot**2 + q_ddot**2
        miss = error**2
    unscorable = np.flatnonzero(~(np.isfinite(effort) & np.isfinite(miss)))
    if unscorable.size:
        raise SimulationDivergedError(float(times[unscorable[0]]))
    return TrackingResult(
        times=times, x=x, y=y, q=q, x_dot=x_dot, y_dot=y_dot, q_dot=q_dot,
        u1=u1, u2=u2, y_ref=y_ref, x_ddot=x_ddot, y_ddot=y_ddot, q_ddot=q_ddot,
        error=error, actual_cost=_trapezoid(times, effort),
        actual_error_integral=_trapezoid(times, miss),
    )


def simulate(config: SimConfig) -> TrackingResult:
    """Run the closed loop from the trimmed initial state on (y, y_dot).

    Per stage: altitude thrust from the LQR law on (y, y_dot) and the
    interpolated reference, then y_ddot = thrust / M - g, exact for every
    ``SimConfig`` (see the module docstring).
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
        start, middle, end = (n1 * references)[:, :-1].tolist()

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
    # The five lists hold 160 bytes a step, room the record needs.
    del start, middle, end, ys, yds
    # A non-finite altitude never turns finite again, so the first one
    # is where the step-by-step check would have stopped.
    diverged = np.flatnonzero(~np.isfinite(y))
    if diverged.size:
        raise SimulationDivergedError(float(times[diverged[0]]))

    y_ref = references[0]
    thrust = control_law(spec, y, y_dot, y_ref, params)
    u1 = 0.5 * thrust
    u2 = 0.5 * thrust
    x, q, x_dot, q_dot = np.zeros((4, y.size))
    return _result(
        times,
        (x, y, q, x_dot, y_dot, q_dot, u1, u2, y_ref,
         *nonlinear_derivative(0.0, u1, u2, params)),
    )


TRACKING_COLUMNS = {
    "t": "times", "x": "x", "y": "y", "q": "q",
    "xdot": "x_dot", "ydot": "y_dot", "qdot": "q_dot",
    "u1": "u1", "u2": "u2", "y_ref": "y_ref", "err": "error",
}


def write_tracking_csv(result: TrackingResult, path) -> None:
    write_samples(path, TRACKING_COLUMNS, result)
