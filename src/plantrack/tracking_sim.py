"""Closed-loop tracking of a planned trajectory on the nonlinear quadrotor.

The vehicle is ``model.nonlinear_derivative`` and the altitude loop is
``lqr.control_law`` on the interpolated reference position only (no
feed-forward).  Integration is fixed-step RK4, with the controller
evaluated at every stage; the reference at the three stage times of
every step (t, t + h/2, t + h) comes from one vectorised cubic Hermite
lookup before the loop starts, on a basis kept for the last flight
grid (``simulate_lanes`` builds it block by block as it flies).  A
flight is at most MAX_FLIGHT_STEPS steps: ``select_step`` and
``SimConfig`` reject a longer one before anything is allocated.

``simulate`` integrates the altitude states (y, y_dot) only, and that is
exact, not an approximation.  The vehicle starts at x = x_dot = q =
q_dot = 0 and the lateral reference is zero; nothing in ``SimConfig``
can change either.  The lateral and attitude loops (PD laws with zero
references) then stay dormant: every lateral and attitude derivative is
an IEEE zero, the rotor pair splits the thrust evenly (u1 = u2 =
thrust / 2, u1 + u2 == thrust), and y_ddot = thrust / M - g in the same
order of operations as the full model.  Its RK4 loop writes that
altitude law out inline, in Python floats.  ``simulate_lanes`` writes it
out a second time, as numpy calls over many flights at once, each call
one operation of the float loop in its order, so that every lane's bits
are ``simulate``'s.  The second copy is there for speed: the 124 flights
of a default sweep take about 70 ms as lanes of one loop against 190 ms
through ``simulate`` (x86-64 Linux, CPython 3.11, numpy 2.4), while a
loop of a few lanes costs more than their float loops, so single
flights and small batches keep ``simulate``.  These are the two copies
of the physics outside ``model`` and ``lqr``; the thrust and the
accelerations either reports are rebuilt from the state history by
``control_law`` and ``nonlinear_derivative`` after the loop.

The six-state reference, with the PD loops live, is
``simulate_planar`` in ``tests/oracles.py``.  It steps over the same
``_stage_references`` and scores through the same ``_result``, and
``simulate`` must match it bit for bit, as each lane of
``simulate_lanes`` must match ``simulate``.

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


def _stage_times(first: int, stop: int, step: float) -> np.ndarray:
    """The three RK4 stage times (t, t + h/2, t + h) of steps first to
    stop - 1 of a grid of step h, as rows; the bits do not depend on
    first."""
    times = np.arange(first, stop) * step
    return np.stack((times, times + 0.5 * step, times + step))


# One entry: the flights ``simulate`` flies back to back on one grid
# share it, as the lanes of a batch below LANE_BREAK_EVEN do, a sweep's
# points of one pair in grid order; ``simulate_lanes`` builds its own
# bases block by block and does not read it.  The entry holds about 130
# bytes per RK4 step (one index and four weights per stage time, and the
# two masks), 130 MB at MAX_FLIGHT_STEPS, so it keeps no more than the
# last grid.
@functools.lru_cache(maxsize=1)
def _stage_basis(step: float, steps: int, spacing: float, horizon: float, knots: int):
    """The Hermite basis at every RK4 stage time of a flight grid, read-only."""
    basis = _hermite_basis(_stage_times(0, steps + 1, step), spacing, horizon, knots)
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
    return _record(config, times, references[0], y, y_dot)


def _record(config: SimConfig, times, y_ref, y, y_dot) -> TrackingResult:
    """Score a flight from its altitude history: the thrust and the
    accelerations are rebuilt by ``control_law`` and
    ``nonlinear_derivative``, the record by ``_result``."""
    # A non-finite altitude never turns finite again, so the first one
    # is where the step-by-step check would have stopped.
    diverged = np.flatnonzero(~np.isfinite(y))
    if diverged.size:
        raise SimulationDivergedError(float(times[diverged[0]]))

    params = config.params
    thrust = control_law(config.controller, y, y_dot, y_ref, params)
    u1 = 0.5 * thrust
    u2 = 0.5 * thrust
    x, q, x_dot, q_dot = np.zeros((4, y.size))
    return _result(
        times,
        (x, y, q, x_dot, y_dot, q_dot, u1, u2, y_ref,
         *nonlinear_derivative(0.0, u1, u2, params)),
    )


# A batch of fewer lanes flies each through ``simulate``.  The batched
# loop costs about the same per step whatever its width, and the float
# loop about 0.86 us per lane and step, so they break even at 16 to 24
# lanes of one flight length (x86-64 Linux, CPython 3.11, numpy 2.4).
LANE_BREAK_EVEN = 20

# Lane-steps of stage drives built at a time; each block and its
# temporaries are a few hundred kB.
_DRIVE_BLOCK = 2**13

# A batch's state, constants and knots take about 1 kB a lane besides
# its history, so a batch of short flights is capped in lanes as well.
MAX_BATCH_LANES = 2**12


def simulate_lanes(configs):
    """Fly many flights as lanes of one RK4 loop; yields, in the order of
    ``configs``, each flight's ``simulate`` result or the
    SimulationDivergedError ``simulate`` raises for it, bit for bit.

    Consecutive configs are drawn into batches of at most
    MAX_FLIGHT_STEPS lane-steps and MAX_BATCH_LANES lanes, and a batch's
    results are yielded once it has flown; its altitude history (16
    bytes a lane-step) is kept until then.  A batch of fewer than
    LANE_BREAK_EVEN lanes flies each through ``simulate``.
    """
    batch, lane_steps = [], 0
    for config in configs:
        if batch and (lane_steps + config.steps > MAX_FLIGHT_STEPS
                      or len(batch) == MAX_BATCH_LANES):
            yield from _fly_batch(batch)
            batch, lane_steps = [], 0
        batch.append(config)
        lane_steps += config.steps
    yield from _fly_batch(batch)


def _fly_batch(configs):
    if len(configs) < LANE_BREAK_EVEN:
        return (_outcome(simulate, config) for config in configs)
    return _fly_lanes(configs)


def _outcome(fly, config, *args):
    try:
        return fly(config, *args)
    except SimulationDivergedError as exc:
        return exc


def _grid(config: SimConfig) -> tuple:
    """A flight's grid: its step count and step, and its reference's knot
    spacing, horizon and knot count."""
    reference = config.reference
    return (config.steps, config.step, reference.knot_spacing, reference.horizon,
            reference.y.size)


def _fly_lanes(configs):
    """``simulate_lanes`` on one batch: the lanes' histories from
    ``_lane_histories``, each scored by ``_record`` as ``simulate``
    scores it, with its reference read on one basis per grid."""
    grids = {}
    for index, config in enumerate(configs):
        grids.setdefault(_grid(config), []).append(index)
    # Longest flights first, and each grid's lanes together.
    grids = sorted(grids.items(), key=lambda item: -item[0][0])
    order = [index for _, members in grids for index in members]
    histories = _lane_histories(
        [(grid, [configs[index] for index in members]) for grid, members in grids]
    )

    lane_of = dict(zip(order, range(len(order))))
    basis_grid = basis = None
    for index, config in enumerate(configs):
        lane = lane_of[index]
        y, y_dot = (
            np.concatenate([[0.0], *(h[:, row, lane] for h in histories if h.shape[2] > lane)])
            for row in (0, 1)
        )
        times = np.arange(config.steps + 1) * config.step
        if basis_grid != _grid(config):
            basis_grid = _grid(config)
            basis = _hermite_basis(times, *basis_grid[2:])
        y_ref = _hermite_values(basis, config.reference.y, config.reference.v)
        yield _outcome(_record, config, times, y_ref, y, y_dot)


def _lane_histories(grids) -> list[np.ndarray]:
    """The RK4 loop of ``simulate`` over the lanes of ``grids``, pairs
    (grid, its lanes) sorted longest flight first.

    Gives one (steps, 2, lanes) array of (y, y_dot) per distinct flight
    length: the steps from the length before it, for the lanes still
    flying, which are a prefix.  The state of those lanes is one
    (12, lanes) buffer of rows [y, y_dot, a1, p2, v2, a2, p3, v3, a3, p4,
    v4, a4], stage s at position p_s and velocity v_s: rows [y, y_dot]
    are the state, [y_dot, a1] the first slope and [v_s, a_s] slope s,
    so one ufunc call steps position and velocity together.  Each call
    is one operation of ``simulate``'s float loop, in its order, and
    every constant is an array of one value per lane.
    """
    lanes = [config for _, members in grids for config in members]
    steps_per_lane = np.array([config.steps for config in lanes])
    constants = np.array([
        (-c.controller.k1, c.controller.k2, 0.5 * c.step, 0.5 * c.step, c.step, c.step,
         c.step / 6.0, c.step / 6.0, 2.0, 2.0, c.params.hover_thrust, c.params.mass,
         c.params.gravity)
        for c in lanes
    ]).T
    # Per grid: its lanes' range, and their knots and reference gains as columns.
    drive_grids = []
    first = 0
    for grid, members in grids:
        drive_grids.append((
            first, first + len(members), grid[1:],
            np.stack([c.reference.y for c in members], axis=1),
            np.stack([c.reference.v for c in members], axis=1),
            np.array([c.controller.n1 for c in members]),
        ))
        first += len(members)

    multiply, add, subtract, divide, copyto = (
        np.multiply, np.add, np.subtract, np.divide, np.copyto
    )
    state = np.zeros((12, len(lanes)))
    histories = []
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for end in sorted(set(steps_per_lane.tolist())):
            active = int(np.count_nonzero(steps_per_lane >= end))
            state = state[:, :active].copy()
            held = constants[:, :active].copy()
            gains, halves, steps, sixths, twos = (held[i:i + 2] for i in range(0, 10, 2))
            trim, mass, grav = held[10:]
            position, slope1 = state[0:2], state[1:3]
            stage2, slope2, stage3, slope3, stage4, slope4 = (
                state[i:i + 2] for i in (3, 4, 6, 7, 9, 10)
            )
            a1, a2, a3, a4 = state[2::3]
            work, pulled = np.empty((2, 2, active))
            pull_y, pull_yd = pulled

            history = np.empty((end - done, 2, active))
            records = iter(history)
            block = max(1, _DRIVE_BLOCK // active)
            for block_first in range(done, end, block):
                drives = _stage_drives(
                    drive_grids, block_first, min(block_first + block, end), active
                )
                for d1, d2, d4, record in zip(*drives, records):
                    # a = (-k1 * y - k2 * y_dot + d + trim) / mass - g per stage.
                    multiply(gains, position, pulled)
                    subtract(pull_y, pull_yd, a1)
                    add(a1, d1, a1)
                    add(a1, trim, a1)
                    divide(a1, mass, a1)
                    subtract(a1, grav, a1)
                    multiply(halves, slope1, work)
                    add(position, work, stage2)
                    multiply(gains, stage2, pulled)
                    subtract(pull_y, pull_yd, a2)
                    add(a2, d2, a2)
                    add(a2, trim, a2)
                    divide(a2, mass, a2)
                    subtract(a2, grav, a2)
                    multiply(halves, slope2, work)
                    add(position, work, stage3)
                    multiply(gains, stage3, pulled)
                    subtract(pull_y, pull_yd, a3)
                    add(a3, d2, a3)
                    add(a3, trim, a3)
                    divide(a3, mass, a3)
                    subtract(a3, grav, a3)
                    multiply(steps, slope3, work)
                    add(position, work, stage4)
                    multiply(gains, stage4, pulled)
                    subtract(pull_y, pull_yd, a4)
                    add(a4, d4, a4)
                    add(a4, trim, a4)
                    divide(a4, mass, a4)
                    subtract(a4, grav, a4)
                    # (y, y_dot) += sixth * (k1 + 2.0 * (k2 + k3) + k4).
                    add(slope2, slope3, work)
                    multiply(twos, work, work)
                    add(slope1, work, work)
                    add(work, slope4, work)
                    multiply(sixths, work, work)
                    add(position, work, position)
                    copyto(record, position)
            histories.append(history)
            done = end
    return histories


def _stage_drives(drive_grids, first: int, stop: int, active: int) -> np.ndarray:
    """n1 times the reference at the stage times of steps first to stop - 1
    of the first ``active`` lanes, as (stage, step, lane), each grid's
    from its Hermite basis on those steps."""
    drives = np.empty((3, stop - first, active))
    for lane, lane_stop, (step, spacing, horizon, knots), ys, vs, gains in drive_grids:
        if lane >= active:
            break
        k, *weights = _hermite_basis(_stage_times(first, stop, step), spacing, horizon, knots)
        basis = (k, *(w[..., np.newaxis] for w in weights))
        with np.errstate(over="ignore", invalid="ignore"):
            drives[:, :, lane:lane_stop] = gains * _hermite_values(basis, ys, vs)
    return drives


TRACKING_COLUMNS = {
    "t": "times", "x": "x", "y": "y", "q": "q",
    "xdot": "x_dot", "ydot": "y_dot", "qdot": "q_dot",
    "u1": "u1", "u2": "u2", "y_ref": "y_ref", "err": "error",
}


def write_tracking_csv(result: TrackingResult, path) -> None:
    write_samples(path, TRACKING_COLUMNS, result)
