"""Trajectory design by trapezoid direct collocation, condensed to a box QP.

The altitude channel is a double integrator, so transcribing the
error-augmented design problem

    min  integral(a^2 + mu * e^2)
    s.t. y' = v, v' = a, boundary data, y within box bounds

on a uniform knot grid gives a convex quadratic program in the knot
values (y_k, v_k, a_k).  The trapezoid chains

    v_k = v_{k-1} + dt/2 (a_k + a_{k-1}),  y_k = y_{k-1} + dt/2 (v_k + v_{k-1})

are exactly invertible, so y and v are affine in the accelerations:
v = v0 + C a and y = y0 + v0 t + Y a, with C lower-triangular and Y the
same chain applied to C's rows.  Eliminating them (condensing) leaves a
QP in the n = segments + 1 accelerations alone:

    min  1/2 a'Qa + c'a + constant
    s.t. Y[n-1] a = yf - y0 - v0 T   (and a_0 = 0 when pinned)
         lower <= y0 + v0 t_k + Y[k] a <= upper   at the interior knots

The predicted error enters through the linear lag-response map
e = L v = v0 L 1 + (L C) a, so Q = diag(2 w) + 2 mu (LC)' W (LC) with
the trapezoid weights w, and Q is positive definite.

Only mu scales the error term, so a mu sweep shares everything else:
the grid, Y, the equality rows, the feasible start and the error block
(LC)' W (LC) with its linear and constant terms.  That design is built
once per (grid, boundary data, box, lambda) and kept, read-only, in a
small per-process cache; a point only scales the error block by mu.
The lag matrix L is likewise built once per (grid, lambda) and shared
with the error estimate.

A primal active-set loop handles the box rows: starting from a point
that satisfies the equality rows and the box, it steps toward the
working-set optimum, stopping at the first blocking bound, and at a
working-set optimum releases the single row whose multiplier has the
worst wrong sign.  Q is positive definite and the working sets are
small, so every working set is solved in the range space (Nocedal and
Wright, Numerical Optimization, 2nd ed., 16.2 and 16.5): Q^-1 is formed
once per point (the reciprocal diagonal when mu = 0), and the KKT system
of the equality rows and the working set reduces to its Schur
complement R Q^-1 R', one small system, plus one correction against the
full KKT residual.  A full step lands on the optimum whose multipliers
that same solve returned.  A cycling limit guards the degenerate cases.
y and v are rebuilt from a by the trapezoid recursion, with working-set
knots pinned exactly to their bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .error_estimator import (
    ErrorSeries,
    VelocityProfile,
    error_integral_form,
    lag_response_matrix,
    trapezoid_quadrature,
    trapezoid_weights,
)
from .model import ModelParams

KKT_TOLERANCE = 1e-8
_ACTIVE_SET_LIMIT = 40


class InfeasibleProblemError(ValueError):
    """Boundary data contradicts the box bounds."""


class PlannerNumericalError(RuntimeError):
    """KKT solve failed or the active-set loop did not settle."""


@dataclass(frozen=True)
class PlanProblem:
    """One trajectory design instance.

    dominant_lambda is the decay rate of the controller that will track
    the result; it parameterizes the predicted-error map and is fixed
    before planning.  mu = 0 recovers the plain minimum-acceleration
    problem.
    """

    horizon: float = 1.0
    segments: int = 60
    y0: float = 0.0
    v0: float = 0.0
    yf: float = 5.0
    y_bounds: tuple[float, float] = (0.0, 5.0)
    mu: float = 0.0
    dominant_lambda: float = 20.0
    params: ModelParams = field(default_factory=ModelParams)
    enforce_initial_accel_zero: bool = False

    def __post_init__(self):
        if self.segments < 2:
            raise ValueError("need at least 2 segments")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.dominant_lambda <= 0:
            raise ValueError("dominant_lambda must be a positive decay rate")
        if self.y_bounds[0] >= self.y_bounds[1]:
            raise ValueError("y_bounds must satisfy lo < hi")


@dataclass(frozen=True)
class PlannedTrajectory:
    """Knot-point solution of one design problem.

    u is the total thrust that realizes the planned acceleration,
    u = M (a + g).  kkt_residual is the max-norm optimality residual of
    the returned solution and active_set_iterations the number of
    working-set solves that found it (both None for trajectories read
    back from disk).
    """

    times: np.ndarray
    y: np.ndarray
    v: np.ndarray
    a: np.ndarray
    u: np.ndarray
    predicted_error: ErrorSeries
    designed_cost: float
    predicted_error_integral: float
    mu: float | None
    kkt_residual: float | None = None
    active_set_iterations: int | None = None

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def knot_spacing(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class CondensedQP:
    """Design QP in the accelerations a alone.

    min 1/2 a'Qa + c'a + constant  s.t.  E a = e  and, at the interior
    knots k, lower <= y_offset[k] + y_map[k] a <= upper.  The constant
    makes the objective equal the design objective, integral of
    a^2 + mu e^2, at every a.
    """

    times: np.ndarray
    hessian: np.ndarray
    gradient: np.ndarray
    constant: float
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    y_map: np.ndarray
    y_offset: np.ndarray
    lower: float
    upper: float


def _chain_matrix(n: int, dt: float) -> np.ndarray:
    """Lower-triangular C with v - v0 = C a for the trapezoid chain."""
    C = np.tri(n)
    C *= dt
    C[:, 0] *= 0.5
    C[np.arange(n), np.arange(n)] *= 0.5
    C[0, :] = 0.0
    return C


class _Design:
    """The mu-independent part of one condensed design problem.

    Everything here depends on the grid, the boundary data, the box and
    lambda only, so one instance serves every mu point of a controller's
    sweep.  Every array is read-only because the instance is shared.
    """

    def __init__(self, horizon, segments, y0, v0, yf, lower, upper, pin, lam):
        n = segments + 1
        dt = horizon / segments
        self.dt = dt
        self.lam = lam
        self.v0 = v0
        self.times = np.linspace(0.0, horizon, n)
        self.quad = trapezoid_weights(n) * dt

        # Row k of Y is the trapezoid chain over rows 0..k of C: O(n^2),
        # where the equivalent matrix product would be O(n^3).  Built in
        # place because at a thousand knots every fresh n x n array costs
        # as much as the arithmetic.
        C = _chain_matrix(n, dt)
        y_map = np.zeros((n, n))
        np.add(C[1:], C[:-1], out=y_map[1:])
        y_map *= 0.5 * dt
        np.cumsum(y_map, axis=0, out=y_map)
        self.y_map = y_map
        self.y_offset = y0 + v0 * self.times

        rows = [y_map[n - 1]]
        rhs = [yf - self.y_offset[n - 1]]
        if pin:
            rows.append(np.eye(1, n)[0])
            rhs.append(0.0)
        self.eq_matrix = np.array(rows)
        self.eq_rhs = np.array(rhs)
        self.lower = lower
        self.upper = upper
        self.start = _feasible_start(segments, dt, y0, v0, yf)
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    @functools.cached_property
    def weighted(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(P, p, q) with the error term mu (a'Pa + 2 p'a + q).

        P = (LC)' W (LC), p = (LC)' W e_free and q = e_free' W e_free,
        where e_free is the predicted error of a = 0.  Built on the first
        mu > 0 point only: the plain mu = 0 problem never needs the
        O(n^3) product.
        """
        L = lag_response_matrix(self.times, self.lam)
        LC = L @ _chain_matrix(self.times.size, self.dt)
        e_free = self.v0 * L.sum(axis=1)
        weighted = LC.T * self.quad
        P = weighted @ LC
        p = weighted @ e_free
        P.flags.writeable = p.flags.writeable = False
        return P, p, float(np.dot(self.quad, e_free**2))


@functools.lru_cache(maxsize=8)
def _cached_design(segments: int, pin: bool, data: bytes) -> _Design:
    horizon, y0, v0, yf, lower, upper, lam = np.frombuffer(data).tolist()
    return _Design(horizon, segments, y0, v0, yf, lower, upper, pin, lam)


def _design(problem: PlanProblem) -> _Design:
    """The shared design of the problem; mu and params are not part of it.

    The float fields are keyed by their bits, so -0.0 and 0.0 (equal as
    dict keys) get designs of their own and every design is the one the
    problem's own values build.
    """
    data = np.array([
        problem.horizon,
        problem.y0,
        problem.v0,
        problem.yf,
        *problem.y_bounds,
        problem.dominant_lambda,
    ])
    return _cached_design(
        problem.segments, bool(problem.enforce_initial_accel_zero), data.tobytes()
    )


def condense(problem: PlanProblem) -> CondensedQP:
    """Eliminate y and v from the transcribed design problem."""
    lo, hi = problem.y_bounds
    if not (lo <= problem.y0 <= hi and lo <= problem.yf <= hi):
        raise InfeasibleProblemError(
            f"boundary altitudes y0={problem.y0}, yf={problem.yf} "
            f"must lie within the bounds [{lo}, {hi}]"
        )
    design = _design(problem)
    hessian = np.diag(2.0 * design.quad)
    gradient = np.zeros(design.times.size)
    constant = 0.0
    if problem.mu > 0:
        P, p, q = design.weighted
        hessian += 2.0 * problem.mu * P
        gradient = 2.0 * problem.mu * p
        constant = problem.mu * q
    return CondensedQP(
        times=design.times,
        hessian=hessian,
        gradient=gradient,
        constant=constant,
        eq_matrix=design.eq_matrix,
        eq_rhs=design.eq_rhs,
        y_map=design.y_map,
        y_offset=design.y_offset,
        lower=design.lower,
        upper=design.upper,
    )


def _feasible_start(segments, dt, y0, v0, yf) -> np.ndarray:
    """Accelerations whose altitude profile is inside the box.

    Only y carries bounds, so any in-box altitude profile through the
    boundary data works: take the straight line between y0 and yf (the
    segment between two in-box points stays in the box) and back out v
    and a from the trapezoid chains, which are exactly invertible knot
    by knot.  a_0 = 0 also satisfies the optional initial pin.
    """
    n = segments + 1
    y = np.linspace(y0, yf, n)
    v = v0
    a = np.zeros(n)
    for k in range(1, n):
        v_next = 2.0 * (y[k] - y[k - 1]) / dt - v
        a[k] = 2.0 * (v_next - v) / dt - a[k - 1]
        v = v_next
    return a


def _inverse_hessian(hessian: np.ndarray, diagonal: bool):
    """Q^-1 applied to vectors and to column blocks, formed once.

    Q is diagonal when mu = 0, so its inverse is the reciprocal
    diagonal and no O(n^3) work is done; otherwise one dense inverse
    serves every working set of the point.
    """
    if diagonal:
        inverse_diagonal = 1.0 / hessian.diagonal()
        return lambda x: (inverse_diagonal * x.T).T
    try:
        inverse = np.linalg.inv(hessian)
    except np.linalg.LinAlgError as exc:
        raise PlannerNumericalError(f"Hessian inverse failed: {exc}") from exc
    return lambda x: inverse @ x


def _solve_working_set(qp, apply_inverse, free_optimum, rows, rhs):
    """Working-set optimum of min 1/2 a'Qa + c'a s.t. rows a = rhs.

    Range-space (Schur complement) solve of [[Q, R'], [R, 0]] [x; nu] =
    [-c; rhs]: with x0 = -Q^-1 c and G = Q^-1 R', (R G) nu = R x0 - rhs
    and x = x0 - G nu.  One correction against the true KKT residual,
    through the same G and R G, takes back the accuracy the explicit
    inverse gives away.
    """
    G = apply_inverse(rows.T)
    schur = rows @ G
    try:
        mult = np.linalg.solve(schur, rows @ free_optimum - rhs)
        target = free_optimum - G @ mult
        stationarity = qp.hessian @ target + qp.gradient + rows.T @ mult
        feasibility = rows @ target - rhs
        correction = -apply_inverse(stationarity)
        delta = np.linalg.solve(schur, rows @ correction + feasibility)
    except np.linalg.LinAlgError as exc:
        raise PlannerNumericalError(f"KKT solve failed: {exc}") from exc
    target = target + correction - G @ delta
    mult = mult + delta
    if not (np.all(np.isfinite(target)) and np.all(np.isfinite(mult))):
        nv, m = G.shape
        raise PlannerNumericalError(
            "KKT solve produced non-finite values; the system is singular "
            f"(size {nv + m}, equality rows {m})"
        )
    return target, mult


def _solve_box_qp(qp: CondensedQP, a: np.ndarray, diagonal: bool):
    """Minimize the condensed QP from the feasible start a.

    diagonal says Q is diagonal (mu = 0).  Returns (a, multipliers,
    lower working set, upper working set, iterations); the multipliers
    follow the rows (equality rows, lower rows, upper rows) and every
    iteration is one working-set solve.  Convention: with stationarity
    Q a + c + A' nu = 0, an active lower bound carries nu <= 0 and an
    active upper bound nu >= 0; at a working-set optimum the row with
    the worst wrong-signed multiplier is released.
    """
    n = qp.times.size
    m_base = qp.eq_matrix.shape[0]
    apply_inverse = _inverse_hessian(qp.hessian, diagonal)
    free_optimum = -apply_inverse(qp.gradient)
    lo_active = np.zeros(n, dtype=bool)
    hi_active = np.zeros(n, dtype=bool)
    # The endpoint knots are fixed by the boundary data (y_0 does not
    # depend on a, y_{n-1} is an equality row), so only interior knots
    # can block.
    blockable = np.ones(n, dtype=bool)
    blockable[0] = blockable[n - 1] = False

    limit = max(_ACTIVE_SET_LIMIT, 4 * n)
    for iteration in range(1, limit + 1):
        lo_idx = np.flatnonzero(lo_active)
        hi_idx = np.flatnonzero(hi_active)
        rows = np.concatenate([qp.eq_matrix, qp.y_map[lo_idx], qp.y_map[hi_idx]])
        # Solve for the working-set optimum itself, not for the step to
        # it: the straight-line start has large alternating accelerations,
        # and a step from it would carry their rounding into the optimum.
        target, mult = _solve_working_set(
            qp,
            apply_inverse,
            free_optimum,
            rows,
            np.concatenate([
                qp.eq_rhs,
                qp.lower - qp.y_offset[lo_idx],
                qp.upper - qp.y_offset[hi_idx],
            ]),
        )
        step = target - a

        scale = max(1.0, float(np.max(np.abs(a))))
        if np.max(np.abs(step)) > 1e-10 * scale:
            # Longest feasible step toward the working-set optimum.
            y = qp.y_offset + qp.y_map @ a
            direction = qp.y_map @ step
            tol_dir = 1e-12 * float(np.max(np.abs(step)))
            free = blockable & ~lo_active & ~hi_active
            down = np.flatnonzero(free & (direction < -tol_dir))
            up = np.flatnonzero(free & (direction > tol_dir))
            ratios = np.maximum(
                np.concatenate([
                    (qp.lower - y[down]) / direction[down],
                    (qp.upper - y[up]) / direction[up],
                ]),
                0.0,
            )
            first = int(np.argmin(ratios)) if ratios.size else -1
            if first >= 0 and ratios[first] < 1.0:
                a = a + ratios[first] * step
                if first < down.size:
                    lo_active[down[first]] = True
                else:
                    hi_active[up[first - down.size]] = True
                continue
            # A full step lands on the working-set optimum, and this
            # solve's multipliers already belong to it.
            a = target

        # Working-set optimum; release the worst wrong-sign row.
        bound_mult = mult[m_base:]
        lo_mult = bound_mult[: lo_idx.size]
        hi_mult = bound_mult[lo_idx.size :]
        worst = KKT_TOLERANCE / 10.0
        release = None
        if lo_mult.size and np.max(lo_mult) > worst:
            worst = float(np.max(lo_mult))
            release = lo_active, lo_idx[int(np.argmax(lo_mult))]
        if hi_mult.size and float(np.max(-hi_mult)) > worst:
            release = hi_active, hi_idx[int(np.argmax(-hi_mult))]
        if release is None:
            return a, mult, lo_idx, hi_idx, iteration
        working, knot = release
        working[knot] = False

    raise PlannerNumericalError(
        f"active-set loop exceeded {limit} iterations (cycling)"
    )


def _trapezoid_chain(start: float, rates: np.ndarray, dt: float) -> np.ndarray:
    """x_0 = start, x_k = x_{k-1} + dt/2 (rate_k + rate_{k-1})."""
    increments = 0.5 * dt * (rates[1:] + rates[:-1])
    return np.cumsum(np.concatenate([[start], increments]))


def _kkt_residual(qp, a, y, mult, lo_idx, hi_idx) -> float:
    """Max-norm KKT residual of a and its altitude profile y.

    Stationarity of the condensed QP, feasibility of the equality rows
    and of the working set (distance of its knots from their bound),
    box violation at every interior knot, and the multiplier sign and
    complementarity on the working set.  Inactive bounds carry no
    multiplier by construction.
    """
    m_base = qp.eq_matrix.shape[0]
    rows = np.concatenate([qp.eq_matrix, qp.y_map[lo_idx], qp.y_map[hi_idx]])
    stationarity = np.max(np.abs(qp.hessian @ a + qp.gradient + rows.T @ mult))

    lo_mult = mult[m_base : m_base + lo_idx.size]
    hi_mult = mult[m_base + lo_idx.size :]
    lo_gap = y[lo_idx] - qp.lower
    hi_gap = y[hi_idx] - qp.upper
    interior = y[1:-1]
    primal = max(
        float(np.max(np.abs(qp.eq_matrix @ a - qp.eq_rhs))),
        float(np.max(np.abs(lo_gap), initial=0.0)),
        float(np.max(np.abs(hi_gap), initial=0.0)),
        float(np.max(np.maximum(qp.lower - interior, 0.0), initial=0.0)),
        float(np.max(np.maximum(interior - qp.upper, 0.0), initial=0.0)),
    )
    dual = max(
        float(np.max(lo_mult, initial=0.0)),
        float(np.max(-hi_mult, initial=0.0)),
    )
    comp = max(
        float(np.max(np.abs(lo_gap * lo_mult), initial=0.0)),
        float(np.max(np.abs(hi_gap * hi_mult), initial=0.0)),
    )
    return max(stationarity, primal, dual, comp)


def solve(problem: PlanProblem) -> PlannedTrajectory:
    """Solve a design problem to global optimality.

    The condensed QP is strictly convex with affine constraints, so the
    KKT point found here is the global optimum; the residual certificate
    is attached to the returned trajectory.
    """
    qp = condense(problem)
    a, mult, lo_idx, hi_idx, iterations = _solve_box_qp(
        qp, _design(problem).start, diagonal=problem.mu == 0
    )
    times = qp.times
    dt = problem.horizon / problem.segments
    v = _trapezoid_chain(problem.v0, a, dt)
    y = _trapezoid_chain(problem.y0, v, dt)
    residual = _kkt_residual(qp, a, y, mult, lo_idx, hi_idx)
    if residual >= KKT_TOLERANCE:
        raise PlannerNumericalError(
            f"optimality residual {residual:.3e} exceeds {KKT_TOLERANCE:.0e}"
        )
    # Pin working-set knots exactly; the recursion leaves them within
    # rounding of their bound.
    y[lo_idx] = qp.lower
    y[hi_idx] = qp.upper
    predicted = error_integral_form(
        VelocityProfile(times, v), problem.dominant_lambda
    )
    params = problem.params
    return PlannedTrajectory(
        times=times,
        y=y,
        v=v,
        a=a,
        u=params.mass * (a + params.gravity),
        predicted_error=predicted,
        designed_cost=trapezoid_quadrature(times, a**2),
        predicted_error_integral=trapezoid_quadrature(
            times, predicted.values**2
        ),
        mu=problem.mu,
        kkt_residual=residual,
        active_set_iterations=iterations,
    )


TRAJECTORY_COLUMNS = ("t", "y", "v", "a", "u", "e_pred")


class TrajectorySchemaError(ValueError):
    """Trajectory CSV does not match the expected column layout."""


def write_trajectory_csv(traj: PlannedTrajectory, path) -> None:
    """Write the knot grid as CSV, full double precision."""
    columns = np.column_stack(
        [traj.times, traj.y, traj.v, traj.a, traj.u, traj.predicted_error.values]
    )
    with open(path, "w", newline="") as handle:
        handle.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for row in columns:
            handle.write(",".join(f"{value:.17g}" for value in row) + "\n")


def read_trajectory_csv(path) -> PlannedTrajectory:
    """Read a trajectory CSV back into a PlannedTrajectory.

    The design weight is not part of the on-disk schema, so mu comes
    back as None; cost and error integrals are recomputed from the
    columns.
    """
    with open(path, newline="") as handle:
        header = handle.readline().strip()
        names = tuple(part.strip() for part in header.split(","))
        if names != TRAJECTORY_COLUMNS:
            for position, expected in enumerate(TRAJECTORY_COLUMNS):
                found = names[position] if position < len(names) else "nothing"
                if found != expected:
                    raise TrajectorySchemaError(
                        f"column {position}: expected {expected!r}, found {found!r}"
                    )
            raise TrajectorySchemaError(
                f"unexpected extra columns {names[len(TRAJECTORY_COLUMNS):]!r}"
            )
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    if data.shape[1] != len(TRAJECTORY_COLUMNS):
        raise TrajectorySchemaError(
            f"expected {len(TRAJECTORY_COLUMNS)} columns, found {data.shape[1]}"
        )
    times, y, v, a, u, e_pred = data.T
    return PlannedTrajectory(
        times=times,
        y=y,
        v=v,
        a=a,
        u=u,
        predicted_error=ErrorSeries(times=times, values=e_pred),
        designed_cost=trapezoid_quadrature(times, a**2),
        predicted_error_integral=trapezoid_quadrature(times, e_pred**2),
        mu=None,
        kkt_residual=None,
    )
