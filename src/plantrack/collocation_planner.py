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

Only mu scales the error term, so a mu sweep shares everything else.
The grid, its weights, C and Y depend on (segments, horizon) alone and
are shared by every controller; L, the y offset, the equality rows,
the error terms and the error block's spectral factor form one design
per controller (lambda, boundary data and box).  Both are built once
and kept, read-only, in a small per-process cache, so a point only
scales the error terms by mu and reads its predicted error through its
design's L.

A dual active-set loop (Goldfarb and Idnani, Math. Programming 27,
1983; Nocedal and Wright, Numerical Optimization, 2nd ed., 16.5)
handles the box rows.  It starts from the optimum of the equality rows
alone, so it needs no feasible point, adds the most violated interior
bound to the working set and re-solves, and when a working-set
multiplier comes back with the wrong sign it stops part way, where the
first multiplier reaches zero, and drops that row.  Q is positive
definite and the working sets are small, so every working set is solved
in the range space: the KKT system of the equality rows and the working
set reduces to its Schur complement R Q^-1 R', one small system, plus
one correction against the full KKT residual of the explicitly formed
Q.  Q^-1 is never formed.  At mu = 0 it is the reciprocal diagonal; for
mu > 0, with D = diag(2 w) and one eigendecomposition per design,
D^-1/2 P D^-1/2 = V diag(s) V', it is applied as

    Q(mu)^-1 x = SV (r * (SV' x)),  SV = D^-1/2 V,  r = 1 / (1 + 2 mu s),

at O(n^2) per column, where a dense inverse would cost O(n^3) per
point.  A limit on the bound additions guards against rounding loops.
y and v are rebuilt from a by the trapezoid recursion, with
working-set knots pinned exactly to their bound.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._artifact_csv import read_rows, write_rows
from .error_estimator import (
    VelocityProfile,
    _trapezoid,
    apply_lag,
    lag_response_matrix,
    trapezoid_quadrature,
    trapezoid_weights,
)
from .model import ModelParams

KKT_TOLERANCE = 1e-8


class InfeasibleProblemError(ValueError):
    """Boundary data contradicts the box bounds."""


class PlannerNumericalError(RuntimeError):
    """A KKT solve failed, the active-set loop hit its limit, or the
    solution's KKT residual is over KKT_TOLERANCE (the message names the
    largest term: stationarity, primal, multiplier sign or
    complementarity)."""


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
        for name in ("horizon", "y0", "v0", "yf", "mu", "dominant_lambda"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not all(map(math.isfinite, self.y_bounds)):
            raise ValueError("y_bounds must be finite")
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
    working-set solves the dual active-set loop made, the first one (the
    equality rows alone) included; both are None for trajectories read
    back from disk.  predicted_error is e_pred at each knot.
    """

    times: np.ndarray
    y: np.ndarray
    v: np.ndarray
    a: np.ndarray
    u: np.ndarray
    predicted_error: np.ndarray
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


def _read_only(owner) -> None:
    for array in vars(owner).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False


class _Grid:
    """The parts of a design fixed by (segments, horizon) alone.

    The knot times, the trapezoid weights, the chain C (v - v0 = C a,
    the lag operator at lambda = 0) and Y (y - y0 - v0 t = Y a), shared
    by every controller and every boundary data on the grid.
    """

    def __init__(self, segments: int, horizon: float):
        n = segments + 1
        dt = horizon / segments
        self.times = np.linspace(0.0, horizon, n)
        self.quad = trapezoid_weights(n) * dt
        self.chain = C = lag_response_matrix(self.times, 0.0)

        # Row k of Y is the trapezoid chain over rows 0..k of C: O(n^2),
        # where the equivalent matrix product would be O(n^3).  Built in
        # place because at a thousand knots every fresh n x n array costs
        # as much as the arithmetic.
        y_map = np.zeros((n, n))
        np.add(C[1:], C[:-1], out=y_map[1:])
        y_map *= 0.5 * dt
        np.cumsum(y_map, axis=0, out=y_map)
        self.y_map = y_map
        _read_only(self)


class _Design:
    """The mu-independent part of one condensed design problem.

    The lag L, the y offset and the equality rows of one lambda,
    boundary data and box on the shared grid.  The error terms and their
    spectral factor are built on first use (the first mu > 0 point, or
    prepare), so a design planned only at mu = 0 builds neither.  One
    instance serves every mu point of a controller's sweep, and every
    array is read-only because it is shared.
    """

    def __init__(self, grid: _Grid, lam, y0, v0, yf, lower, upper, pin):
        n = grid.times.size
        self.grid = grid
        self.lag = lag_response_matrix(grid.times, lam)
        self.v0 = v0
        self.y_offset = y0 + v0 * grid.times

        rows = [grid.y_map[n - 1]]
        rhs = [yf - self.y_offset[n - 1]]
        if pin:
            rows.append(np.eye(1, n)[0])
            rhs.append(0.0)
        self.eq_matrix = np.array(rows)
        self.eq_rhs = np.array(rhs)
        self.lower = lower
        self.upper = upper
        _read_only(self)

    @functools.cached_property
    def weighted(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(P, p, q) with the error term mu (a'Pa + 2 p'a + q).

        P = (LC)' W (LC), p = (LC)' W e_free and q = e_free' W e_free,
        where e_free = v0 L 1 is the predicted error of a = 0.  LC is an
        O(n^3) temporary formed once.
        """
        quad = self.grid.quad
        LC = self.lag @ self.grid.chain
        weighted = LC.T * quad
        block = weighted @ LC
        e_free = self.v0 * self.lag.sum(axis=1)
        p = weighted @ e_free
        block.flags.writeable = p.flags.writeable = False
        return block, p, float(np.dot(quad, e_free**2))

    @functools.cached_property
    def spectral(self) -> tuple[np.ndarray, np.ndarray]:
        """(SV, s) with Q(mu)^-1 = SV diag(1 / (1 + 2 mu s)) SV'.

        With D = diag(2 w), D^-1/2 P D^-1/2 = V diag(s) V' and
        SV = D^-1/2 V.  P is positive semidefinite, so s is clamped at 0
        (the computed ones reach -1e-20).
        """
        scale = 1.0 / np.sqrt(2.0 * self.grid.quad)
        scaled = self.weighted[0] * scale
        scaled *= scale[:, None]
        try:
            spectrum, vectors = np.linalg.eigh(scaled)
        except np.linalg.LinAlgError as exc:
            raise PlannerNumericalError(f"error block factor failed: {exc}") from exc
        np.maximum(spectrum, 0.0, out=spectrum)
        vectors *= scale[:, None]
        vectors.flags.writeable = spectrum.flags.writeable = False
        return vectors, spectrum


# Designs held per process, and so the most a sweep builds ahead of its
# points (prepare) without evicting one.
_DESIGN_CACHE_SIZE = 8


# Horizon and lambda are validated positive, so equal floats have equal
# bits there and plain float keys are exact.
@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _cached_grid(segments: int, horizon: float) -> _Grid:
    return _Grid(segments, horizon)


@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _cached_design(segments: int, pin: bool, data: bytes) -> _Design:
    horizon, y0, v0, yf, lower, upper, lam = np.frombuffer(data).tolist()
    grid = _cached_grid(segments, horizon)
    return _Design(grid, lam, y0, v0, yf, lower, upper, pin)


def _clear_caches() -> None:
    """Drop every cached design and grid."""
    for cache in (_cached_design, _cached_grid):
        cache.cache_clear()


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


def prepare(problems) -> None:
    """Build and cache the designs of a sweep's problems ahead of its points.

    Each design is built with its error terms and spectral factor, so no
    point of the sweep builds them, and a process that prepares a sweep
    before it forks pool workers builds each design once, not once per
    worker.  At most as many designs as the cache holds are built, so
    none is evicted before its points run; later problems build theirs
    at their first solve.  A design whose factor fails is left for its
    points to report.
    """
    for problem in itertools.islice(problems, _DESIGN_CACHE_SIZE):
        try:
            _design(problem).spectral
        except PlannerNumericalError:
            pass


def condense(problem: PlanProblem) -> CondensedQP:
    """Eliminate y and v from the transcribed design problem."""
    lo, hi = problem.y_bounds
    if not (lo <= problem.y0 <= hi and lo <= problem.yf <= hi):
        raise InfeasibleProblemError(
            f"boundary altitudes y0={problem.y0}, yf={problem.yf} "
            f"must lie within the bounds [{lo}, {hi}]"
        )
    design = _design(problem)
    grid = design.grid
    hessian = np.diag(2.0 * grid.quad)
    gradient = np.zeros(grid.times.size)
    constant = 0.0
    if problem.mu > 0:
        P, p, q = design.weighted
        # A finite mu can still overflow the terms (1e308 does).
        with np.errstate(over="ignore", invalid="ignore"):
            hessian += 2.0 * problem.mu * P
            gradient = 2.0 * problem.mu * p
        constant = problem.mu * q
        if not all(np.isfinite(term).all() for term in (hessian, gradient, constant)):
            raise PlannerNumericalError(f"mu = {problem.mu!r} overflows the design terms")
    return CondensedQP(
        times=grid.times,
        hessian=hessian,
        gradient=gradient,
        constant=constant,
        eq_matrix=design.eq_matrix,
        eq_rhs=design.eq_rhs,
        y_map=grid.y_map,
        y_offset=design.y_offset,
        lower=design.lower,
        upper=design.upper,
    )


def _inverse_hessian(qp: CondensedQP, mu: float, design: _Design):
    """Q^-1 applied to vectors and to column blocks; Q^-1 is never formed.

    Q is diagonal when mu = 0, so its inverse is the reciprocal
    diagonal.  Otherwise the design's spectral factor (SV, s), built
    on its first mu > 0 point, gives Q^-1 x = SV (r * (SV' x)) with
    r = 1 / (1 + 2 mu s): O(n^2) per column, and no per-point O(n^3)
    work.
    """
    if mu == 0:
        inverse_diagonal = 1.0 / qp.hessian.diagonal()
        return lambda x: (inverse_diagonal * x.T).T
    vectors, spectrum = design.spectral
    ratio = 1.0 / (1.0 + 2.0 * mu * spectrum)
    return lambda x: vectors @ (ratio * (x.T @ vectors)).T


def _solve_working_set(qp, apply_inverse, free_optimum, rows, rhs):
    """Working-set optimum of min 1/2 a'Qa + c'a s.t. rows a = rhs.

    Range-space (Schur complement) solve of [[Q, R'], [R, 0]] [x; nu] =
    [-c; rhs]: with x0 = -Q^-1 c and G = Q^-1 R', (R G) nu = R x0 - rhs
    and x = x0 - G nu.  One correction against the true KKT residual
    of the explicitly formed Q, through the same G and R G, takes back
    the accuracy the factored inverse gives away.
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


def _solve_box_qp(qp: CondensedQP, apply_inverse):
    """Minimize the condensed QP by a dual active-set loop.

    apply_inverse applies Q^-1 (see _inverse_hessian), costing
    O(n^2 m) per working set of m rows.  Starts from the optimum of
    the equality rows alone, which needs no feasible point, and adds the
    most violated interior bound until none is violated (Goldfarb and
    Idnani, Math. Programming 27, 1983; Nocedal and Wright 16.5).
    Adding bound p moves (a, nu) on a straight line from the current
    optimum, where p carries nu_p = 0 and its own value as right-hand
    side, to the optimum with p at its bound.  If that optimum has a
    wrong-signed multiplier, the loop stops on the line where the first
    multiplier reaches zero, drops that row and re-solves.

    Returns (a, multipliers, lower working set, upper working set,
    working-set solves).  The multipliers follow the rows (equality
    rows, lower knots ascending, upper knots ascending).  Convention:
    with stationarity Q a + c + A' nu = 0, an active lower bound carries
    nu <= 0 and an active upper bound nu >= 0.
    """
    n = qp.times.size
    m_base = qp.eq_matrix.shape[0]
    free_optimum = -apply_inverse(qp.gradient)
    tol = KKT_TOLERANCE / 10.0
    # Working set by knot: -1 lower bound, +1 upper bound, 0 free; a
    # multiplier nu has the right sign when side * nu >= 0.  nu holds the
    # bound multipliers of the current point on the dual path.
    side = np.zeros(n, dtype=np.int8)
    nu = np.zeros(n)
    # The most additions measured are 3.0n over 3400 property-test draws
    # and 7.4n at v0 = 1000 in a 0.1 m box; only a rounding loop gets
    # further.
    limit = 10 * n
    additions = solves = 0
    while True:
        lo_idx = np.flatnonzero(side < 0)
        hi_idx = np.flatnonzero(side > 0)
        a, mult = _solve_working_set(
            qp,
            apply_inverse,
            free_optimum,
            np.concatenate([qp.eq_matrix, qp.y_map[lo_idx], qp.y_map[hi_idx]]),
            np.concatenate([
                qp.eq_rhs,
                qp.lower - qp.y_offset[lo_idx],
                qp.upper - qp.y_offset[hi_idx],
            ]),
        )
        solves += 1
        new = np.zeros(n)
        new[np.concatenate([lo_idx, hi_idx])] = mult[m_base:]

        wrong = np.flatnonzero(side * new < -tol)
        if wrong.size:
            # Partial step: on the line nu + t (new - nu) the first
            # wrong-signed multiplier reaches zero at t = nu / (nu - new).
            steps = nu[wrong] / (nu[wrong] - new[wrong])
            drop = wrong[np.argmin(steps)]
            nu += max(float(np.min(steps)), 0.0) * (new - nu)
            side[drop] = 0
            nu[drop] = 0.0
            continue

        # The endpoint knots are fixed by the boundary data (y_0 does not
        # depend on a, y_{n-1} is an equality row); only interior knots
        # can leave the box.
        y = qp.y_offset + qp.y_map @ a
        violation = np.maximum(qp.lower - y, y - qp.upper)
        violation[[0, n - 1]] = -np.inf
        violation[side != 0] = -np.inf
        knot = int(np.argmax(violation))
        if violation[knot] <= tol:
            return a, mult, lo_idx, hi_idx, solves
        additions += 1
        if additions > limit:
            raise PlannerNumericalError(
                f"active-set loop exceeded {limit} bound additions"
            )
        side[knot] = -1 if y[knot] < qp.lower else 1
        nu = new


def _trapezoid_chain(start: float, rates: np.ndarray, dt: float) -> np.ndarray:
    """x_0 = start, x_k = x_{k-1} + dt/2 (rate_k + rate_{k-1})."""
    increments = 0.5 * dt * (rates[1:] + rates[:-1])
    return np.cumsum(np.concatenate([[start], increments]))


def _kkt_residual(qp, a, y, mult, lo_idx, hi_idx) -> dict[str, float]:
    """Max-norm KKT residual terms of a and its altitude profile y.

    Stationarity of the condensed QP, primal feasibility of the equality
    rows and of the working set (distance of its knots from their bound)
    with the box violation at every interior knot, and the multiplier
    sign and complementarity on the working set, keyed by those names.
    Inactive bounds carry no multiplier by construction.
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
    return {
        "stationarity": stationarity,
        "primal": primal,
        "multiplier sign": dual,
        "complementarity": comp,
    }


def solve(problem: PlanProblem) -> PlannedTrajectory:
    """Solve a design problem to global optimality.

    The condensed QP is strictly convex with affine constraints, so the
    KKT point found here is the global optimum; the residual certificate
    is attached to the returned trajectory.
    """
    qp = condense(problem)
    design = _design(problem)
    a, mult, lo_idx, hi_idx, iterations = _solve_box_qp(
        qp, _inverse_hessian(qp, problem.mu, design)
    )
    times = qp.times
    # linspace ends on the horizon exactly, so dt is also the spacing
    # trapezoid_quadrature would measure, (t[-1] - t[0]) / segments.
    dt = problem.horizon / problem.segments
    v = _trapezoid_chain(problem.v0, a, dt)
    y = _trapezoid_chain(problem.y0, v, dt)
    terms = _kkt_residual(qp, a, y, mult, lo_idx, hi_idx)
    worst = max(terms, key=terms.get)
    residual = terms[worst]
    if residual >= KKT_TOLERANCE:
        raise PlannerNumericalError(
            f"optimality residual {residual:.3e} exceeds {KKT_TOLERANCE:.0e} "
            f"({worst})"
        )
    # Pin working-set knots exactly; the recursion leaves them within
    # rounding of their bound.
    y[lo_idx] = qp.lower
    y[hi_idx] = qp.upper
    predicted = apply_lag(design.lag, v)
    params = problem.params
    return PlannedTrajectory(
        times=times,
        y=y,
        v=v,
        a=a,
        u=params.mass * (a + params.gravity),
        predicted_error=predicted,
        designed_cost=_trapezoid(a**2, dt),
        predicted_error_integral=_trapezoid(predicted**2, dt),
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
        [traj.times, traj.y, traj.v, traj.a, traj.u, traj.predicted_error]
    )
    write_rows(path, TRAJECTORY_COLUMNS, columns)


def read_trajectory_csv(path) -> PlannedTrajectory:
    """Read a trajectory CSV back into a PlannedTrajectory.

    The design weight is not part of the on-disk schema, so mu comes
    back as None; cost and error integrals are recomputed from the
    columns.  The t column must be the uniform grid from 0 that the
    planner writes.
    """
    data = read_rows(path, TRAJECTORY_COLUMNS, TrajectorySchemaError)
    times, y, v, a, u, e_pred = data.T
    try:
        VelocityProfile(times, v)
    except ValueError as exc:
        raise TrajectorySchemaError(f"column 't': {exc}") from exc
    return PlannedTrajectory(
        times=times,
        y=y,
        v=v,
        a=a,
        u=u,
        predicted_error=e_pred,
        designed_cost=trapezoid_quadrature(times, a**2),
        predicted_error_integral=trapezoid_quadrature(times, e_pred**2),
        mu=None,
        kkt_residual=None,
    )
