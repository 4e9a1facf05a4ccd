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
the grid, its weights, C, Y, L, the y offset, the equality rows, the
error terms and the error block's spectral factor form one design per
controller (grid, lambda, boundary data and box), built once and kept,
read-only, in a small per-process cache.  A point's QP is its design
at one mu: the design forms Q(mu) and c(mu) and applies Q(mu)^-1, and
the point reads its predicted error through the design's L.

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
The working set is one array by knot (-1 lower, +1 upper, 0 free), and
the design builds its rows in one order, the equality rows, then the
lower and then the upper knots ascending, for the loop and for the KKT
certificate alike.  y and v are rebuilt from a by the trapezoid
recursion, with working-set knots pinned exactly to their bound.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._artifact_csv import SchemaError, read_rows, write_samples
from .error_estimator import (
    _spacing,
    _trapezoid,
    _uniform_spacing,
    apply_lag,
    lag_response_matrix,
    trapezoid_weights,
)
from .model import ModelParams

KKT_TOLERANCE = 1e-8

# A design holds several n x n arrays over its n = segments + 1 knots: a
# cold mu > 0 plan peaks near 80 bytes per knot squared (peak RSS 112, 209
# and 344 MB at 1000, 1500 and 2000 segments on x86-64 Linux), so the bound
# keeps one plan under about 0.4 GB, as MAX_FLIGHT_STEPS keeps one flight.
MAX_SEGMENTS = 2000


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
        if self.segments > MAX_SEGMENTS:
            raise ValueError(f"{self.segments} segments is over the bound of {MAX_SEGMENTS}")
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
        return float(_spacing(self.times))


def _read_only(owner) -> None:
    for array in vars(owner).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False


# The knots and bounds of the empty working set.
_NO_KNOTS = np.zeros(0, dtype=np.intp)
_NO_BOUNDS = np.zeros(0)


class _Design:
    """The condensed design QP of one controller, at every mu.

    The knot times, the trapezoid weights, the chain C (v - v0 = C a,
    the lag operator at lambda = 0) and Y (y - y0 - v0 t = Y a) of the
    grid, and the lag L, the y offset and the equality rows of one
    lambda, boundary data and box; objective(mu) and inverse(mu) give a
    point's Q, c and Q^-1.  The error terms and their spectral factor
    are built on first use (the first mu > 0 point, or prepare), so a
    design planned only at mu = 0 builds neither.  One instance serves
    every mu point of a controller's sweep, and every array is read-only
    because it is shared.
    """

    def __init__(self, segments, horizon, lam, y0, v0, yf, lower, upper, pin):
        n = segments + 1
        self.times = np.linspace(0.0, horizon, n)
        dt = _spacing(self.times)
        self.quad = trapezoid_weights(n) * dt
        self.chain = C = lag_response_matrix(self.times, 0.0)

        # Row k of Y is the trapezoid chain over rows 0..k of C: O(n^2),
        # where the equivalent matrix product would be O(n^3).  Built in
        # place because at a thousand knots every fresh n x n array costs
        # as much as the arithmetic.  Y grows as dt^2, so a finite horizon
        # can still overflow it (1e160 s does).
        y_map = np.zeros((n, n))
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(C[1:], C[:-1], out=y_map[1:])
            y_map *= 0.5 * dt
            np.cumsum(y_map, axis=0, out=y_map)
        if not np.isfinite(y_map).all():
            raise PlannerNumericalError(f"horizon {horizon:g} s overflows the design")
        self.y_map = y_map

        self.lag = lag_response_matrix(self.times, lam)
        self.v0 = v0
        # A finite start speed can still overflow the coasting altitude
        # y0 + v0 t or the climb left to the final knot.
        with np.errstate(over="ignore", invalid="ignore"):
            self.y_offset = y0 + v0 * self.times
            rhs = [yf - self.y_offset[n - 1]]
        if not (np.isfinite(self.y_offset).all() and np.isfinite(rhs[0])):
            raise PlannerNumericalError(
                f"v0 {v0:g} m/s over horizon {horizon:g} s overflows the design"
            )

        rows = [y_map[n - 1]]
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
        O(n^3) temporary formed once.  They grow as dt^3, so a finite
        horizon can still overflow them (1e100 s does).
        """
        quad = self.quad
        with np.errstate(over="ignore", invalid="ignore"):
            LC = self.lag @ self.chain
            weighted = LC.T * quad
            block = weighted @ LC
            e_free = self.v0 * self.lag.sum(axis=1)
            p = weighted @ e_free
            q = float(np.dot(quad, e_free**2))
        if not all(np.isfinite(term).all() for term in (block, p, q)):
            raise PlannerNumericalError("the error terms overflow the design")
        block.flags.writeable = p.flags.writeable = False
        return block, p, q

    @functools.cached_property
    def spectral(self) -> tuple[np.ndarray, np.ndarray]:
        """(SV, s) with Q(mu)^-1 = SV diag(1 / (1 + 2 mu s)) SV'.

        With D = diag(2 w), D^-1/2 P D^-1/2 = V diag(s) V' and
        SV = D^-1/2 V.  P is positive semidefinite, so s is clamped at 0
        (the computed ones reach -1e-20).
        """
        scale = 1.0 / np.sqrt(2.0 * self.quad)
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

    def objective(self, mu: float) -> tuple[np.ndarray, np.ndarray]:
        """(Q, c) of the point at weight mu, arrays the caller owns.

        1/2 a'Qa + c'a + mu q, with q = weighted[2], equals the design
        objective, integral of a^2 + mu e^2, at every a.  A finite mu can
        still overflow the terms (1e308 does); the constant mu q is not
        returned, but its overflow rejects the weight too.
        """
        quad = self.quad
        hessian = np.diag(2.0 * quad)
        gradient = np.zeros(quad.size)
        if mu > 0:
            P, p, q = self.weighted
            with np.errstate(over="ignore", invalid="ignore"):
                hessian += 2.0 * mu * P
                gradient = 2.0 * mu * p
            if not all(np.isfinite(term).all() for term in (hessian, gradient, mu * q)):
                raise PlannerNumericalError(f"mu = {mu!r} overflows the design terms")
        return hessian, gradient

    def inverse(self, mu: float):
        """Q(mu)^-1 applied to vectors and column blocks, never formed: the
        reciprocal diagonal at mu = 0, else SV (r * (SV' x)), O(n^2) per column."""
        if mu == 0:
            inverse_diagonal = 1.0 / (2.0 * self.quad)
            return lambda x: (inverse_diagonal * x.T).T
        vectors, spectrum = self.spectral
        ratio = 1.0 / (1.0 + 2.0 * mu * spectrum)
        return lambda x: vectors @ (ratio * (x.T @ vectors)).T

    def working_rows(self, side: np.ndarray):
        """(rows, rhs, knots, bounds) of the working set side, which holds
        -1 (lower bound), +1 (upper) or 0 (free) by knot: the equality rows,
        then the lower knots ascending, then the upper knots ascending, each
        bound row's rhs its bound less the y offset.  The empty working
        set, where most points start and many end, gives the design's own
        read-only equality rows."""
        if not side.any():
            return self.eq_matrix, self.eq_rhs, _NO_KNOTS, _NO_BOUNDS
        knots = np.concatenate([np.flatnonzero(side < 0), np.flatnonzero(side > 0)])
        bounds = np.where(side[knots] < 0, self.lower, self.upper)
        rows = np.concatenate([self.eq_matrix, self.y_map[knots]])
        rhs = np.concatenate([self.eq_rhs, bounds - self.y_offset[knots]])
        return rows, rhs, knots, bounds


# Designs held per process, and so the most a sweep builds ahead of its
# points (prepare) without evicting one.
_DESIGN_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _cached_design(segments: int, pin: bool, data: bytes) -> _Design:
    horizon, y0, v0, yf, lower, upper, lam = np.frombuffer(data).tolist()
    return _Design(segments, horizon, lam, y0, v0, yf, lower, upper, pin)


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
    before it forks its share workers builds each design once, not once
    per process.  At most as many designs as the cache holds are built, so
    none is evicted before its points run; later problems build theirs
    at their first solve.  A design whose factor fails is left for its
    points to report.
    """
    for problem in itertools.islice(problems, _DESIGN_CACHE_SIZE):
        try:
            _design(problem).spectral
        except PlannerNumericalError:
            pass


def _solve_working_set(objective, apply_inverse, free_optimum, rows, rhs):
    """Working-set optimum of min 1/2 a'Qa + c'a s.t. rows a = rhs.

    Range-space (Schur complement) solve of [[Q, R'], [R, 0]] [x; nu] =
    [-c; rhs]: with x0 = -Q^-1 c and G = Q^-1 R', (R G) nu = R x0 - rhs
    and x = x0 - G nu.  One correction against the true KKT residual
    of the explicitly formed Q, through the same G and R G, takes back
    the accuracy the factored inverse gives away.
    """
    hessian, gradient = objective
    # Terms that overflow (a very large mu) fail the finite check below
    # as one error, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        G = apply_inverse(rows.T)
        schur = rows @ G
        try:
            mult = np.linalg.solve(schur, rows @ free_optimum - rhs)
            target = free_optimum - G @ mult
            stationarity = hessian @ target + gradient + rows.T @ mult
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
            f"KKT solve produced non-finite values (size {nv + m}, constraint rows {m})"
        )
    return target, mult


def _solve_box_qp(design: _Design, objective, apply_inverse):
    """Minimize a point's QP, (Q, c) = objective, by a dual active-set loop.

    apply_inverse applies Q^-1 (see _Design.inverse), costing O(n^2 m)
    per working set of m rows.  Starts from the optimum of the equality
    rows alone, which needs no feasible point, and adds the most
    violated interior bound until none is violated (Goldfarb and
    Idnani, Math. Programming 27, 1983; Nocedal and Wright 16.5).
    Adding bound p moves (a, nu) on a straight line from the current
    optimum, where p carries nu_p = 0 and its own value as right-hand
    side, to the optimum with p at its bound.  If that optimum has a
    wrong-signed multiplier, the loop stops on the line where the first
    multiplier reaches zero, drops that row and re-solves.

    Returns (a, multipliers, side, working-set solves): side is the final
    working set and the multipliers follow its rows, _Design.working_rows.
    Convention: with stationarity Q a + c + A' nu = 0, an active lower
    bound carries nu <= 0 and an active upper bound nu >= 0.
    """
    n = design.times.size
    m_base = design.eq_matrix.shape[0]
    free_optimum = -apply_inverse(objective[1])
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
        rows, rhs, knots, _ = design.working_rows(side)
        a, mult = _solve_working_set(objective, apply_inverse, free_optimum, rows, rhs)
        solves += 1
        new = np.zeros(n)
        new[knots] = mult[m_base:]

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
        y = design.y_offset + design.y_map @ a
        violation = np.maximum(design.lower - y, y - design.upper)
        violation[[0, n - 1]] = -np.inf
        violation[side != 0] = -np.inf
        knot = int(np.argmax(violation))
        if violation[knot] <= tol:
            return a, mult, side, solves
        additions += 1
        if additions > limit:
            raise PlannerNumericalError(
                f"active-set loop exceeded {limit} bound additions"
            )
        side[knot] = -1 if y[knot] < design.lower else 1
        nu = new


def _trapezoid_chain(start: float, rates: np.ndarray, dt: float) -> np.ndarray:
    """x_0 = start, x_k = x_{k-1} + dt/2 (rate_k + rate_{k-1})."""
    increments = 0.5 * dt * (rates[1:] + rates[:-1])
    return np.cumsum(np.concatenate([[start], increments]))


def _kkt_residual(design, objective, a, y, mult, side) -> dict[str, float]:
    """Max-norm KKT residual terms of a and its altitude profile y.

    Stationarity of the point's QP, (Q, c) = objective, with the rows
    and multipliers of the working set side (see _Design.working_rows),
    primal feasibility of the equality rows and of the working set (the
    gap of its knots from their bound) with the box violation at every
    interior knot, and the multiplier sign and complementarity on the
    working set, keyed by those names.  Inactive bounds carry no
    multiplier by construction.
    """
    hessian, gradient = objective
    rows, _, knots, bounds = design.working_rows(side)
    stationarity = np.max(np.abs(hessian @ a + gradient + rows.T @ mult))

    bound_mult = mult[design.eq_matrix.shape[0] :]
    gap = y[knots] - bounds
    interior = y[1:-1]
    primal = max(
        float(np.max(np.abs(design.eq_matrix @ a - design.eq_rhs))),
        float(np.max(np.abs(gap), initial=0.0)),
        float(np.max(np.maximum(design.lower - interior, 0.0), initial=0.0)),
        float(np.max(np.maximum(interior - design.upper, 0.0), initial=0.0)),
    )
    return {
        "stationarity": stationarity,
        "primal": primal,
        "multiplier sign": float(np.max(-side[knots] * bound_mult, initial=0.0)),
        "complementarity": float(np.max(np.abs(gap * bound_mult), initial=0.0)),
    }


def solve(problem: PlanProblem) -> PlannedTrajectory:
    """Solve a design problem to global optimality.

    The condensed QP is strictly convex with affine constraints, so the
    KKT point found here is the global optimum; the residual certificate
    is attached to the returned trajectory.
    """
    lo, hi = problem.y_bounds
    if not (lo <= problem.y0 <= hi and lo <= problem.yf <= hi):
        raise InfeasibleProblemError(
            f"boundary altitudes y0={problem.y0}, yf={problem.yf} "
            f"must lie within the bounds [{lo}, {hi}]"
        )
    design = _design(problem)
    objective = design.objective(problem.mu)
    a, mult, side, iterations = _solve_box_qp(
        design, objective, design.inverse(problem.mu)
    )
    times = design.times
    dt = _spacing(times)
    v = _trapezoid_chain(problem.v0, a, dt)
    y = _trapezoid_chain(problem.y0, v, dt)
    terms = _kkt_residual(design, objective, a, y, mult, side)
    worst = max(terms, key=terms.get)
    residual = terms[worst]
    if residual >= KKT_TOLERANCE:
        raise PlannerNumericalError(
            f"optimality residual {residual:.3e} exceeds {KKT_TOLERANCE:.0e} "
            f"({worst})"
        )
    # Pin working-set knots exactly; the recursion leaves them within
    # rounding of their bound.
    y[side < 0] = design.lower
    y[side > 0] = design.upper
    predicted = apply_lag(design.lag, v)
    params = problem.params
    # Finite constants can still overflow the thrust (a mass of 1e307 does).
    with np.errstate(over="ignore"):
        thrust = params.mass * (a + params.gravity)
    if not np.isfinite(thrust).all():
        raise PlannerNumericalError("planned thrust M (a + g) overflows")
    return PlannedTrajectory(
        times=times,
        y=y,
        v=v,
        a=a,
        u=thrust,
        predicted_error=predicted,
        designed_cost=_trapezoid(times, a**2),
        predicted_error_integral=_trapezoid(times, predicted**2),
        mu=problem.mu,
        kkt_residual=residual,
        active_set_iterations=iterations,
    )


TRAJECTORY_COLUMNS = {
    "t": "times", "y": "y", "v": "v", "a": "a", "u": "u", "e_pred": "predicted_error",
}


def write_trajectory_csv(traj: PlannedTrajectory, path) -> None:
    """Write the knot grid as CSV, full double precision."""
    write_samples(path, TRAJECTORY_COLUMNS, traj)


def read_trajectory_csv(path) -> PlannedTrajectory:
    """Read a trajectory CSV back into a PlannedTrajectory.

    The design weight is not part of the on-disk schema, so mu comes
    back as None; cost and error integrals are recomputed from the
    columns.  The t column must be the uniform grid from 0 that the
    planner writes.
    """
    data = read_rows(path, TRAJECTORY_COLUMNS)
    columns = dict(zip(TRAJECTORY_COLUMNS.values(), data.T))
    times = columns["times"]
    if times[0] != 0.0:
        raise SchemaError("column 't': profile must start at t = 0")
    try:
        _uniform_spacing(times)
    except ValueError as exc:
        raise SchemaError(f"column 't': {exc}") from exc
    # Finite cells can still overflow once squared (1e200 does).
    with np.errstate(over="ignore"):
        designed_cost = _trapezoid(times, columns["a"] ** 2)
        predicted_error_integral = _trapezoid(times, columns["predicted_error"] ** 2)
    for name, integral in (("a", designed_cost), ("e_pred", predicted_error_integral)):
        if not math.isfinite(integral):
            raise SchemaError(
                f"column {name!r}: the integral of its square is not finite"
            )
    return PlannedTrajectory(
        **columns,
        designed_cost=designed_cost,
        predicted_error_integral=predicted_error_integral,
        mu=None,
        kkt_residual=None,
    )
