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
at one mu, and the point reads its predicted error through the design's
L.  solve_weights plans a grid of weights of one design in one pass:
each weight is a lane of stacked arrays, and the lanes' c(mu),
Q(mu)^-1, equality-row solve, box check, KKT certificate and rebuild
of y, v, u and the predicted error run as stacks.  numpy's matmul on a
stack issues one BLAS call per lane with the operands of the point's own
call, so with the same operand order and every lane 16-byte aligned
each lane gets the bits of its point solved alone; Q(mu) is formed one
lane at a time.  Only the lanes whose equality-row optimum leaves the
box go on through the active-set loop, one at a time.  solve is
solve_weights of one weight.

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
from dataclasses import dataclass, field, replace

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

    @functools.cached_property
    def overflow_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, factors): Q(mu) and c(mu) are finite exactly when
        offsets + 2 mu factors is.

        Rounding is monotone, so the entries 2 mu P_ij and 2 mu p_i are
        all finite exactly when 2 mu max|P| and 2 mu max|p| are, and Q's
        diagonal 2 w + 2 mu diag(P) is formed as hessian forms it.
        """
        P, p, _ = self.weighted
        factors = np.concatenate([[np.abs(P).max(), np.abs(p).max()], np.diagonal(P)])
        offsets = np.concatenate([[0.0, 0.0], 2.0 * self.quad])
        factors.flags.writeable = offsets.flags.writeable = False
        return offsets, factors

    def hessian(self, mu: float) -> np.ndarray:
        """Q(mu) = diag(2 w) + 2 mu P, an n x n array the caller owns.

        A finite mu can still overflow it (1e308 does); _Lanes.at checks
        each weight before its point is planned.
        """
        hessian = np.diag(2.0 * self.quad)
        if mu > 0:
            with np.errstate(over="ignore", invalid="ignore"):
                hessian += 2.0 * mu * self.weighted[0]
        return hessian

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


def _stack(lanes: int | None, *shape: int) -> np.ndarray:
    """An uninitialised (lanes, *shape) stack whose every lane starts
    16-byte aligned, as a fresh array does; a fresh array of shape when
    lanes is None (one point, no lane axis).

    OpenBLAS kernels can round an operand or an output that starts 8
    bytes off a 16-byte boundary differently, so a stacked product gives
    each lane the bits of the pointwise product only if every lane starts
    aligned: the lanes are an even number of doubles apart.
    """
    if lanes is None:
        return np.empty(shape)
    size = math.prod(shape)
    if lanes == 1 or size % 2 == 0:
        return np.empty((lanes, *shape))
    return np.empty((lanes, size + 1))[:, :size].reshape(lanes, *shape)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, one operand or both a stack of lanes, with aligned lanes.

    numpy's matmul issues one gemv, gemm or dot call per lane, with the
    operands and the operand order of the same product on one lane.  Its
    own output lanes are contiguous, so only an odd lane size needs a
    padded stack.
    """
    if a.ndim < 3 and b.ndim < 3:
        return a @ b
    rows, columns = a.shape[-2], b.shape[-1]
    lanes = len(a) if a.ndim == 3 else len(b)
    if lanes == 1 or rows * columns % 2 == 0:
        return a @ b
    return np.matmul(a, b, out=_stack(lanes, rows, columns))


class _Lanes:
    """One design's QPs at several weights, all zero or all positive, as
    stacks: lane b is the point at weight mu[b], with its gradient c and,
    for mu > 0, its spectral ratio r = 1 / (1 + 2 mu s).

    A lane's arithmetic is its point's own, call for call and in the same
    operand order, so each lane gets the bits of the point planned alone.
    Q(mu) is formed one lane at a time: a stack of them would hold
    lanes x n^2 doubles.  Q^-1 is applied as the module docstring says:
    the reciprocal diagonal at mu = 0, else SV (r * (SV' x)).  errors
    holds the PlannerNumericalError that decides a lane before its
    solve, or None.  lane(b) is lane b as one point, whose vectors have
    no lane axis (lanes is None), so the active-set loop makes the
    pointwise calls themselves.
    """

    def __init__(self, design: _Design, mu: list, gradient, ratio, errors: list):
        self.design = design
        self.mu = mu
        self.gradient = gradient
        self.ratio = ratio
        self.errors = errors
        self.lanes = len(mu) if gradient.ndim == 2 else None
        self._hessian = None

    @classmethod
    def at(cls, design: _Design, mu: list) -> _Lanes:
        """The lanes of design at the weights mu.

        A finite mu can still overflow its point's objective 1/2 a'Qa +
        c'a + mu q (1e308 does): that lane's error is the overflow, and
        it is planned as a stand-in at mu = 0, which keeps its values
        finite.  Q is checked without forming it, by
        _Design.overflow_terms.  When the spectral factor fails, every
        lane not failed already fails with it.  Raises the error of error
        terms that overflow the design.
        """
        count, n = len(mu), design.times.size
        gradient = _stack(count, n)
        errors = [None] * count
        if mu[0] == 0:
            gradient[:] = 0.0
            return cls(design, mu, gradient, None, errors)
        _, p, q = design.weighted
        offsets, factors = design.overflow_terms
        weights = np.array(mu, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            scale = 2.0 * weights[:, None]
            np.multiply(scale, p, out=gradient)
            finite = np.isfinite(offsets + scale * factors).all(axis=1) & np.isfinite(
                weights * q
            )
        if not finite.all():
            for b in np.flatnonzero(~finite).tolist():
                errors[b] = PlannerNumericalError(
                    f"mu = {mu[b]!r} overflows the design terms"
                )
            mu = [0.0 if error else w for w, error in zip(mu, errors)]
            scale[~finite] = gradient[~finite] = 0.0
        try:
            spectrum = design.spectral[1]
        except PlannerNumericalError as exc:
            errors = [error or exc for error in errors]
            spectrum = np.zeros(n)
        return cls(design, mu, gradient, 1.0 / (1.0 + scale * spectrum), errors)

    def lane(self, b: int) -> _Lanes:
        """Lane b as one point; it shares the Q a single lane has formed."""
        ratio = None if self.ratio is None else self.ratio[b]
        point = _Lanes(
            self.design, self.mu[b : b + 1], self.gradient[b], ratio,
            self.errors[b : b + 1],
        )
        if len(self.mu) == 1:
            point._hessian = self._hessian
        return point

    def hessians(self):
        """Q of each lane, formed in turn; a single lane keeps its own."""
        if len(self.mu) > 1:
            return map(self.design.hessian, self.mu)
        if self._hessian is None:
            self._hessian = self.design.hessian(self.mu[0])
        return (self._hessian,)

    def hessian_times(self, x: np.ndarray) -> np.ndarray:
        """Q x of each lane."""
        if self.lanes is None:
            (hessian,) = self.hessians()
            return hessian @ x
        product = _stack(*x.shape)
        for b, hessian in enumerate(self.hessians()):
            np.matmul(hessian, x[b], out=product[b])
        return product

    def inverse_vectors(self, x: np.ndarray) -> np.ndarray:
        """Q^-1 x of each lane, x an (n,)-vector per lane."""
        if self.ratio is None:
            inverse_diagonal = 1.0 / (2.0 * self.design.quad)
            return np.multiply(inverse_diagonal, x, out=_stack(self.lanes, x.shape[-1]))
        vectors = self.design.spectral[0]
        w = _matmul(x[..., None, :], vectors)
        np.multiply(self.ratio[..., None, :], w, out=w)
        return _matmul(vectors, w.swapaxes(-1, -2))[..., 0]

    def inverse_rows(self, rows: np.ndarray) -> np.ndarray:
        """Q^-1 R' of each lane, for the (m, n) rows R the lanes share."""
        if self.ratio is None:
            shared = (1.0 / (2.0 * self.design.quad) * rows).T
            if self.lanes is None:
                return shared
            return np.broadcast_to(shared, (self.lanes, *shared.shape))
        vectors = self.design.spectral[0]
        w = rows @ vectors
        w = np.multiply(self.ratio[..., None, :], w, out=_stack(self.lanes, *w.shape))
        return _matmul(vectors, w.swapaxes(-1, -2))


def _solve_working_sets(lanes: _Lanes, free_optimum, rows, rhs):
    """Each lane's optimum of min 1/2 a'Qa + c'a s.t. rows a = rhs.

    Range-space (Schur complement) solve of [[Q, R'], [R, 0]] [x; nu] =
    [-c; rhs]: with x0 = -Q^-1 c (free_optimum) and G = Q^-1 R',
    (R G) nu = R x0 - rhs and x = x0 - G nu.  One correction against the
    true KKT residual of the explicitly formed Q, through the same G and
    R G, takes back the accuracy the factored inverse gives away.

    Returns (a, multipliers) and whether each lane's values are finite,
    each with the lane axis of free_optimum, if any.  numpy fails a
    stacked solve for one singular lane, so a failed solve fails every
    lane.
    """
    count, n = lanes.lanes, free_optimum.shape[-1]
    # Terms that overflow (a very large mu) fail the finite check as one
    # error, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        G = lanes.inverse_rows(rows)
        # Products with m = rows.shape[0] rows per lane need no padded
        # stack: a stack of more than one lane has m <= 2, where they are
        # dots with one row and lanes 16 or 32 bytes apart with two; so do
        # the solved multipliers.
        schur = rows @ G
        rhs = rhs[:, None]
        try:
            mult = np.linalg.solve(schur, rows @ free_optimum[..., None] - rhs)
            target = np.subtract(
                free_optimum, _matmul(G, mult)[..., 0], out=_stack(count, n)
            )
            stationarity = lanes.hessian_times(target)
            stationarity += lanes.gradient
            stationarity += _matmul(rows.T, mult)[..., 0]
            feasibility = rows @ target[..., None] - rhs
            correction = lanes.inverse_vectors(stationarity)
            np.negative(correction, out=correction)
            delta = np.linalg.solve(schur, rows @ correction[..., None] + feasibility)
        except np.linalg.LinAlgError as exc:
            raise PlannerNumericalError(f"KKT solve failed: {exc}") from exc
        target = np.subtract(
            target + correction, _matmul(G, delta)[..., 0], out=_stack(count, n)
        )
        mult = (mult + delta)[..., 0]
    finite = np.isfinite(target).all(axis=-1) & np.isfinite(mult).all(axis=-1)
    return target, mult, finite


def _non_finite_error(design: _Design, rows) -> PlannerNumericalError:
    n, m = design.times.size, rows.shape[0]
    return PlannerNumericalError(
        f"KKT solve produced non-finite values (size {n + m}, constraint rows {m})"
    )


def _solve_working_set(point: _Lanes, free_optimum, rows, rhs):
    """_solve_working_sets of one point (_Lanes.lane), as (a, multipliers)."""
    a, mult, finite = _solve_working_sets(point, free_optimum, rows, rhs)
    if not finite:
        raise _non_finite_error(point.design, rows)
    return a, mult


def _box_violations(design: _Design, a, side=None):
    """(y, violation) of each lane of a and side, with or without a lane
    axis: the altitude y0 + v0 t + Y a and, at each interior knot off
    the working set side (empty when None), how far y is outside the box
    (-inf elsewhere).

    The endpoint knots are fixed by the boundary data (y_0 does not
    depend on a, y_{n-1} is an equality row); only interior knots can
    leave the box.
    """
    y = design.y_offset + _matmul(design.y_map, a[..., None])[..., 0]
    violation = np.maximum(design.lower - y, y - design.upper)
    violation[..., 0] = violation[..., -1] = -np.inf
    if side is not None:
        violation[side != 0] = -np.inf
    return y, violation


def _solve_box_qp(point: _Lanes, free_optimum, a, mult, y, violation):
    """Minimize one point's QP by the dual active-set loop, from (a, mult),
    the optimum of the equality rows alone, whose altitude y leaves the
    box by violation (see _box_violations).

    Its Q^-1 costs O(n^2 m) per working set of m rows.  The loop adds the
    most violated interior bound until none is violated (Goldfarb and
    Idnani, Math. Programming 27, 1983; Nocedal and Wright 16.5).
    Adding bound p moves (a, nu) on a straight line from the current
    optimum, where p carries nu_p = 0 and its own value as right-hand
    side, to the optimum with p at its bound.  If that optimum has a
    wrong-signed multiplier, the loop stops on the line where the first
    multiplier reaches zero, drops that row and re-solves.

    Returns (a, multipliers, side, working-set solves, (rows, knots,
    bounds)): side is the final working set, the triple its
    _Design.working_rows, and the multipliers follow its rows.
    Convention: with stationarity Q a + c + A' nu = 0, an active lower
    bound carries nu <= 0 and an active upper bound nu >= 0.
    """
    design = point.design
    n = design.times.size
    m_base = design.eq_matrix.shape[0]
    tol = KKT_TOLERANCE / 10.0
    # Working set by knot: -1 lower bound, +1 upper bound, 0 free; a
    # multiplier nu has the right sign when side * nu >= 0.  new holds the
    # bound multipliers of the last optimum by knot, and nu, from the
    # first addition on, those of the current point on the dual path.
    side = np.zeros(n, dtype=np.int8)
    new = np.zeros(n)
    working = (design.eq_matrix, _NO_KNOTS, _NO_BOUNDS)
    # The most additions measured are 3.0n over 3400 property-test draws
    # and 7.4n at v0 = 1000 in a 0.1 m box; only a rounding loop gets
    # further.
    limit = 10 * n
    additions = 0
    solves = 1
    while True:
        # (a, mult) is the optimum of the working set side, y its altitude
        # and violation how far y leaves the box off the working set.
        knot = int(np.argmax(violation))
        if violation[knot] <= tol:
            return a, mult, side, solves, working
        additions += 1
        if additions > limit:
            raise PlannerNumericalError(
                f"active-set loop exceeded {limit} bound additions"
            )
        side[knot] = -1 if y[knot] < design.lower else 1
        nu = new
        while True:
            rows, rhs, knots, bounds = design.working_rows(side)
            a, mult = _solve_working_set(point, free_optimum, rows, rhs)
            solves += 1
            new = np.zeros(n)
            new[knots] = mult[m_base:]
            wrong = np.flatnonzero(side * new < -tol)
            if not wrong.size:
                break
            # Partial step: on the line nu + t (new - nu) the first
            # wrong-signed multiplier reaches zero at t = nu / (nu - new).
            steps = nu[wrong] / (nu[wrong] - new[wrong])
            drop = wrong[np.argmin(steps)]
            nu += max(float(np.min(steps)), 0.0) * (new - nu)
            side[drop] = 0
            nu[drop] = 0.0
        working = (rows, knots, bounds)
        y, violation = _box_violations(design, a, side)


def _trapezoid_chain(start: float, rates: np.ndarray, dt: float) -> np.ndarray:
    """x_0 = start, x_k = x_{k-1} + dt/2 (rate_k + rate_{k-1}), along
    each lane of a stack of rates."""
    chain = _stack(*rates.shape)
    chain[:, 0] = start
    np.multiply(0.5 * dt, rates[:, 1:] + rates[:, :-1], out=chain[:, 1:])
    return np.cumsum(chain, axis=1, out=chain)


def _trapezoids(times: np.ndarray, values: np.ndarray) -> list[float]:
    """The trapezoid integral of each lane of a stack of samples, as
    _trapezoid integrates one: a dot with the weights first."""
    weights = trapezoid_weights(times.size)
    return (np.matmul(weights, values[:, :, None])[:, 0] * _spacing(times)).tolist()


def _kkt_residual(lanes: _Lanes, a, y, mults, side, working) -> list[dict[str, float]]:
    """Max-norm KKT residual terms of each lane's a and altitude profile
    y, from the stacks a, y and side and the lists mults and working,
    each lane's (rows, knots, bounds) of _Design.working_rows(side).

    Stationarity of the lane's QP, with the rows and multipliers of its
    working set side, primal feasibility of the equality rows and of the
    working set (the gap of its knots from their bound) with the box
    violation at every interior knot, and the multiplier sign and
    complementarity on the working set, keyed by those names.  Inactive
    bounds carry no multiplier by construction.
    """
    design = lanes.design
    m_base = design.eq_matrix.shape[0]
    residual = _stack(*a.shape)
    # (|gap|, multiplier sign, complementarity) of each lane's working set.
    bound_terms = np.zeros((len(a), 3))
    for b, hessian in enumerate(lanes.hessians()):
        rows, knots, bounds = working[b]
        residual[b] = hessian @ a[b] + lanes.gradient[b] + rows.T @ mults[b]
        if knots.size:
            bound_mult = mults[b][m_base:]
            gap = y[b, knots] - bounds
            bound_terms[b] = (
                np.max(np.abs(gap)),
                np.max(-side[b, knots] * bound_mult, initial=0.0),
                np.max(np.abs(gap * bound_mult)),
            )
    stationarity = np.max(np.abs(residual), axis=1)
    equality = _matmul(design.eq_matrix, a[:, :, None])[:, :, 0] - design.eq_rhs
    interior = y[:, 1:-1]
    # The largest of the equality residual, the working set's gap and the
    # interior knots' box violation, which counts only where positive
    # since the other two are never negative.
    primal = np.maximum(np.max(np.abs(equality), axis=1), bound_terms[:, 0])
    violation = np.maximum(design.lower - interior, interior - design.upper)
    primal = np.maximum(primal, np.max(violation, axis=1)).tolist()
    return [
        {
            "stationarity": stationarity[b],
            "primal": primal[b],
            "multiplier sign": sign,
            "complementarity": complementarity,
        }
        for b, (_, sign, complementarity) in enumerate(bound_terms.tolist())
    ]


def _plan_stack(lanes: _Lanes, template: PlanProblem) -> list:
    """solve's outcome at each lane: the equality-row optimum of every
    lane in one stacked solve, the active-set loop for the lanes it
    leaves outside the box, then the certificate and the trajectory of
    every lane as stacks.  Raises the PlannerNumericalError of a failed
    stacked solve."""
    design = lanes.design
    count = len(lanes.mu)
    free_optimum = lanes.inverse_vectors(lanes.gradient)
    np.negative(free_optimum, out=free_optimum)
    rows = design.eq_matrix
    a, mult, finite = _solve_working_sets(lanes, free_optimum, rows, design.eq_rhs)
    errors = [
        error or (None if ok else _non_finite_error(design, rows))
        for error, ok in zip(lanes.errors, finite.tolist())
    ]
    if not finite.all():
        # A failed lane's outcome is decided; keep the stacks finite.
        a[~finite] = mult[~finite] = 0.0
    side = np.zeros(a.shape, dtype=np.int8)
    mults = list(mult)
    solves = [1] * count
    working = [(rows, _NO_KNOTS, _NO_BOUNDS)] * count
    y, violation = _box_violations(design, a)
    for b in np.flatnonzero(violation.max(axis=1) > KKT_TOLERANCE / 10.0).tolist():
        if errors[b] is not None:
            continue
        try:
            a[b], mults[b], side[b], solves[b], working[b] = _solve_box_qp(
                lanes.lane(b), free_optimum[b], a[b], mult[b], y[b], violation[b]
            )
        except PlannerNumericalError as exc:
            errors[b] = exc
            a[b] = 0.0

    times = design.times
    dt = _spacing(times)
    v = _trapezoid_chain(template.v0, a, dt)
    y = _trapezoid_chain(template.y0, v, dt)
    terms = _kkt_residual(lanes, a, y, mults, side, working)
    residuals = []
    for b, lane_terms in enumerate(terms):
        worst = max(lane_terms, key=lane_terms.get)
        residuals.append(lane_terms[worst])
        if errors[b] is None and residuals[b] >= KKT_TOLERANCE:
            errors[b] = PlannerNumericalError(
                f"optimality residual {residuals[b]:.3e} exceeds {KKT_TOLERANCE:.0e} "
                f"({worst})"
            )
    # The lanes decided so far go on as zeros, so that no value of theirs
    # raises a numpy warning a point alone would not.
    for b, error in enumerate(errors):
        if error is not None:
            a[b] = v[b] = 0.0
    # Pin working-set knots exactly; the recursion leaves them within
    # rounding of their bound.
    if side.any():
        y[side < 0] = design.lower
        y[side > 0] = design.upper
    predicted = apply_lag(design.lag, v)
    params = template.params
    # Finite constants can still overflow the thrust (a mass of 1e307 does).
    with np.errstate(over="ignore"):
        thrust = params.mass * (a + params.gravity)
    finite = np.isfinite(thrust).all(axis=1)
    if not finite.all():
        for b in np.flatnonzero(~finite).tolist():
            errors[b] = PlannerNumericalError("planned thrust M (a + g) overflows")
            a[b] = predicted[b] = 0.0
    squares = _stack(2 * count, a.shape[1])
    np.square(a, out=squares[:count])
    np.square(predicted, out=squares[count:])
    integrals = _trapezoids(times, squares)
    return [
        errors[b] or PlannedTrajectory(
            times=times,
            y=y[b],
            v=v[b],
            a=a[b],
            u=thrust[b],
            predicted_error=predicted[b],
            designed_cost=integrals[b],
            predicted_error_integral=integrals[count + b],
            mu=mu,
            kkt_residual=residuals[b],
            active_set_iterations=solves[b],
        )
        for b, mu in enumerate(lanes.mu)
    ]


def _plan_lanes(design: _Design, template: PlanProblem, mu: list) -> list:
    """solve's outcome at each weight of mu, all zero or all positive, on
    the template's design, planned as the lanes of one stack."""
    try:
        lanes = _Lanes.at(design, mu)
    except PlannerNumericalError as exc:
        return [exc] * len(mu)
    if all(lanes.errors):
        return lanes.errors
    try:
        return _plan_stack(lanes, template)
    except PlannerNumericalError as exc:
        # numpy failed the stacked solve for one lane or more; plan each
        # lane alone to find which.
        if len(mu) == 1:
            return [exc]
        return [_plan_lanes(design, template, [w])[0] for w in mu]


def _weight_error(template: PlanProblem, mu) -> ValueError | None:
    """The ValueError replace(template, mu=mu) raises, or None.  Every
    field but mu passed its checks when template was built."""
    if math.isfinite(mu) and mu >= 0:
        return None
    try:
        replace(template, mu=mu)
    except ValueError as exc:
        return exc
    return None


def solve_weights(template: PlanProblem, weights) -> list:
    """solve at each weight of a grid: for each w of weights, the
    PlannedTrajectory solve(replace(template, mu=w)) returns or the
    exception it raises, the invalid weight's ValueError included, bit
    for bit.

    Every weight shares the template's design.  The zero weights and the
    positive weights are each planned as the lanes of one stack, and
    only the lanes whose equality-row optimum leaves the box go on
    through the active-set loop one at a time.
    """
    weights = list(weights)
    outcomes = [_weight_error(template, mu) for mu in weights]
    zero, positive = [], []  # the indices of the valid weights
    for index, (mu, error) in enumerate(zip(weights, outcomes)):
        if error is None:
            (positive if mu > 0 else zero).append(index)
    if not (zero or positive):
        return outcomes
    lo, hi = template.y_bounds
    try:
        if not (lo <= template.y0 <= hi and lo <= template.yf <= hi):
            raise InfeasibleProblemError(
                f"boundary altitudes y0={template.y0}, yf={template.yf} "
                f"must lie within the bounds [{lo}, {hi}]"
            )
        design = _design(template)
    except (InfeasibleProblemError, PlannerNumericalError) as exc:
        for index in zero + positive:
            outcomes[index] = exc
        return outcomes
    for indices in (zero, positive):
        if indices:
            planned = _plan_lanes(design, template, [weights[i] for i in indices])
            for index, outcome in zip(indices, planned):
                outcomes[index] = outcome
    return outcomes


def solve(problem: PlanProblem) -> PlannedTrajectory:
    """Solve a design problem to global optimality.

    The condensed QP is strictly convex with affine constraints, so the
    KKT point found here is the global optimum; the residual certificate
    is attached to the returned trajectory.  solve_weights of one weight.
    """
    (outcome,) = solve_weights(problem, [problem.mu])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
