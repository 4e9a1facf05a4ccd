"""Planner tests: condensation, analytic optimum, certificates, CSV schema.

The mu = 0 problem has a closed-form optimum: with free terminal
velocity the minimum-acceleration trajectory from (0, 0) to altitude 5
in unit time is y(t) = 7.5 t^2 - 2.5 t^3 with cost exactly 75.  That
cubic is the oracle for the solver tests here.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_reference
from plantrack import collocation_planner
from plantrack.cli import RunConfig
from plantrack.collocation_planner import (
    KKT_TOLERANCE,
    TRAJECTORY_COLUMNS,
    InfeasibleProblemError,
    PlanProblem,
    PlannerNumericalError,
    TrajectorySchemaError,
    condense,
    read_trajectory_csv,
    solve,
    write_trajectory_csv,
)
from plantrack.error_estimator import (
    VelocityProfile,
    error_integral_form,
    lag_response_matrix,
    trapezoid_quadrature,
    trapezoid_weights,
)


def analytic_cubic(times):
    y = 7.5 * times**2 - 2.5 * times**3
    v = 15.0 * times - 7.5 * times**2
    a = 15.0 - 15.0 * times
    return y, v, a


class TestProblemValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"segments": 1},
            {"horizon": 0.0},
            {"horizon": -1.0},
            {"mu": -1.0},
            {"dominant_lambda": 0.0},
            {"dominant_lambda": -20.0},
            {"y_bounds": (5.0, 5.0)},
            {"y_bounds": (6.0, 1.0)},
            # Non-finite design inputs.
            {"horizon": float("inf")},
            {"y0": float("nan")},
            {"v0": float("inf")},
            {"yf": float("nan")},
            {"y_bounds": (0.0, float("inf"))},
            {"y_bounds": (float("-inf"), 5.0)},
            {"mu": float("nan")},
            {"mu": float("inf")},
            {"dominant_lambda": float("inf")},
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PlanProblem(**kwargs)

    def test_defaults_are_the_standard_problem(self):
        problem = PlanProblem()
        assert problem.segments == 60
        assert problem.horizon == 1.0
        assert (problem.y0, problem.v0, problem.yf) == (0.0, 0.0, 5.0)
        assert problem.y_bounds == (0.0, 5.0)
        assert problem.mu == 0.0


class TestTranscription:
    """The condensed QP in the accelerations a alone."""

    def test_dimensions(self):
        qp = condense(PlanProblem())
        n = 61
        assert qp.times.shape == (n,)
        assert qp.hessian.shape == (n, n)
        assert qp.gradient.shape == (n,)
        assert qp.y_map.shape == (n, n)
        assert qp.y_offset.shape == (n,)
        # The yf row is the only equality row left.
        assert qp.eq_matrix.shape == (1, n)
        assert qp.eq_rhs.shape == (1,)
        assert (qp.lower, qp.upper) == (0.0, 5.0)

    def test_boundary_rows_carry_the_problem_data(self):
        qp = condense(PlanProblem(y0=0.5, v0=-2.0, yf=4.0))
        assert np.array_equal(qp.y_offset, 0.5 - 2.0 * qp.times)
        assert np.array_equal(qp.eq_matrix[0], qp.y_map[-1])
        assert qp.eq_rhs[0] == 4.0 - (0.5 - 2.0 * 1.0)

    def test_initial_accel_row_is_optional(self):
        qp = condense(PlanProblem(enforce_initial_accel_zero=True))
        assert qp.eq_matrix.shape == (2, 61)
        row = qp.eq_matrix[1]
        assert row[0] == 1.0
        assert np.count_nonzero(row) == 1
        assert qp.eq_rhs[1] == 0.0

    def test_zero_weight_drops_velocity_block(self):
        qp = condense(PlanProblem(mu=0.0, v0=3.0))
        dt = 1.0 / 60
        expected = 2.0 * dt * np.ones(61)
        expected[0] = expected[-1] = dt
        assert np.array_equal(qp.hessian, np.diag(qp.hessian.diagonal()))
        assert np.allclose(qp.hessian.diagonal(), expected, rtol=0, atol=1e-15)
        assert not qp.gradient.any()
        assert qp.constant == 0.0

    def test_weighted_velocity_block_is_psd(self):
        # Positive definite, in fact: the acceleration weights stay on the
        # diagonal.
        qp = condense(PlanProblem(mu=100.0))
        assert np.allclose(qp.hessian, qp.hessian.T, atol=1e-12)
        assert np.linalg.eigvalsh(qp.hessian).min() > 0.0

    def test_altitude_map_is_the_trapezoid_chain(self):
        problem = PlanProblem(y0=1.0, v0=-4.0, segments=40)
        qp = condense(problem)
        dt = problem.horizon / problem.segments
        a = np.random.default_rng(7).uniform(-50.0, 50.0, 41)
        v = np.empty(41)
        y = np.empty(41)
        v[0], y[0] = problem.v0, problem.y0
        for k in range(1, 41):
            v[k] = v[k - 1] + 0.5 * dt * (a[k] + a[k - 1])
            y[k] = y[k - 1] + 0.5 * dt * (v[k] + v[k - 1])
        assert np.allclose(qp.y_offset + qp.y_map @ a, y, rtol=0, atol=1e-12)
        assert not np.triu(qp.y_map, 1).any()

    @pytest.mark.parametrize("kwargs", [{"yf": 6.0}, {"y0": -0.5}])
    def test_boundary_outside_box_is_infeasible(self, kwargs):
        with pytest.raises(InfeasibleProblemError):
            condense(PlanProblem(**kwargs))
        with pytest.raises(InfeasibleProblemError):
            solve(PlanProblem(**kwargs))


class TestAnalyticOptimum:
    def test_refined_grid_matches_cubic(self):
        traj = solve(PlanProblem(segments=1500))
        y_exact, _, _ = analytic_cubic(traj.times)
        assert np.max(np.abs(traj.y - y_exact)) < 1e-6
        assert abs(traj.designed_cost - 75.0) < 1e-3
        assert traj.kkt_residual < 1e-8

    def test_default_grid_is_second_order_close(self):
        traj = solve(PlanProblem())
        y_exact, v_exact, _ = analytic_cubic(traj.times)
        assert np.max(np.abs(traj.y - y_exact)) < 1e-3
        assert np.max(np.abs(traj.v - v_exact)) < 5e-3
        assert abs(traj.designed_cost - 75.0) < 0.05

    def test_boundary_data_is_met(self):
        traj = solve(PlanProblem())
        assert abs(traj.y[0]) < 1e-10
        assert abs(traj.v[0]) < 1e-10
        assert abs(traj.y[-1] - 5.0) < 1e-10

    def test_trapezoid_defects_vanish(self):
        traj = solve(PlanProblem(mu=100.0))
        dt = traj.knot_spacing
        y_defect = traj.y[1:] - traj.y[:-1] - 0.5 * dt * (traj.v[1:] + traj.v[:-1])
        v_defect = traj.v[1:] - traj.v[:-1] - 0.5 * dt * (traj.a[1:] + traj.a[:-1])
        assert np.max(np.abs(y_defect)) < 1e-9
        assert np.max(np.abs(v_defect)) < 1e-9

    def test_interior_knots_stay_inside_the_box(self):
        # The monotone cubic touches the bounds only at the endpoints.
        traj = solve(PlanProblem())
        assert traj.y[1:-1].min() > 0.0
        assert traj.y[1:-1].max() < 5.0

    def test_initial_accel_pin_is_enforced_and_costs_more(self):
        free = solve(PlanProblem())
        pinned = solve(PlanProblem(enforce_initial_accel_zero=True))
        assert abs(pinned.a[0]) < 1e-10
        # The continuum optimum has a(0) = 15; N=60 lands within O(dt).
        assert abs(free.a[0] - 15.0) < 0.2
        assert pinned.designed_cost > free.designed_cost

    def test_thrust_column_realizes_the_acceleration(self):
        traj = solve(PlanProblem())
        params = PlanProblem().params
        assert np.array_equal(traj.u, params.mass * (traj.a + params.gravity))

    def test_grid_properties(self):
        traj = solve(PlanProblem(horizon=2.0, segments=80, yf=4.0, y_bounds=(0.0, 4.0)))
        assert traj.horizon == pytest.approx(2.0, abs=1e-15)
        assert traj.knot_spacing == pytest.approx(2.0 / 80, abs=1e-15)


class TestBoundEngagement:
    def test_upper_bound_clamps_the_overshoot(self):
        shoot = dict(y0=0.0, v0=30.0, yf=0.0, segments=120)
        relaxed = solve(PlanProblem(y_bounds=(-100.0, 100.0), **shoot))
        assert relaxed.y.max() > 5.0  # the bound is genuinely binding
        clamped = solve(PlanProblem(y_bounds=(0.0, 5.0), **shoot))
        assert clamped.y.max() <= 5.0 + 1e-9
        assert np.min(np.abs(clamped.y - 5.0)) < 1e-8
        assert clamped.kkt_residual < 1e-8
        assert clamped.designed_cost >= relaxed.designed_cost - 1e-9

    def test_lower_bound_clamps_the_dip(self):
        dip = dict(y0=2.5, v0=-30.0, yf=2.5, segments=120)
        relaxed = solve(PlanProblem(y_bounds=(-100.0, 100.0), **dip))
        assert relaxed.y.min() < 0.0
        clamped = solve(PlanProblem(y_bounds=(0.0, 5.0), **dip))
        assert clamped.y.min() >= -1e-9
        assert np.min(np.abs(clamped.y)) < 1e-8
        assert clamped.kkt_residual < 1e-8
        assert clamped.designed_cost >= relaxed.designed_cost - 1e-9


class TestOptimalityCertificate:
    @pytest.mark.parametrize(
        "mu,lam",
        [
            (0.0, 20.0),
            (1.0, 20.0),
            (1e3, 20.0),
            (1e6, 20.0),
            (1e3, 10.0),
            (1e3, 50.0),
            (1e6, 50.0),
        ],
    )
    def test_residual_certificate_across_weights(self, mu, lam):
        traj = solve(PlanProblem(mu=mu, dominant_lambda=lam))
        assert traj.kkt_residual is not None
        assert traj.kkt_residual < 1e-8

    def test_residual_certificate_with_active_bounds(self):
        traj = solve(PlanProblem(y0=0.0, v0=30.0, yf=0.0, mu=1e3))
        assert traj.kkt_residual < 1e-8


def test_weighted_sum_scalarization_is_monotone():
    ladder = [0.0, 1.0, 100.0, 1e4, 1e6]
    trajs = [solve(PlanProblem(mu=mu)) for mu in ladder]
    for lighter, heavier in zip(trajs, trajs[1:]):
        assert heavier.designed_cost >= lighter.designed_cost - 1e-9
        assert (
            heavier.predicted_error_integral
            <= lighter.predicted_error_integral + 1e-9
        )


@pytest.mark.parametrize("mu", [0.0, 100.0])
def test_grid_refinement_is_second_order(mu):
    costs = {
        n: solve(PlanProblem(segments=n, mu=mu)).designed_cost
        for n in (60, 120, 240)
    }
    assert abs(costs[60] - costs[120]) < 4.0 * abs(costs[120] - costs[240]) + 1e-9


@pytest.mark.parametrize("mu", [0.0, 100.0, 1e4])
def test_objective_consistency_with_the_estimator(mu):
    # v0 != 0 so the linear term and the constant carry weight too.
    problem = PlanProblem(mu=mu, v0=2.0)
    qp = condense(problem)
    traj = solve(problem)
    a = traj.a
    solver_objective = 0.5 * a @ (qp.hessian @ a) + qp.gradient @ a + qp.constant

    error = error_integral_form(
        VelocityProfile(traj.times, traj.v), problem.dominant_lambda
    )
    recomputed = trapezoid_quadrature(traj.times, a**2) + mu * trapezoid_quadrature(
        traj.times, error**2
    )
    assert recomputed == pytest.approx(solver_objective, rel=1e-9)
    reported = traj.designed_cost + mu * traj.predicted_error_integral
    assert reported == pytest.approx(solver_objective, rel=1e-9)


def full_space_optimum(problem, pinned_lower, pinned_upper):
    """Equality-constrained optimum in the full (y, v, a) variables.

    An independent check of the condensed solver: the trapezoid chains,
    the boundary data and the pinned knots are all rows of one dense
    KKT system, as the uncondensed transcription writes them.  Returns
    the knot arrays and the multipliers of the pinned lower and upper
    rows (stationarity H z + A' nu = 0).
    """
    n = problem.segments + 1
    dt = problem.horizon / problem.segments
    times = np.linspace(0.0, problem.horizon, n)
    quad = trapezoid_weights(n) * dt
    hessian = np.zeros((3 * n, 3 * n))
    hessian[2 * n :, 2 * n :] = np.diag(2.0 * quad)
    if problem.mu > 0:
        L = lag_response_matrix(times, problem.dominant_lambda)
        hessian[n : 2 * n, n : 2 * n] = 2.0 * problem.mu * (L.T * quad) @ L

    rows, rhs = [], []

    def row(entries, value):
        r = np.zeros(3 * n)
        for column, coefficient in entries:
            r[column] += coefficient
        rows.append(r)
        rhs.append(value)

    for base in (0, n):  # y from v, then v from a
        for k in range(1, n):
            row([(base + k, 1.0), (base + k - 1, -1.0),
                 (base + n + k, -0.5 * dt), (base + n + k - 1, -0.5 * dt)], 0.0)
    row([(0, 1.0)], problem.y0)
    row([(n, 1.0)], problem.v0)
    row([(n - 1, 1.0)], problem.yf)
    if problem.enforce_initial_accel_zero:
        row([(2 * n, 1.0)], 0.0)
    lo, hi = problem.y_bounds
    for knot in pinned_lower:
        row([(knot, 1.0)], lo)
    for knot in pinned_upper:
        row([(knot, 1.0)], hi)

    A = np.array(rows)
    m = A.shape[0]
    kkt = np.block([[hessian, A.T], [A, np.zeros((m, m))]])
    sol = np.linalg.solve(kkt, np.concatenate([np.zeros(3 * n), rhs]))
    y, v, a = sol[:n], sol[n : 2 * n], sol[2 * n : 3 * n]
    bound_mult = sol[3 * n + m - len(pinned_lower) - len(pinned_upper) :]
    return times, y, v, a, bound_mult[: len(pinned_lower)], bound_mult[len(pinned_lower) :]


_DEFAULT_TEMPLATE = PlanProblem()
_BOUNDED_TEMPLATE = PlanProblem(segments=120, y0=0.0, v0=30.0, yf=0.0)


@pytest.mark.parametrize(
    "template,lam",
    [(_DEFAULT_TEMPLATE, lam) for lam in (10.0, 20.0, 30.0, 50.0)]
    + [(_BOUNDED_TEMPLATE, lam) for lam in (10.0, 20.0)],
    ids=["default-10", "default-20", "default-30", "default-50", "bounded-10", "bounded-20"],
)
def test_condensed_solver_matches_the_full_space_kkt(template, lam):
    lo, hi = template.y_bounds
    pinned = 0
    for mu in RunConfig().mu_grid():
        problem = dataclasses.replace(template, mu=mu, dominant_lambda=lam)
        traj = solve(problem)
        interior = np.arange(1, traj.y.size - 1)
        lower = interior[traj.y[1:-1] == lo]
        upper = interior[traj.y[1:-1] == hi]
        pinned += lower.size + upper.size
        times, y, v, a, lo_mult, hi_mult = full_space_optimum(problem, lower, upper)

        # The pinned set is the optimal active set: the remaining knots are
        # inside the box and every pinned row pushes the right way.
        assert y.min() >= lo - 1e-9 and y.max() <= hi + 1e-9
        assert np.all(lo_mult <= KKT_TOLERANCE)
        assert np.all(hi_mult >= -KKT_TOLERANCE)

        assert np.max(np.abs(traj.a - a)) <= 1e-10 * np.max(np.abs(a))
        cost = trapezoid_quadrature(times, a**2)
        assert traj.designed_cost == pytest.approx(cost, rel=1e-10, abs=0)
        error = error_integral_form(VelocityProfile(times, v), lam)
        predicted = trapezoid_quadrature(times, error**2)
        assert traj.predicted_error_integral == pytest.approx(predicted, rel=1e-10, abs=0)
    # The bounded toss really exercises the active set; the default climb
    # never touches the box.
    assert (pinned > 0) == (template is _BOUNDED_TEMPLATE)


# Largest column error of the spectral apply against a dense solve over
# the default and bounded designs below: 7.4e-13 relative (3.2e-13 on
# the bounded toss); a dense inverse measured 4.0e-13 and 1.4e-13.
SPECTRAL_APPLY_RTOL = 1e-11


@pytest.mark.parametrize(
    "template", [_DEFAULT_TEMPLATE, _BOUNDED_TEMPLATE], ids=["default", "bounded"]
)
@pytest.mark.parametrize("lam", [10.0, 20.0, 30.0, 50.0])
def test_spectral_apply_matches_a_dense_solve(template, lam):
    problem = dataclasses.replace(template, dominant_lambda=lam)
    design = collocation_planner._design(problem)
    for mu in RunConfig().mu_grid()[1:]:
        qp = condense(dataclasses.replace(problem, mu=mu))
        # The columns a working-set solve applies Q^-1 to: the equality
        # rows and box rows along the grid.
        columns = np.column_stack([qp.eq_matrix.T, qp.y_map[1:-1:7].T])
        apply_inverse = collocation_planner._inverse_hessian(qp, mu, design)
        expected = np.linalg.solve(qp.hessian, columns)
        error = np.max(np.abs(apply_inverse(columns) - expected), axis=0)
        assert np.all(error <= SPECTRAL_APPLY_RTOL * np.max(np.abs(expected), axis=0)), mu
    vectors, spectrum = design.spectral
    assert spectrum.min() >= 0.0
    for array in (vectors, spectrum):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_one_eigendecomposition_per_controller_sweep(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return eigh(matrix, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("Q^-1 must not be formed")

    monkeypatch.setattr(np.linalg, "eigh", counting)
    monkeypatch.setattr(np.linalg, "inv", forbidden)
    _clear_design_caches()
    grid = RunConfig().mu_grid()
    solve(dataclasses.replace(_BOUNDED_TEMPLATE, mu=0.0))
    assert calls == []
    total = sum(
        solve(dataclasses.replace(_BOUNDED_TEMPLATE, mu=mu)).active_set_iterations
        for mu in grid
    )
    assert total > len(grid)  # several working sets per point share it
    assert calls == [(121, 121)]
    # Another box and start on the same grid and lambda is another
    # design, with a factor of its own.
    solve(PlanProblem(segments=120, v0=-3.0, y_bounds=(-1.0, 5.0), mu=10.0))
    assert calls == [(121, 121)] * 2


def test_failed_factorization_is_a_planner_error(monkeypatch):
    def failing(matrix, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    _clear_design_caches()
    with pytest.raises(PlannerNumericalError, match="did not converge"):
        solve(PlanProblem(mu=1.0))
    _clear_design_caches()


def test_active_set_iterations_follow_the_working_set_path():
    # One working-set solve per default point (the equality optimum is
    # inside the box); the bounded toss takes 171 over its 62 points.
    # Any change to the solve that alters the working-set path moves
    # these counts.
    grid = RunConfig().mu_grid()
    for lam in (10.0, 20.0, 30.0, 50.0):
        for mu in grid:
            problem = dataclasses.replace(_DEFAULT_TEMPLATE, mu=mu, dominant_lambda=lam)
            assert solve(problem).active_set_iterations == 1
    total = sum(
        solve(
            dataclasses.replace(_BOUNDED_TEMPLATE, mu=mu, dominant_lambda=lam)
        ).active_set_iterations
        for lam in (10.0, 20.0)
        for mu in grid
    )
    assert total == 171


def _clear_design_caches():
    collocation_planner._clear_caches()


def _trajectory_bytes(traj):
    """Every array of a trajectory as bytes, and every scalar as is."""
    return (
        traj.times.tobytes(),
        traj.y.tobytes(),
        traj.v.tobytes(),
        traj.a.tobytes(),
        traj.u.tobytes(),
        traj.predicted_error.tobytes(),
        traj.designed_cost,
        traj.predicted_error_integral,
        traj.mu,
        traj.kkt_residual,
        traj.active_set_iterations,
    )


def lag_matrix_from_scratch(times, lam):
    n = times.size
    dt = (times[-1] - times[0]) / (n - 1)
    gaps = times[:, None] - times[None, :]
    L = np.tril(np.exp(-lam * np.where(gaps >= 0.0, gaps, 0.0)))
    L[:, 0] *= 0.5
    L[np.arange(n), np.arange(n)] *= 0.5
    L *= dt
    L[0, :] = 0.0
    return L


def chain_matrix_from_scratch(n, dt):
    """Lower-triangular C with v - v0 = C a for the trapezoid chain."""
    C = np.tri(n)
    C *= dt
    C[:, 0] *= 0.5
    C[np.arange(n), np.arange(n)] *= 0.5
    C[0, :] = 0.0
    return C


def condense_from_scratch(problem):
    """The condensed QP built from the formulas with no shared state.

    The same operations in the same order as the planner, so the result
    must match bit for bit.
    """
    n = problem.segments + 1
    dt = problem.horizon / problem.segments
    times = np.linspace(0.0, problem.horizon, n)
    quad = trapezoid_weights(n) * dt
    C = chain_matrix_from_scratch(n, dt)
    y_map = np.zeros((n, n))
    np.add(C[1:], C[:-1], out=y_map[1:])
    y_map *= 0.5 * dt
    np.cumsum(y_map, axis=0, out=y_map)
    hessian = np.diag(2.0 * quad)
    gradient = np.zeros(n)
    constant = 0.0
    if problem.mu > 0:
        L = lag_matrix_from_scratch(times, problem.dominant_lambda)
        LC = L @ C
        e_free = problem.v0 * L.sum(axis=1)
        weighted = LC.T * quad
        hessian += 2.0 * problem.mu * (weighted @ LC)
        gradient = 2.0 * problem.mu * (weighted @ e_free)
        constant = problem.mu * float(np.dot(quad, e_free**2))
    y_offset = problem.y0 + problem.v0 * times
    rows = [y_map[n - 1]]
    rhs = [problem.yf - y_offset[n - 1]]
    if problem.enforce_initial_accel_zero:
        rows.append(np.eye(1, n)[0])
        rhs.append(0.0)
    return dict(
        times=times,
        hessian=hessian,
        gradient=gradient,
        constant=constant,
        eq_matrix=np.array(rows),
        eq_rhs=np.array(rhs),
        y_map=y_map,
        y_offset=y_offset,
        lower=problem.y_bounds[0],
        upper=problem.y_bounds[1],
    )


class TestDesignCache:
    """The mu-independent design is shared across points, never changed."""

    PROBLEMS = [
        dataclasses.replace(template, mu=mu, dominant_lambda=lam)
        for template in (
            _DEFAULT_TEMPLATE,
            _BOUNDED_TEMPLATE,
            PlanProblem(v0=2.0, enforce_initial_accel_zero=True),
        )
        for lam in (10.0, 20.0)
        for mu in (0.0, 1.0, 1e3, 1e6)
    ]

    def test_cold_warm_and_interleaved_solves_are_byte_equal(self):
        _clear_design_caches()
        cold = []
        for problem in self.PROBLEMS:
            _clear_design_caches()
            cold.append(_trajectory_bytes(solve(problem)))
        # Warm: each problem's design was built by its predecessor with
        # the same template and lambda.
        _clear_design_caches()
        warm = [_trajectory_bytes(solve(problem)) for problem in self.PROBLEMS]
        # Interleaved point by point across pairs, as a latency probe
        # orders them; more designs than the cache holds.
        _clear_design_caches()
        order = sorted(
            range(len(self.PROBLEMS)), key=lambda i: (self.PROBLEMS[i].mu, i)
        )
        interleaved = {i: _trajectory_bytes(solve(self.PROBLEMS[i])) for i in order}
        assert warm == cold
        assert [interleaved[i] for i in range(len(self.PROBLEMS))] == cold

    def test_cached_arrays_reject_writes(self):
        problem = PlanProblem(mu=100.0, enforce_initial_accel_zero=True)
        qp = condense(problem)
        traj = solve(problem)
        design = collocation_planner._design(problem)
        shared = [
            qp.times,
            qp.eq_matrix,
            qp.eq_rhs,
            qp.y_map,
            qp.y_offset,
            traj.times,
            design.grid.quad,
            design.grid.chain,
            design.lag,
            *design.weighted[:2],
            *design.spectral,
        ]
        for array in shared:
            with pytest.raises(ValueError):
                array[0] = 1.0
        # The per-point parts stay the caller's own.
        qp.hessian[0, 0] = qp.gradient[0] = 1.0

    def test_lag_matrix_is_built_once_per_design(self, monkeypatch):
        built = []

        def counting(times, lam):
            built.append(lam)
            return lag_response_matrix(times, lam)

        monkeypatch.setattr(collocation_planner, "lag_response_matrix", counting)
        _clear_design_caches()
        problem = PlanProblem(v0=2.0, dominant_lambda=20.0)
        design = collocation_planner._design(problem)
        assert built == [0.0, 20.0]
        for mu in (0.0, 1.0, 1e3):
            point = dataclasses.replace(problem, mu=mu)
            traj = solve(point)
            assert collocation_planner._design(point) is design
            # The reported error is the estimator's, bit for bit.
            estimate = error_integral_form(VelocityProfile(traj.times, traj.v), 20.0)
            assert traj.predicted_error.tobytes() == estimate.tobytes()
        assert built == [0.0, 20.0]
        times = design.grid.times
        assert design.lag.tobytes() == lag_matrix_from_scratch(times, 20.0).tobytes()
        other = collocation_planner._design(
            dataclasses.replace(problem, dominant_lambda=30.0)
        )
        assert other is not design
        # Another lambda is another lag on the same grid and chain.
        assert built == [0.0, 20.0, 30.0]
        with pytest.raises(ValueError):
            lag_response_matrix(np.stack([times, times]), 20.0)

    def test_controllers_share_the_grid_arrays(self):
        _clear_design_caches()
        problems = [
            dataclasses.replace(_BOUNDED_TEMPLATE, mu=1.0, v0=v0, dominant_lambda=lam)
            for v0 in (30.0, -5.0)
            for lam in (10.0, 20.0)
        ]
        designs = [collocation_planner._design(problem) for problem in problems]
        grids = [design.grid for design in designs]
        for grid in grids[1:]:
            for name in ("times", "quad", "chain", "y_map"):
                assert getattr(grid, name) is getattr(grids[0], name), name
        # The lag, the error block and its factor follow lambda, not the
        # boundary data; the linear error term follows v0.
        assert designs[1].lag.tobytes() != designs[0].lag.tobytes()
        assert designs[2].weighted[0].tobytes() == designs[0].weighted[0].tobytes()
        assert designs[2].weighted[1].tobytes() != designs[0].weighted[1].tobytes()
        assert designs[2].spectral[0].tobytes() == designs[0].spectral[0].tobytes()
        for problem in problems:
            self.assert_condense_is_the_formula(problem)

    def test_lag_matrix_at_zero_lambda_is_the_chain(self):
        for n, horizon in ((61, 1.0), (121, 1.0), (7, 2.5)):
            times = np.linspace(0.0, horizon, n)
            dt = horizon / (n - 1)
            chain = chain_matrix_from_scratch(n, dt)
            assert lag_response_matrix(times, 0.0).tobytes() == chain.tobytes()
        with pytest.raises(ValueError):
            lag_response_matrix(times, -1.0)

    @staticmethod
    def assert_condense_is_the_formula(problem):
        qp = condense(problem)
        for name, value in condense_from_scratch(problem).items():
            assert np.asarray(getattr(qp, name)).tobytes() == np.asarray(value).tobytes(), name

    @pytest.mark.parametrize("problem", PROBLEMS[::3])
    def test_condense_equals_the_formula_bit_for_bit(self, problem):
        _clear_design_caches()
        self.assert_condense_is_the_formula(problem)  # cold
        self.assert_condense_is_the_formula(problem)  # from the cache

    def test_signed_zero_boundary_data_gets_its_own_design(self):
        # -0.0 == 0.0 as a dict key; the design must still carry the
        # problem's own bits.
        for sign in (1.0, -1.0, 1.0):
            zero = sign * 0.0
            self.assert_condense_is_the_formula(
                PlanProblem(y0=zero, v0=zero, y_bounds=(zero, 5.0))
            )

    def test_cache_stays_within_its_size_after_a_large_solve(self):
        for segments in (1500, 40, 41, 42, 43, 44, 45, 46, 47, 48):
            solve(PlanProblem(segments=segments, mu=1.0))
        info = collocation_planner._cached_design.cache_info()
        assert info.currsize <= info.maxsize
        _clear_design_caches()  # release the large design for later tests


@st.composite
def plan_problems(draw):
    """Design problems over a wide range of boundary data and scales.

    Placements outside [0, 1] put a boundary altitude outside the box.
    """
    lower = draw(st.floats(-10.0, 10.0))
    width = draw(st.floats(0.1, 20.0))
    return PlanProblem(
        segments=draw(st.integers(2, 200)),
        y0=lower + draw(st.floats(-0.1, 1.1)) * width,
        v0=draw(st.floats(-50.0, 50.0)),
        yf=lower + draw(st.floats(-0.1, 1.1)) * width,
        y_bounds=(lower, lower + width),
        mu=draw(st.floats(0.0, 1e6)),
        dominant_lambda=draw(st.floats(1.0, 100.0)),
        enforce_initial_accel_zero=draw(st.booleans()),
    )


def _is_complementarity_rejection(exc):
    """The named residual-gate class: the largest KKT term is |gap * nu|.

    The gap of a working-set knot is at rounding level, but with narrow
    boxes and large v0 its multiplier reaches 1e6 and more, so the
    absolute gate can reject an optimal working set.
    """
    return str(exc).endswith("(complementarity)")


@settings(max_examples=400, derandomize=True, deadline=None)
@given(problem=plan_problems())
def test_every_problem_is_certified_or_rejected(problem):
    try:
        traj = solve(problem)
    except InfeasibleProblemError:
        return
    except PlannerNumericalError as exc:
        if _is_complementarity_rejection(exc):
            return
        raise
    lower, upper = problem.y_bounds
    assert traj.kkt_residual < KKT_TOLERANCE
    assert traj.y.min() >= lower - 1e-9
    assert traj.y.max() <= upper + 1e-9


# 26 of the DRAWS draws below fall in the complementarity class; the
# bound leaves room for rounding differences between BLAS builds.
DRAWS = 1000
COMPLEMENTARITY_REJECTIONS = 30


def test_complementarity_rejections_are_counted_and_bounded():
    outcomes = []

    @settings(max_examples=DRAWS, derandomize=True, deadline=None, database=None)
    @given(problem=plan_problems())
    def record(problem):
        try:
            solve(problem)
            outcomes.append("certified")
        except InfeasibleProblemError:
            outcomes.append("infeasible")
        except PlannerNumericalError as exc:
            if not _is_complementarity_rejection(exc):
                raise
            outcomes.append("complementarity")

    record()
    assert len(outcomes) == DRAWS
    assert outcomes.count("complementarity") <= COMPLEMENTARITY_REJECTIONS


_NARROW = dict(
    segments=51,
    y0=7.441943433181036,
    v0=-6.8156043992856254,
    yf=7.431943433181036,
    y_bounds=(7.431943433181036, 7.531943433181036),
    enforce_initial_accel_zero=True,
)


@pytest.mark.parametrize(
    "problem",
    [
        PlanProblem(**_NARROW, mu=0.0),
        PlanProblem(**_NARROW, mu=9.5e5),
        PlanProblem(segments=14, y0=0.0, v0=17.0, yf=0.0, y_bounds=(0.0, 0.1)),
    ],
    ids=["narrow-mu0", "narrow-mu9.5e5", "v0-17"],
)
def test_large_v0_in_a_narrow_box_is_certified(problem):
    # A straight-line start for these has large alternating accelerations
    # that hit a bound at nearly every knot; the dual loop starts from the
    # equality optimum instead and adds bounds until none is violated.
    traj = solve(problem)
    lower, upper = problem.y_bounds
    assert traj.kkt_residual < KKT_TOLERANCE
    assert traj.y.min() >= lower - 1e-9
    assert traj.y.max() <= upper + 1e-9


def test_partial_dual_step_follows_the_multiplier_line():
    # Several drops in a row: each one is chosen on the line from the
    # multipliers of the previous partial step, not of the last full
    # optimum.  Choosing from stale multipliers takes 24 solves here.
    traj = solve(
        PlanProblem(
            segments=64,
            y0=0.0,
            v0=-47.5,
            yf=6.0,
            y_bounds=(0.0, 6.5),
            enforce_initial_accel_zero=True,
        )
    )
    assert traj.kkt_residual < KKT_TOLERANCE
    assert traj.active_set_iterations == 20


@pytest.mark.parametrize(
    "term", ["stationarity", "primal", "multiplier sign", "complementarity"]
)
def test_residual_gate_names_the_largest_term(monkeypatch, term):
    terms = dict.fromkeys(
        ["stationarity", "primal", "multiplier sign", "complementarity"], 1e-12
    )
    terms[term] = 2e-8
    monkeypatch.setattr(collocation_planner, "_kkt_residual", lambda *_: terms)
    with pytest.raises(PlannerNumericalError) as info:
        solve(PlanProblem())
    assert str(info.value) == f"optimality residual 2.000e-08 exceeds 1e-08 ({term})"


class TestDesignedCostOperation:
    def test_zero_acceleration_costs_nothing(self):
        times = np.linspace(0.0, 1.0, 61)
        traj = make_reference(times, times.copy(), np.ones(61), np.zeros(61))
        assert traj.designed_cost == 0.0

    @pytest.mark.parametrize(
        "problem",
        [
            PlanProblem(mu=100.0),
            dataclasses.replace(_BOUNDED_TEMPLATE, mu=1e3),
            PlanProblem(horizon=0.7, segments=37, yf=2.0, mu=10.0),
        ],
        ids=["default", "bounded", "short-horizon"],
    )
    def test_matches_the_solver_field(self, problem):
        # solve integrates on its own grid without re-validating it; the
        # scores keep the validating quadrature's bits.
        traj = solve(problem)
        for score, integrand in (
            (traj.designed_cost, traj.a**2),
            (traj.predicted_error_integral, traj.predicted_error**2),
        ):
            expected = trapezoid_quadrature(traj.times, integrand)
            assert np.float64(score).tobytes() == np.float64(expected).tobytes()


class TestTrajectoryCsv:
    def test_round_trip_is_exact(self, tmp_path):
        traj = solve(PlanProblem(mu=100.0))
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        # %.17g round-trips doubles exactly.
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.y, traj.y)
        assert np.array_equal(back.v, traj.v)
        assert np.array_equal(back.a, traj.a)
        assert np.array_equal(back.u, traj.u)
        assert np.array_equal(back.predicted_error, traj.predicted_error)
        assert back.mu is None
        assert back.kkt_residual is None
        assert back.designed_cost == pytest.approx(traj.designed_cost, rel=1e-12)
        assert back.predicted_error_integral == pytest.approx(
            traj.predicted_error_integral, rel=1e-12
        )

    def test_header_is_the_contract(self):
        assert TRAJECTORY_COLUMNS == ("t", "y", "v", "a", "u", "e_pred")

    def test_renamed_column_is_reported_by_name(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y,v,acc,u,e_pred\n0,0,0,0,0,0\n")
        with pytest.raises(
            TrajectorySchemaError, match=r"column 3: expected 'a', found 'acc'"
        ):
            read_trajectory_csv(path)

    def test_missing_column_is_reported(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("t,y,v,a,u\n0,0,0,0,0\n")
        with pytest.raises(
            TrajectorySchemaError, match=r"column 5: expected 'e_pred', found 'nothing'"
        ):
            read_trajectory_csv(path)

    def test_extra_column_is_reported(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("t,y,v,a,u,e_pred,junk\n0,0,0,0,0,0,0\n")
        with pytest.raises(TrajectorySchemaError, match=r"junk"):
            read_trajectory_csv(path)

    def test_wrong_row_width_is_reported(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("t,y,v,a,u,e_pred\n0,0,0,0,0,0,0\n0.5,1,2,3,4,5,6\n")
        with pytest.raises(TrajectorySchemaError, match=r"expected 6 columns, found 7"):
            read_trajectory_csv(path)

    def test_grid_not_starting_at_zero_is_reported(self, tmp_path):
        # The simulator's reference lookup counts knots from t = 0.
        traj = solve(PlanProblem(mu=100.0))
        shifted = dataclasses.replace(traj, times=traj.times + 0.5)
        path = tmp_path / "shifted.csv"
        write_trajectory_csv(shifted, path)
        with pytest.raises(
            TrajectorySchemaError, match=r"column 't': profile must start at t = 0"
        ):
            read_trajectory_csv(path)
