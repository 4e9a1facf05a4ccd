"""Tests of the frontier sweep, best compromise, spring fit and CSV schema."""

import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from conftest import constant_reference
from oracles import (
    VelocityProfile,
    error_integral_form,
    frontier_gap,
    trapezoid_quadrature,
)
from plantrack import frontier as frontier_module
from plantrack import tracking_sim
from plantrack._artifact_csv import SchemaError
from plantrack.collocation_planner import PlanProblem
from plantrack.frontier import (
    FRONTIER_COLUMNS,
    FrontierPoint,
    SpringFit,
    SweepError,
    best_compromise,
    evaluate_point,
    read_frontier_points,
    spring_constant,
    spring_fit_from_points,
    sweep,
    write_frontier_csv,
)
from plantrack.lqr import EigenvaluePair, design_controller
from plantrack.model import ModelParams
from plantrack.tracking_sim import SimulationDivergedError, select_step

# The sim step that select_step picks for the -200 pole on a 1 s horizon.
STEP = 1e-3


@pytest.fixture
def controller(params):
    return design_controller(
        EigenvaluePair(lambda_slow=-20.0, lambda_fast=-200.0), params
    )


def point(mu, actual, designed=100.0, trajectory_id=0):
    return FrontierPoint(
        mu=mu,
        designed_cost=designed,
        predicted_error_integral=1.0,
        actual_cost=actual,
        actual_error_integral=1.0,
        trajectory_id=trajectory_id,
    )


class TestFrontierPointValidation:
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "field",
        ["mu", "designed_cost", "predicted_error_integral",
         "actual_cost", "actual_error_integral"],
    )
    def test_bad_scalars_rejected(self, field, bad):
        kwargs = dict(
            mu=0.0, designed_cost=1.0, predicted_error_integral=1.0,
            actual_cost=1.0, actual_error_integral=1.0, trajectory_id=0,
        )
        kwargs[field] = bad
        with pytest.raises(ValueError):
            FrontierPoint(**kwargs)


class TestSweepGridValidation:
    def test_empty_grid(self, controller):
        with pytest.raises(ValueError):
            sweep(controller, [], PlanProblem(), STEP)

    def test_grid_must_ascend(self, controller):
        with pytest.raises(ValueError):
            sweep(controller, [0.0, 2.0, 1.0], PlanProblem(), STEP)


class TestSweep:
    def test_single_point_on_refined_grid(self, controller):
        points = sweep(controller, [0.0], PlanProblem(segments=1500), 5e-4)
        assert len(points) == 1
        pt = points[0]
        assert pt.mu == 0.0
        assert pt.trajectory_id == 0
        assert abs(pt.designed_cost - 75.0) < 1e-3
        # The head's predicted error equals the estimator applied to the
        # analytic cubic's velocity, up to the solve tolerance.
        t = np.linspace(0.0, 1.0, 1501)
        series = error_integral_form(
            VelocityProfile(t, 15.0 * t - 7.5 * t**2), 20.0
        )
        analytic = trapezoid_quadrature(t, series**2)
        assert abs(pt.predicted_error_integral - analytic) < 1e-6
        assert pt.actual_cost > 0.0
        assert pt.actual_error_integral > 0.0

    # A grid need not start at the mu = 0 head: the CLI's sweep runs each
    # share of its grid, and only share 0 holds the head.
    @pytest.mark.parametrize("grid", [[0.0, 1e3], [1e2, 1e3]], ids=["head", "headless"])
    def test_points_follow_the_grid(self, controller, grid):
        points = sweep(controller, grid, PlanProblem(), STEP)
        assert [p.mu for p in points] == grid
        assert [p.trajectory_id for p in points] == [0, 1]
        first, second = points
        assert second.designed_cost >= first.designed_cost - 1e-9
        assert second.predicted_error_integral <= first.predicted_error_integral + 1e-9

    def test_sweep_is_reproducible(self, controller):
        grid = [0.0, 1e3]
        again = [sweep(controller, grid, PlanProblem(), STEP) for _ in range(2)]
        assert again[0] == again[1]

    def test_failure_identifies_the_weight(self, controller):
        bad_template = PlanProblem(yf=6.0, y_bounds=(0.0, 5.5))
        with pytest.raises(SweepError) as err:
            sweep(controller, [0.0, 1.0], bad_template, STEP)
        assert err.value.mu == 0.0
        assert "mu = 0" in str(err.value)

    @pytest.mark.parametrize(
        "error",
        [SweepError(2.5, SimulationDivergedError(0.125)), SimulationDivergedError(0.125)],
        ids=["sweep", "diverged"],
    )
    def test_failure_survives_pickling(self, error):
        # A failure crosses a process boundary by pickle, whatever its cause:
        # a sweep's share workers send their SweepErrors through pipes.
        again = pickle.loads(pickle.dumps(error))
        assert type(again) is type(error)
        assert str(again) == str(error)
        assert vars(again) == vars(error)

    def test_unscorable_flight_is_a_sweep_error(self, controller, monkeypatch):
        # A plan whose flight overflows the squared scores (the planner's
        # absolute KKT tolerance rejects such magnitudes itself).
        monkeypatch.setattr(
            frontier_module, "solve", lambda problem: constant_reference(1e300, 1.0)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SweepError) as err:
                evaluate_point(controller, 5.0, PlanProblem(), STEP, 0)
        assert err.value.mu == 5.0
        assert isinstance(err.value.__cause__, SimulationDivergedError)

    def test_invalid_point_is_a_sweep_error(self, controller, monkeypatch):
        real = frontier_module.simulate
        monkeypatch.setattr(
            frontier_module,
            "simulate",
            lambda config: dataclasses.replace(real(config), actual_cost=math.inf),
        )
        with pytest.raises(SweepError) as err:
            evaluate_point(controller, 5.0, PlanProblem(), STEP, 0)
        assert err.value.mu == 5.0
        assert isinstance(err.value.__cause__, ValueError)

    def test_pairs_fail_at_their_smallest_failing_weight(self, params, monkeypatch):
        # Three controllers over 16 weights: the first one's flight diverges
        # at index 5 and its planner fails at 12, the second is healthy and
        # the third one's planner fails at 2.  Each outcome is what
        # evaluate_point gives weight by weight up to the first failure, and
        # the 30 points before each pair's first planner failure fly as the
        # lanes of one loop.
        grid = [0.0] + [10.0 ** (k / 3) for k in range(15)]
        jobs = []
        for n in (1, 2, 3):
            pair = EigenvaluePair(lambda_slow=-10.0 * n, lambda_fast=-100.0 * n)
            controller = design_controller(pair, params)
            jobs.append((controller, select_step(controller, 1.0)))
        solve, solve_weights = frontier_module.solve, frontier_module.solve_weights

        def fault(lam, mu):
            failing = (lam, grid.index(mu))
            if failing == (10.0, 5):
                return constant_reference(1e308, 1.0)
            if failing in ((10.0, 12), (30.0, 2)):
                return ValueError(f"no plan at {mu!r}")
            return None

        def planning(template, weights):
            return [
                fault(template.dominant_lambda, mu) or outcome
                for mu, outcome in zip(weights, solve_weights(template, weights))
            ]

        def solving(problem):
            outcome = fault(problem.dominant_lambda, problem.mu) or solve(problem)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        # The sweep plans each pair's grid with one call, evaluate_point
        # one weight at a time.
        monkeypatch.setattr(frontier_module, "solve_weights", planning)
        monkeypatch.setattr(frontier_module, "solve", solving)
        flown = []
        fly_lanes = tracking_sim._fly_lanes
        monkeypatch.setattr(tracking_sim, "_fly_lanes",
                            lambda configs: flown.append(len(configs)) or fly_lanes(configs))
        outcomes = frontier_module.sweep_pairs(jobs, grid, PlanProblem())
        assert flown == [30]
        expected = []
        for controller, step in jobs:
            try:
                expected.append(tuple(
                    evaluate_point(controller, mu, PlanProblem(), step, index)
                    for index, mu in enumerate(grid)
                ))
            except SweepError as exc:
                expected.append(exc)
        assert [type(o) for o in outcomes] == [SweepError, tuple, SweepError]
        assert [o if isinstance(o, tuple) else str(o) for o in outcomes] == [
            e if isinstance(e, tuple) else str(e) for e in expected
        ]
        assert outcomes[0].mu == grid[5]
        assert isinstance(outcomes[0].__cause__, SimulationDivergedError)

    def test_actual_cost_dips_then_rises(self, controller):
        # The pseudo frontier is not monotone in mu: a weighted point
        # beats the unweighted head, and extreme weighting overshoots.
        points = sweep(controller, [0.0, 2000.0, 1e6], PlanProblem(), STEP)
        actual = [p.actual_cost for p in points]
        assert actual[1] < actual[0]
        assert actual[2] > actual[1]
        best = best_compromise(points)
        assert best.mu == 2000.0


class TestScaleCovariance:
    """Time runs c times faster when the horizon and the step are divided
    by c and both poles, v0 and mu**(1/4) are multiplied by c; the costs
    then scale by c**3 and the error integrals by 1/c, up to rounding.
    The worst deviation measured is 1.5e-14 (default template, c = 2)."""

    @pytest.mark.parametrize("c", [2.0, 4.0])
    @pytest.mark.parametrize(
        "template",
        [PlanProblem(), PlanProblem(segments=120, v0=30.0, yf=0.0)],
        ids=["default", "bounded"],
    )
    @pytest.mark.parametrize("slow,fast", [(-10.0, -100.0), (-20.0, -200.0),
                                           (-50.0, -500.0)])
    def test_points_scale_with_time(self, c, template, slow, fast, params):
        base = design_controller(
            EigenvaluePair(lambda_slow=slow, lambda_fast=fast), params
        )
        scaled = design_controller(
            EigenvaluePair(lambda_slow=c * slow, lambda_fast=c * fast), params
        )
        step = select_step(base, template.horizon)
        faster = dataclasses.replace(
            template, horizon=template.horizon / c, v0=template.v0 * c
        )
        powers = {"designed_cost": 3, "actual_cost": 3,
                  "predicted_error_integral": -1, "actual_error_integral": -1}
        for mu in (0.0, 100.0, 1e4):
            point = evaluate_point(base, mu, template, step, 0)
            fast_point = evaluate_point(scaled, mu * c**4, faster, step / c, 0)
            for field, power in powers.items():
                assert getattr(fast_point, field) == pytest.approx(
                    getattr(point, field) * c**power, rel=1e-12, abs=0.0
                ), (field, mu)


class TestBestCompromise:
    def test_argmin(self):
        points = (point(0.0, 80.0, trajectory_id=0),
                  point(1.0, 78.0, trajectory_id=1),
                  point(2.0, 79.0, trajectory_id=2))
        assert best_compromise(points).mu == 1.0

    def test_tie_goes_to_smaller_mu(self):
        points = (point(0.0, 80.0), point(1.0, 78.0), point(2.0, 78.0))
        assert best_compromise(points).mu == 1.0

    def test_single_point(self):
        assert best_compromise((point(0.0, 80.0),)).mu == 0.0

    def test_empty_frontier_rejected(self):
        with pytest.raises(ValueError):
            best_compromise(())


class TestFrontierGap:
    def test_perfect_tracking_gives_zero(self):
        points = (point(0.0, 100.0, designed=100.0),
                  point(1.0, 50.0, designed=50.0))
        assert frontier_gap(points) == 0.0

    def test_mean_absolute_gap(self):
        points = (point(0.0, 104.0, designed=100.0),
                  point(1.0, 94.0, designed=100.0))
        assert frontier_gap(points) == pytest.approx(5.0, rel=1e-12)


class TestSpringModel:
    def test_equal_legs(self):
        b = 7.0
        expected = 1.0 / (4.0 * b * (1.0 - 1.0 / math.sqrt(2.0)))
        assert spring_constant(b, b) == pytest.approx(expected, rel=1e-12)
        assert spring_constant(b, b) == pytest.approx(0.8535533906 / b, rel=1e-9)

    def test_small_neck_stiffens_fast(self):
        # k ~ b^2 / (2 a^3) for a << b, so halving a more than
        # quadruples k.
        b = 1.0
        for a in (1e-2, 1e-3, 1e-4):
            assert spring_constant(a / 2.0, b) > 4.0 * spring_constant(a, b)

    @pytest.mark.parametrize("ratio", [1e-6, 1e-8, 1e-10])
    def test_small_neck_keeps_its_digits(self, ratio):
        # k = b^2 / (2 a^3) (1 + 3/4 (a/b)^2 + ...), so the leading term
        # is exact to 1e-12 here; 1 - (1 + (a/b)^2)^(-1/2) cancels.
        b = 32.0
        a = ratio * b
        assert spring_constant(a, b) == pytest.approx(b**2 / (2.0 * a**3), rel=1e-11)

    def test_no_neck_is_a_sentinel_not_an_error(self):
        assert spring_constant(0.0, 3.0) == math.inf
        fit = spring_fit_from_points([point(0.0, 80.0), point(1.0, 80.0)])
        assert fit == SpringFit(a=0.0, b=40.0, k=math.inf, neck_found=False)

    @pytest.mark.parametrize("a,b", [(-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_bad_geometry_rejected(self, a, b):
        with pytest.raises(ValueError):
            spring_constant(a, b)

    def test_fit_from_synthetic_points(self):
        pts = [point(0.0, 10.0), point(1.0, 7.0), point(2.0, 8.0)]
        fit = spring_fit_from_points(pts)
        assert fit.a == 3.0
        assert fit.b == 5.0
        assert fit.k == pytest.approx(spring_constant(3.0, 5.0), rel=1e-12)
        assert fit.neck_found

    def test_fit_requires_the_head_point(self):
        with pytest.raises(ValueError):
            spring_fit_from_points([point(1.0, 10.0)])
        with pytest.raises(ValueError):
            spring_fit_from_points([])

    def test_fit_requires_positive_head_cost(self):
        with pytest.raises(ValueError):
            spring_fit_from_points([point(0.0, 0.0)])

    def test_fit_of_a_swept_frontier(self, controller):
        points = sweep(controller, [0.0, 2000.0], PlanProblem(), STEP)
        fit = spring_fit_from_points(points)
        head = points[0].actual_cost
        assert fit.b == head / 2.0
        assert fit.a == head - min(p.actual_cost for p in points)
        assert fit.neck_found
        assert fit.k > 0.0


class TestFrontierCsv:
    def test_round_trip(self, tmp_path, controller):
        points = sweep(controller, [0.0, 1e3], PlanProblem(), STEP)
        path = tmp_path / "frontier.csv"
        write_frontier_csv(points, path)
        assert tuple(read_frontier_points(path)) == points

    def test_round_trip_keeps_every_bit(self, tmp_path):
        values = (-0.0, 5e-324, 1 / 3, 1e300, 0.0)
        points = [
            FrontierPoint(*(values[(i + j) % 5] for j in range(5)), trajectory_id=i)
            for i in range(5)
        ]
        path = tmp_path / "frontier.csv"
        write_frontier_csv(points, path)
        back = read_frontier_points(path)
        assert [p.trajectory_id for p in back] == list(range(5))
        for point, read in zip(points, back):
            for field in FRONTIER_COLUMNS.values():
                value = getattr(read, field)
                assert type(value) is float
                assert value.hex() == getattr(point, field).hex()

    def test_header_is_the_contract(self):
        assert tuple(FRONTIER_COLUMNS) == (
            "mu", "designed_cost", "predicted_error_sq_integral",
            "actual_cost", "actual_error_sq_integral",
        )

    def test_renamed_column_is_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("mu,designed_cost,predicted,actual_cost,"
                        "actual_error_sq_integral\n0,1,1,1,1\n")
        with pytest.raises(SchemaError, match=r"column 2.*predicted"):
            read_frontier_points(path)

