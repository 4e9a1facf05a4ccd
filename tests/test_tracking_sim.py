"""Closed-loop simulator tests against linear and lag-model oracles.

The vertical task keeps the lateral/attitude loops dormant, so the
nonlinear plant collapses to the linear altitude loop exactly; that
gives a two-exponential closed-form oracle for constant references.
The same fact lets ``simulate`` integrate the altitude states only; the
six-state ``simulate_planar`` is its bit-for-bit reference.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from conftest import constant_reference, make_reference, sim_configs
from oracles import simulate_planar, trapezoid_quadrature
from plantrack import tracking_sim
from plantrack.cli import RunConfig
from plantrack.collocation_planner import PlanProblem, solve
from plantrack.lqr import EigenvaluePair, control_law, design_controller
from plantrack.tracking_sim import (
    MAX_FLIGHT_STEPS,
    TRACKING_COLUMNS,
    SimConfig,
    SimulationDivergedError,
    TrackingResult,
    _stage_references,
    reference_lookup,
    select_step,
    simulate,
    write_tracking_csv,
)


@pytest.fixture
def slow_controller(params):
    return design_controller(
        EigenvaluePair(lambda_slow=-10.0, lambda_fast=-100.0), params
    )


@pytest.fixture
def mid_controller(params):
    return design_controller(
        EigenvaluePair(lambda_slow=-20.0, lambda_fast=-200.0), params
    )


@pytest.fixture
def fast_controller(params):
    return design_controller(
        EigenvaluePair(lambda_slow=-50.0, lambda_fast=-500.0), params
    )


class TestSelectStep:
    def test_caps_at_the_default_step(self, slow_controller):
        # 0.2 / 100 = 2e-3 exceeds the 1e-3 cap.
        assert select_step(slow_controller, 1.0) == pytest.approx(1e-3, rel=1e-12)

    def test_follows_the_fast_pole(self, fast_controller):
        assert select_step(fast_controller, 1.0) == pytest.approx(4e-4, rel=1e-12)

    def test_snaps_to_divide_the_horizon(self, mid_controller):
        step = select_step(mid_controller, 0.4)
        ratio = 0.4 / step
        assert abs(ratio - round(ratio)) < 1e-9
        assert step <= 1e-3 * (1 + 1e-9)

    def test_respects_overrides(self, slow_controller):
        assert select_step(
            slow_controller, 1.0, max_step=1e-2, pole_fraction=0.5
        ) == pytest.approx(5e-3, rel=1e-12)

    def test_rejects_an_rk4_unstable_step(self, fast_controller):
        # 1/167 s at the -500 pole: |lambda| h = 2.99.
        with pytest.raises(ValueError) as err:
            select_step(fast_controller, 1.0, max_step=0.01, pole_fraction=3.0)
        assert str(err.value) == (
            "sim step 0.005988023952095809 s is not RK4-stable"
            " (|lambda_fast| * step > 2.78)"
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["max_step", "pole_fraction"])
    def test_rejects_a_rule_field_that_is_not_positive_and_finite(
        self, slow_controller, field, bad
    ):
        message = f"{field} must be positive and finite, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            select_step(slow_controller, 1.0, **{field: bad})

    def test_step_equal_to_the_knot_spacing_is_accepted(self, slow_controller):
        # |lambda| h = 100 / 60 is inside the RK4 limit.
        step = select_step(
            slow_controller, 1.0, max_step=1.0 / 60.0, pole_fraction=100.0
        )
        assert step == 1.0 / 60.0
        ref = constant_reference(0.0, 1.0, knots=61)
        SimConfig(step=step, reference=ref, controller=slow_controller)


class TestSimConfigValidation:
    @pytest.mark.parametrize("step", [0.0, math.nan, math.inf])
    def test_nonpositive_step_rejected(self, slow_controller, step):
        message = f"step must be positive and finite, got {step!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimConfig(step=step, reference=constant_reference(0.0, 1.0),
                      controller=slow_controller)

    def test_step_above_knot_spacing_rejected(self, slow_controller):
        ref = constant_reference(0.0, 1.0, knots=61)
        with pytest.raises(ValueError) as err:
            SimConfig(step=0.1, reference=ref, controller=slow_controller)
        assert str(err.value) == (
            f"sim step 0.1 s exceeds the knot spacing {ref.knot_spacing!r} s"
        )

    def test_non_dividing_step_rejected(self, slow_controller):
        ref = constant_reference(0.0, 1.0, knots=3)
        with pytest.raises(ValueError):
            SimConfig(step=0.3, reference=ref, controller=slow_controller)

    def test_too_long_flight_rejected_before_allocating(self, slow_controller):
        # 1e9 steps would hold about 420 GB.
        traj = solve(PlanProblem(horizon=1e6))
        message = (
            "a 1e+06 s flight takes 1e+09 RK4 steps of 0.001 s,"
            " over the bound of 1000000"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimConfig(step=1e-3, reference=traj, controller=slow_controller)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            select_step(slow_controller, traj.horizon)

    def test_overflowing_step_count_rejected(self, slow_controller):
        # horizon / step is inf; rounding it would raise OverflowError.
        ref = constant_reference(0.0, 1e306)
        with pytest.raises(ValueError, match="takes inf RK4 steps"):
            SimConfig(step=1e-3, reference=ref, controller=slow_controller)
        with pytest.raises(ValueError, match="takes inf RK4 steps"):
            select_step(slow_controller, 1e306)

    def test_step_bound_is_inclusive(self, slow_controller):
        # select_step and SimConfig agree on a flight of exactly the bound.
        ref = constant_reference(0.0, 1000.0)
        config = SimConfig(step=select_step(slow_controller, ref.horizon),
                           reference=ref, controller=slow_controller)
        assert config.steps == MAX_FLIGHT_STEPS
        with pytest.raises(ValueError, match="over the bound of 1000000"):
            select_step(slow_controller, 1000.01)


class TestReferenceLookup:
    def test_knot_identity(self):
        traj = solve(PlanProblem())
        for k in (0, 1, 17, 30, 59, 60):
            assert reference_lookup(traj, float(traj.times[k])) == pytest.approx(
                traj.y[k], abs=1e-12
            )

    def test_exact_on_cubics_at_midpoints(self):
        # Hermite interpolation reproduces cubics; feed it the analytic
        # knots and probe every segment midpoint.
        t = np.linspace(0.0, 1.0, 61)
        traj = make_reference(
            t, 7.5 * t**2 - 2.5 * t**3, 15.0 * t - 7.5 * t**2, 15.0 - 15.0 * t
        )
        mids = 0.5 * (t[:-1] + t[1:])
        for tm in mids:
            expected = 7.5 * tm**2 - 2.5 * tm**3
            assert abs(reference_lookup(traj, float(tm)) - expected) < 1e-9

    def test_post_horizon_hold(self):
        traj = solve(PlanProblem())
        assert reference_lookup(traj, 1.0) == traj.y[-1]
        assert reference_lookup(traj, 7.5) == traj.y[-1]

    def test_pre_start_clamp(self):
        traj = solve(PlanProblem())
        assert reference_lookup(traj, -1.0) == traj.y[0]

    def test_array_lookup_matches_the_scalar_one_bit_for_bit(self):
        traj = solve(PlanProblem())
        t = np.concatenate(([-1.0, 0.0], np.arange(1001) * 1e-3 + 5e-4, [7.5]))
        values = reference_lookup(traj, t.reshape(2, -1))
        assert values.shape == (2, t.size // 2)
        scalars = np.array([reference_lookup(traj, float(ti)) for ti in t])
        assert values.ravel().tobytes() == scalars.tobytes()


class TestTrimEquilibrium:
    def test_zero_reference_stays_at_trim(self, slow_controller):
        result = simulate(
            SimConfig(step=1e-3, reference=constant_reference(0.0, 1.0),
                      controller=slow_controller)
        )
        assert np.max(np.abs(result.y)) < 1e-12
        assert abs(result.actual_cost) < 1e-12
        assert abs(result.actual_error_integral) < 1e-12
        # Hover thrust cancels gravity identically, so every recorded
        # acceleration is exactly zero, not merely small.
        assert not result.x_ddot.any()
        assert not result.y_ddot.any()
        assert not result.q_ddot.any()

    def test_history_grid_is_uniform_at_step(self, slow_controller):
        result = simulate(
            SimConfig(step=1e-3, reference=constant_reference(0.0, 1.0),
                      controller=slow_controller)
        )
        assert result.times.size == 1001
        assert np.max(np.abs(np.diff(result.times) - 1e-3)) < 1e-15


class TestClosedLoopOracles:
    def test_step_reference_settles(self, slow_controller):
        # 2 s is 20 slow time constants for the [-10, -100] pair.
        ref = constant_reference(5.0, 2.0)
        result = simulate(
            SimConfig(step=select_step(slow_controller, 2.0), reference=ref,
                      controller=slow_controller)
        )
        assert abs(result.y[-1] - 5.0) < 1e-6

    def test_matches_linear_transition_solution(self, slow_controller):
        # With the lateral/attitude loops dormant the plant is exactly
        # the linear altitude loop; a 5 m step has the two-exponential
        # solution below.  Budget 1e-8 per state for RK4 at step 1e-4.
        ref = constant_reference(5.0, 1.0)
        result = simulate(
            SimConfig(step=1e-4, reference=ref, controller=slow_controller)
        )
        l1, l2 = -10.0, -100.0
        c1 = -5.0 * l2 / (l2 - l1)
        c2 = -5.0 - c1
        y_exact = 5.0 + c1 * np.exp(l1 * result.times) + c2 * np.exp(l2 * result.times)
        v_exact = c1 * l1 * np.exp(l1 * result.times) + c2 * l2 * np.exp(
            l2 * result.times
        )
        assert np.max(np.abs(result.y - y_exact)) < 1e-8
        assert np.max(np.abs(result.y_dot - v_exact)) < 1e-8

    def test_ramp_settles_to_the_velocity_lag(self, mid_controller):
        # A v-ramp settles to e = v / |lambda_slow| = 5/20 within the
        # 10% single-pole approximation; sample mid-ramp at t = 0.2.
        t = np.linspace(0.0, 0.4, 25)
        ramp = make_reference(t, 5.0 * t, np.full(25, 5.0), np.zeros(25))
        result = simulate(
            SimConfig(step=select_step(mid_controller, 0.4), reference=ramp,
                      controller=mid_controller)
        )
        i = int(np.argmin(np.abs(result.times - 0.2)))
        assert result.times[i] == pytest.approx(0.2, abs=1e-12)
        assert abs(result.error[i] - 0.25) < 0.025

    def test_step_halving_converged(self, slow_controller, fast_controller):
        traj = solve(PlanProblem())
        for controller, factor in ((slow_controller, 1.0), (fast_controller, 0.5)):
            base = select_step(controller, traj.horizon) * factor
            coarse = simulate(
                SimConfig(step=base, reference=traj, controller=controller)
            ).actual_cost
            fine = simulate(
                SimConfig(step=base / 2.0, reference=traj, controller=controller)
            ).actual_cost
            assert abs(coarse - fine) < 1e-6 * abs(fine)


class TestVerticalDormancy:
    @pytest.mark.parametrize("run", [simulate, simulate_planar])
    def test_lateral_and_attitude_stay_identically_zero(self, mid_controller, run):
        traj = solve(PlanProblem(mu=1000.0))
        result = run(
            SimConfig(step=select_step(mid_controller, traj.horizon),
                      reference=traj, controller=mid_controller)
        )
        # Exact zeros: the loops are never excited, 0.0 in, 0.0 out.
        assert not result.x.any()
        assert not result.q.any()
        assert not result.x_dot.any()
        assert not result.q_dot.any()
        assert np.array_equal(result.u1, result.u2)

    def test_thrust_sum_is_the_control_law(self, mid_controller, params):
        traj = solve(PlanProblem())
        result = simulate(
            SimConfig(step=select_step(mid_controller, traj.horizon),
                      reference=traj, controller=mid_controller)
        )
        law = np.array([
            control_law(mid_controller, y, yd, yr, params)
            for y, yd, yr in zip(result.y, result.y_dot, result.y_ref)
        ])
        assert np.array_equal(result.u1 + result.u2, law)


class TestScoring:
    def test_tracking_lag_leaves_error_and_shifts_cost(self, mid_controller):
        # Feedback-only tracking cannot follow the plan exactly: the
        # error integral stays bounded away from zero, and the flown
        # cost lands well off the designed one (the loop low-passes the
        # reference, so over the fixed window it comes out lower).
        traj = solve(PlanProblem())
        result = simulate(
            SimConfig(step=select_step(mid_controller, traj.horizon),
                      reference=traj, controller=mid_controller)
        )
        assert result.actual_error_integral > 0.01
        assert abs(result.actual_cost - traj.designed_cost) > 1.0
        assert 0.0 < result.actual_cost < traj.designed_cost

    def test_cost_dominates_the_altitude_term(self, mid_controller):
        traj = solve(PlanProblem())
        result = simulate(
            SimConfig(step=select_step(mid_controller, traj.horizon),
                      reference=traj, controller=mid_controller)
        )
        altitude_only = trapezoid_quadrature(result.times, result.y_ddot**2)
        assert result.actual_cost >= altitude_only


@pytest.mark.parametrize("step", [1e-3, 0.00970873786407767])
def test_scores_are_the_validating_quadrature_bit_for_bit(slow_controller, step):
    # The scores skip the grid check but not its spacing: 103 steps of
    # 0.00970873786407767 s end where (t[-1] - t[0]) / 103 is not the
    # step's bits.
    traj = solve(PlanProblem(mu=100.0))
    result = simulate(SimConfig(step=step, reference=traj, controller=slow_controller))
    times = result.times
    spacing_is_step = (times[-1] - times[0]) / (times.size - 1) == step
    assert spacing_is_step == (step == 1e-3)
    effort = result.x_ddot**2 + result.y_ddot**2 + result.q_ddot**2
    for score, integrand in (
        (result.actual_cost, effort),
        (result.actual_error_integral, result.error**2),
    ):
        expected = trapezoid_quadrature(times, integrand)
        assert np.float64(score).tobytes() == np.float64(expected).tobytes()


def test_divergence_is_reported_with_its_time(slow_controller):
    ref = constant_reference(1e308, 1.0)
    with pytest.raises(SimulationDivergedError) as err:
        simulate(SimConfig(step=1e-3, reference=ref, controller=slow_controller))
    assert err.value.time > 0.0
    assert "diverged" in str(err.value)


def overflow_reference(ramp, params=None):
    """1e300-scale reference: the state stays finite, its squares do not."""
    times = np.linspace(0.0, 1.0, 61)
    if ramp:
        return make_reference(times, 1e300 * times, np.full(61, 1e300), np.zeros(61), params)
    return constant_reference(1e300, 1.0, params=params)


@pytest.mark.parametrize(("ramp", "time"), [(False, 0.0), (True, 4e-4)])
def test_overflowing_score_is_divergence(params, fast_controller, ramp, time):
    config = SimConfig(
        step=4e-4, reference=overflow_reference(ramp, params),
        controller=fast_controller, params=params,
    )
    times = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (simulate, simulate_planar):
            with pytest.raises(SimulationDivergedError) as err:
                run(config)
            times.append(err.value.time)
    assert times[0] == times[1]
    assert times[0] == pytest.approx(time, abs=1e-12)


def test_tracking_csv_layout(tmp_path, mid_controller):
    traj = solve(PlanProblem())
    result = simulate(
        SimConfig(step=select_step(mid_controller, traj.horizon),
                  reference=traj, controller=mid_controller)
    )
    path = tmp_path / "tracking.csv"
    write_tracking_csv(result, path)
    with open(path) as handle:
        header = handle.readline().strip()
    assert tuple(header.split(",")) == tuple(TRACKING_COLUMNS)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (result.times.size, len(TRACKING_COLUMNS))
    assert np.array_equal(data[:, 0], result.times)
    assert np.array_equal(data[:, 2], result.y)
    assert np.array_equal(data[:, 10], result.error)


def _field_bytes(result):
    """Every TrackingResult field as raw bytes, so signed zeros count."""
    return {
        field.name: np.asarray(getattr(result, field.name), dtype=float).tobytes()
        for field in dataclasses.fields(TrackingResult)
    }


class TestAltitudePathMatchesPlanar:
    """``simulate`` (2 states) against ``simulate_planar`` (6 states), bit for bit."""

    def _assert_identical(self, flights):
        """Each (SimConfig, simulate_planar result) against simulate; the count."""
        count = 0
        for config, planar in flights:
            fast = _field_bytes(simulate(config))
            reference = _field_bytes(planar)
            mismatched = [name for name in reference if fast[name] != reference[name]]
            assert not mismatched, (config.controller.pair, config.reference.mu, mismatched)
            count += 1
        return count

    def test_default_grid(self, default_flights):
        assert self._assert_identical(default_flights) == 124

    def test_bounded_grid(self):
        # The toss clamps at y_max, so the planner's active set engages.
        config = RunConfig(
            pairs=(
                EigenvaluePair(lambda_slow=-10.0, lambda_fast=-100.0),
                EigenvaluePair(lambda_slow=-20.0, lambda_fast=-200.0),
            ),
            segments=120,
            y0=0.0,
            v0=30.0,
            yf=0.0,
        )
        flights = ((c, simulate_planar(c)) for c in sim_configs(config))
        assert self._assert_identical(flights) == 62

    def test_tracking_csv(self, tmp_path):
        # Every default pair at mu = 0 and mu = 100.
        for i, sim_config in enumerate(sim_configs(RunConfig(mu_count=1, mu_min=100.0))):
            fast = tmp_path / f"fast_{i}.csv"
            reference = tmp_path / f"planar_{i}.csv"
            write_tracking_csv(simulate(sim_config), fast)
            write_tracking_csv(simulate_planar(sim_config), reference)
            assert fast.read_bytes() == reference.read_bytes()

    def test_stage_references_round_like_the_scalar_loop(self, mid_controller):
        # Stage t + h is i * step + step, which is not (i + 1) * step in
        # general; both paths read these rows, so pin them to the scalar call.
        traj = solve(PlanProblem())
        step = select_step(mid_controller, traj.horizon)
        times, references = _stage_references(
            SimConfig(step=step, reference=traj, controller=mid_controller)
        )
        expected = np.array([
            [reference_lookup(traj, t), reference_lookup(traj, t + 0.5 * step),
             reference_lookup(traj, t + step)]
            for t in (i * step for i in range(times.size))
        ]).T
        assert np.array_equal(times, np.arange(times.size) * step)
        assert references.tobytes() == expected.tobytes()

    def test_stage_basis_is_kept_for_the_last_flight_grid(self, mid_controller):
        # Two plans on two RK4 grids: flights on one grid share one
        # read-only basis, the other grid replaces it, and every flight
        # reads the bits a cold cache gives.
        plans = [solve(PlanProblem(mu=mu)) for mu in (0.0, 100.0)]
        configs = [
            SimConfig(step=step, reference=plan, controller=mid_controller)
            for step in (1e-3, 5e-4) for plan in plans
        ]
        cold = []
        for config in configs:
            tracking_sim._stage_basis.cache_clear()
            cold.append(_stage_references(config)[1].tobytes())
        tracking_sim._stage_basis.cache_clear()
        assert [_stage_references(config)[1].tobytes() for config in configs] == cold
        info = tracking_sim._stage_basis.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 1)
        for array in tracking_sim._stage_basis(5e-4, 2000, plans[0].knot_spacing, 1.0, 61):
            assert not array.flags.writeable
        assert tracking_sim._stage_basis.cache_info().hits == 3

    @pytest.mark.parametrize(
        ("level", "pair", "time"),
        [
            (1e308, (-10.0, -100.0), 0.001),
            (5.0, (-10.0, -10000.0), 0.124),
            (5.0, (-10.0, -60000.0), 0.054),
        ],
    )
    def test_divergence_time(self, params, level, pair, time):
        controller = design_controller(
            EigenvaluePair(lambda_slow=pair[0], lambda_fast=pair[1]), params
        )
        config = SimConfig(
            step=1e-3, reference=constant_reference(level, 1.0), controller=controller
        )
        times = []
        for run in (simulate, simulate_planar):
            with pytest.raises(SimulationDivergedError) as err:
                run(config)
            times.append(err.value.time)
        assert times[0] == times[1]
        assert times[0] == pytest.approx(time, abs=1e-12)
