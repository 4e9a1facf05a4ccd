"""Acceptance suite: ten analytic and property criteria, one test each.

Every test prints a single PASS/FAIL line (visible with -s or on
failure) and then asserts, so the suite doubles as a checklist.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import plantrack
from conftest import constant_reference
from oracles import (
    VelocityProfile,
    error_discrete_limit_form,
    error_integral_form,
    frontier_gap,
    rk4_lag_at_knots,
)
from plantrack import collocation_planner as planner
from plantrack import tracking_sim as sim
from plantrack.cli import RunConfig
from plantrack.frontier import best_compromise, spring_fit_from_points, sweep
from plantrack.lqr import design_controller


def report(criterion, label, ok):
    print(f"criterion {criterion:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {criterion}: {label}"


@pytest.fixture(scope="module")
def config():
    return RunConfig()


@pytest.fixture(scope="module")
def default_sweeps(config):
    """One full default-grid sweep per controller, reused by 5-8."""
    grid = config.mu_grid()
    template = config.problem_template()
    result = {}
    for pair in config.pairs:
        controller = design_controller(pair, config.params)
        result[pair] = sweep(controller, grid, template, config.step_for(controller))
    return result


def test_criterion_01_planner_matches_the_analytic_cubic(params):
    problem = planner.PlanProblem(
        horizon=1.0,
        segments=1500,
        y0=0.0,
        v0=0.0,
        yf=5.0,
        y_bounds=(0.0, 5.0),
        mu=0.0,
        dominant_lambda=20.0,
        params=params,
    )
    start = perf_counter()
    traj = planner.solve(problem)
    wall = perf_counter() - start
    t = traj.times
    dev = np.max(np.abs(traj.y - (7.5 * t**2 - 2.5 * t**3)))
    cost_err = abs(traj.designed_cost - 75.0)
    report(
        1,
        f"knot dev {dev:.2e} m, cost err {cost_err:.2e}, {wall * 1e3:.0f} ms",
        dev < 1e-6 and cost_err < 1e-3 and wall < 1.0,
    )


def test_criterion_02_estimator_agrees_with_lag_ode_integration():
    start = perf_counter()
    knots = np.linspace(0.0, 1.0, 61)
    dt = knots[1] - knots[0]
    rng = np.random.default_rng(20260815)
    breaks = np.arange(0, 61, 5)
    profiles = np.array(
        [
            np.interp(knots, knots[breaks], rng.uniform(-10.0, 10.0, breaks.size))
            for _ in range(100)
        ]
    )

    # RK4 of e' = v(t) - lam e on a 40x finer grid, all profiles at once.
    worst_ratio = 0.0
    for lam in (10.0, 20.0, 30.0, 50.0):
        oracle = rk4_lag_at_knots(knots, profiles, lam)
        for i, v in enumerate(profiles):
            series = error_integral_form(VelocityProfile(times=knots, values=v), lam)
            dev = np.max(np.abs(series - oracle[i]))
            bound = 10.0 * dt * dt * np.max(np.abs(v))
            worst_ratio = max(worst_ratio, dev / bound)
    wall = perf_counter() - start
    report(
        2,
        f"worst dev/bound {worst_ratio:.3f} over 400 runs, {wall:.2f} s",
        worst_ratio < 1.0 and wall < 5.0,
    )


def test_criterion_03_discrete_form_converges_to_the_closed_value():
    profile = VelocityProfile(times=np.array([0.0, 1.0]), values=np.array([5.0, 5.0]))
    closed = 5.0 / 20.0 * -math.expm1(-20.0)
    gaps = [
        abs(error_discrete_limit_form(profile, 20.0, n) - closed)
        for n in (10**2, 10**3, 10**4, 10**5)
    ]
    shrinking = all(b < a for a, b in zip(gaps, gaps[1:]))
    report(
        3,
        f"gap at n=1e5 is {gaps[-1]:.2e}, decade gaps {['%.1e' % g for g in gaps]}",
        gaps[-1] < 1e-3 and shrinking,
    )


def test_criterion_04_constant_reference_settles(config, paper_pairs):
    worst = 0.0
    for pair in paper_pairs:
        horizon = 20.0 / abs(pair.lambda_slow)
        reference = constant_reference(5.0, horizon, params=config.params)
        controller = design_controller(pair, config.params)
        result = sim.simulate(
            sim.SimConfig(
                step=config.step_for(controller) if horizon == config.horizon
                else sim.select_step(controller, horizon),
                reference=reference,
                controller=controller,
                params=config.params,
            )
        )
        worst = max(worst, abs(result.y[-1] - 5.0))
    report(4, f"worst terminal |y-5| = {worst:.2e} m", worst < 1e-6)


def test_criterion_05_design_frontier_is_monotone(default_sweeps):
    ok = True
    for pts in default_sweeps.values():
        ok = ok and all(
            b.designed_cost >= a.designed_cost - 1e-9 for a, b in zip(pts, pts[1:])
        )
        ok = ok and all(
            b.predicted_error_integral <= a.predicted_error_integral + 1e-9
            for a, b in zip(pts, pts[1:])
        )
    report(5, "designed cost up, predicted error down across the mu grid", ok)


def test_criterion_06_neck_beats_the_head(default_sweeps):
    drops = {}
    ok = True
    for pair, points in default_sweeps.items():
        head = points[0]
        best = best_compromise(points)
        drops[pair.lambda_slow] = head.actual_cost - best.actual_cost
        ok = ok and best.mu > 0.0 and best.actual_cost < head.actual_cost
    summary = ", ".join(f"{int(-k)}: {v:.3f}" for k, v in drops.items())
    report(6, f"actual-cost drop below mu=0 per pair ({summary})", ok)


def test_criterion_07_gap_shrinks_with_faster_poles(default_sweeps):
    gaps = [frontier_gap(f) for f in default_sweeps.values()]
    ok = all(b < a for a, b in zip(gaps, gaps[1:]))
    report(7, "mean |actual-designed| " + " > ".join(f"{g:.2f}" for g in gaps), ok)


def test_criterion_08_stiffness_grows_with_faster_poles(default_sweeps):
    ks = [spring_fit_from_points(f).k for f in default_sweeps.values()]
    ok = all(math.isfinite(k) for k in ks) and all(
        b > a for a, b in zip(ks, ks[1:])
    )
    report(8, "spring k " + " < ".join(f"{k:.0f}" for k in ks), ok)


def test_criterion_09_sweep_simulations_stay_vertical(default_flights):
    # The six-state model: the altitude-only simulate keeps x and q at
    # zero by construction, which would make this check vacuous.
    worst = 0.0
    for _, result in default_flights:
        worst = max(
            worst,
            float(np.max(np.abs(result.x))),
            float(np.max(np.abs(result.q))),
        )
    report(9, f"max |x|,|q| over 124 simulations = {worst:.1e}", worst < 1e-9)


def test_criterion_10_default_sweep_is_fast_and_reproducible(tmp_path):
    # The child runs in tmp_path, so a relative PYTHONPATH (such as src)
    # would not find the package; lead with the imported copy's absolute root.
    package_root = str(Path(plantrack.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    outs = (tmp_path / "first", tmp_path / "second")
    walls = []
    for out in outs:
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "plantrack", "sweep", "--out", str(out)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        walls.append(perf_counter() - start)
        assert proc.returncode == 0, proc.stderr

    names = [
        f"frontier_{slug}.csv" for slug in ("10_100", "20_200", "30_300", "50_500")
    ]
    names += [
        f"spring_{slug}.json" for slug in ("10_100", "20_200", "30_300", "50_500")
    ]
    names += ["manifest.json"]
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in names
    )
    report(
        10,
        f"runs {walls[0]:.1f} s / {walls[1]:.1f} s, {len(names)} files byte-identical",
        identical and all(w < 120.0 for w in walls),
    )
