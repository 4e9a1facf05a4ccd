import math

import numpy as np
import pytest

from oracles import (
    VelocityProfile,
    error_discrete_limit_form,
    error_integral_form,
    error_sum_discretization,
    rk4_lag_at_knots,
    trapezoid_quadrature,
)
from plantrack.error_estimator import lag_response_matrix, trapezoid_weights


def uniform_profile(values, horizon=1.0):
    values = np.asarray(values, dtype=float)
    return VelocityProfile(np.linspace(0.0, horizon, values.size), values)


class TestTrapezoidQuadrature:
    def test_constant_is_exact(self):
        t = np.linspace(0, 1, 61)
        assert trapezoid_quadrature(t, np.ones(61)) == pytest.approx(1.0, abs=1e-15)

    def test_affine_is_exact(self):
        t = np.linspace(0, 1, 61)
        assert trapezoid_quadrature(t, t) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_error_matches_composite_bound(self):
        t = np.linspace(0, 1, 61)
        result = trapezoid_quadrature(t, t**2)
        assert abs(result - 1.0 / 3.0) < 5e-5
        # composite trapezoid error is dt^2/12 * integral of h'' = dt^2/6
        assert result - 1.0 / 3.0 == pytest.approx((1 / 60) ** 2 / 6, rel=1e-6)

    def test_rejects_nonuniform_grid(self):
        t = np.array([0.0, 0.1, 0.3, 0.4])
        with pytest.raises(ValueError):
            trapezoid_quadrature(t, np.ones(4))

    def test_rejects_mismatched_shapes(self):
        t = np.linspace(0, 1, 61)
        with pytest.raises(ValueError, match="matching shape"):
            trapezoid_quadrature(t, np.ones(60))

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            trapezoid_quadrature(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            trapezoid_weights(1)


class TestVelocityProfile:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            VelocityProfile(np.array([0.5, 1.0]), np.array([1.0, 1.0]))

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            VelocityProfile(np.array([0.0, 1.0, 0.5]), np.zeros(3))

    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError):
            VelocityProfile(np.array([0.0, 0.1, 0.5]), np.zeros(3))

    def test_linear_sampling_between_knots(self):
        prof = uniform_profile([0.0, 2.0, 0.0])
        assert prof.sample(0.25) == pytest.approx(1.0)


class TestIntegralForm:
    def test_zero_profile(self):
        series = error_integral_form(uniform_profile(np.zeros(61)), 20.0)
        assert np.all(series == 0.0)
        assert series[0] == 0.0

    def test_constant_profile_reaches_steady_lag(self):
        prof = uniform_profile(np.full(201, 5.0))
        series = error_integral_form(prof, 20.0)
        assert series[-1] == pytest.approx(5.0 / 20.0, abs=1e-3)

    def test_matches_lag_ode_on_polynomial_profile(self):
        # Trapezoid weighting of the convolution carries a quadrature
        # error of about dt^2 lam^2 / 12 relative to the true lag ODE,
        # which is 1.8e-3 here; the general second-order bound below is
        # 10 dt^2 max|v| = 1.04e-2.
        t = np.linspace(0.0, 1.0, 61)
        prof = VelocityProfile(t, 15 * t - 15 * t**2)
        series = error_integral_form(prof, 20.0)
        oracle = rk4_lag_at_knots(t, prof.values, 20.0)
        deviation = np.max(np.abs(series - oracle))
        assert deviation < 10.0 * prof.dt**2 * np.max(np.abs(prof.values))
        assert deviation < 2e-3

    def test_matches_lag_ode_on_random_profiles(self):
        rng = np.random.default_rng(12)
        t = np.linspace(0.0, 1.0, 61)
        dt = t[1] - t[0]
        for lam in (10.0, 20.0, 30.0, 50.0):
            profiles = np.array([
                rng.uniform(-3, 3) + sum(
                    rng.uniform(-4, 4) * np.sin(2 * np.pi * rng.uniform(0.5, 3) * t + rng.uniform(0, 2 * np.pi))
                    for _ in range(4)
                )
                for _ in range(20)
            ])
            for v, oracle in zip(profiles, rk4_lag_at_knots(t, profiles, lam)):
                series = error_integral_form(VelocityProfile(t, v), lam)
                bound = 10.0 * dt**2 * np.max(np.abs(v))
                assert np.max(np.abs(series - oracle)) < bound

    def test_linear_in_profile(self):
        rng = np.random.default_rng(21)
        t = np.linspace(0.0, 1.0, 41)
        v1 = rng.normal(size=41)
        v2 = rng.normal(size=41)
        alpha, beta = 1.7, -0.3
        combined = error_integral_form(
            VelocityProfile(t, alpha * v1 + beta * v2), 20.0
        )
        parts = alpha * error_integral_form(VelocityProfile(t, v1), 20.0)
        parts += beta * error_integral_form(VelocityProfile(t, v2), 20.0)
        scale = np.max(np.abs(parts))
        assert np.max(np.abs(combined - parts)) <= 1e-12 * max(scale, 1.0)

    def test_causal(self):
        rng = np.random.default_rng(30)
        t = np.linspace(0.0, 1.0, 61)
        v = rng.normal(size=61)
        full = error_integral_form(VelocityProfile(t, v), 20.0)
        cut = 40
        truncated = error_integral_form(
            VelocityProfile(t[: cut + 1], v[: cut + 1]), 20.0
        )
        assert np.array_equal(truncated, full[: cut + 1])

    def test_rejects_bad_inputs(self):
        prof = uniform_profile(np.ones(10))
        with pytest.raises(ValueError):
            error_integral_form(prof, 0.0)
        with pytest.raises(ValueError):
            error_integral_form(prof, -3.0)
        with pytest.raises(ValueError):
            error_integral_form(
                VelocityProfile(np.array([0.0]), np.array([1.0])), 20.0
            )


class TestLagResponseMatrix:
    def test_structure(self):
        t = np.linspace(0.0, 1.0, 9)
        L = lag_response_matrix(t, 20.0)
        assert np.all(L[0, :] == 0.0)
        assert np.allclose(L, np.tril(L))

    def test_matches_direct_formula(self):
        t = np.linspace(0.0, 1.0, 6)
        dt = t[1] - t[0]
        lam = 3.0
        L = lag_response_matrix(t, lam)
        for k in range(1, 6):
            w = np.ones(k + 1)
            w[0] = w[-1] = 0.5
            row = np.exp(-lam * t[k]) * np.exp(lam * t[: k + 1]) * w * dt
            assert L[k, : k + 1] == pytest.approx(row, rel=1e-12)


class TestDiscreteLimitForm:
    def test_zero_profile(self):
        assert error_discrete_limit_form(uniform_profile(np.zeros(61)), 20.0, 100) == 0.0

    def test_constant_profile_converges_to_lag_solution(self):
        prof = uniform_profile(np.full(61, 5.0))
        value = error_discrete_limit_form(prof, 20.0, 10**5)
        exact = 5.0 / 20.0 * -math.expm1(-20.0)
        assert value == pytest.approx(exact, abs=1e-4)
        assert value == pytest.approx(0.25, abs=1e-3)

    def test_cauchy_convergence(self):
        prof = uniform_profile(np.full(61, 5.0))
        a = error_discrete_limit_form(prof, 20.0, 10**5)
        b = error_discrete_limit_form(prof, 20.0, 10**6)
        assert abs(a - b) < 1e-4

    def test_rejects_bad_inputs(self):
        prof = uniform_profile(np.ones(10))
        with pytest.raises(ValueError):
            error_discrete_limit_form(prof, -20.0, 10)
        with pytest.raises(ValueError):
            error_discrete_limit_form(prof, 20.0, 0)


class TestSumDiscretization:
    def test_zero_profile(self):
        assert error_sum_discretization(uniform_profile(np.zeros(61)), 20.0, 50) == 0.0

    def test_single_term_is_exact(self):
        # one term: e = v(t) exp(-lam (t - t)) t, no decay applied
        prof = uniform_profile(np.full(61, 5.0))
        assert error_sum_discretization(prof, 20.0, 1) == 5.0

    def test_large_n_agrees_with_integral_form(self):
        prof = uniform_profile(np.full(1001, 5.0))
        series = error_integral_form(prof, 20.0)
        value = error_sum_discretization(prof, 20.0, 10**5)
        assert abs(value - series[-1]) < 1e-3

    def test_rejects_bad_inputs(self):
        prof = uniform_profile(np.ones(10))
        with pytest.raises(ValueError):
            error_sum_discretization(prof, 0.0, 10)
        with pytest.raises(ValueError):
            error_sum_discretization(prof, 20.0, -1)

