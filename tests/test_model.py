import numpy as np
import pytest

from plantrack.model import ModelParams, nonlinear_derivative


def test_default_params_match_reference_vehicle(params):
    assert params.mass == 0.54
    assert params.arm_length == 0.12164
    assert params.gravity == 9.81


@pytest.mark.parametrize("field", ["mass", "arm_length", "gravity"])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_params_must_be_positive(field, bad):
    values = {"mass": 0.54, "arm_length": 0.12164, "gravity": 9.81}
    values[field] = bad
    with pytest.raises(ValueError):
        ModelParams(**values)


def test_hover_trim_gives_zero_accelerations(params):
    half = params.hover_thrust / 2.0
    x_ddot, y_ddot, q_ddot = nonlinear_derivative(0.0, half, half, params)
    assert x_ddot == 0.0
    assert y_ddot == pytest.approx(0.0, abs=1e-15)
    assert q_ddot == 0.0
    assert half == pytest.approx(2.6487, abs=1e-4)


def test_free_fall(params):
    assert nonlinear_derivative(0.0, 0.0, 0.0, params) == (0.0, -9.81, 0.0)


def test_single_rotor_torque(params):
    _, _, q_ddot = nonlinear_derivative(0.0, 0.0, 1.0, params)
    expected = 1.0 / (0.54 * 0.12164)
    assert q_ddot == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(15.224, abs=1e-3)


def test_linearization_exact_at_zero_pitch(params):
    # y_ddot = (u1 + u2)/M - g, the channel the planner and the altitude
    # loop rely on.
    rng = np.random.default_rng(7)
    for _ in range(25):
        u1, u2 = rng.uniform(0.0, 10.0, 2)
        _, y_ddot, _ = nonlinear_derivative(0.0, u1, u2, params)
        assert y_ddot == pytest.approx((u1 + u2) / params.mass - 9.81, abs=1e-15)
    _, y_ddot, _ = nonlinear_derivative(0.0, params.hover_thrust, params.hover_thrust, params)
    assert y_ddot == pytest.approx(9.81, abs=1e-12)


def test_altitude_insensitive_to_pitch_at_trim(params):
    # centered difference of y_ddot w.r.t. q at q = 0 for equal thrusts
    half = params.hover_thrust / 2.0
    eps = 1e-5
    _, plus, _ = nonlinear_derivative(eps, half, half, params)
    _, minus, _ = nonlinear_derivative(-eps, half, half, params)
    assert abs((plus - minus) / (2 * eps)) < 1e-6


def test_thrust_swap_negates_torque_only(params):
    rng = np.random.default_rng(11)
    for _ in range(25):
        q = rng.uniform(-1.0, 1.0)
        u1, u2 = rng.uniform(0.0, 8.0, 2)
        x_ddot, y_ddot, q_ddot = nonlinear_derivative(q, u1, u2, params)
        swapped = nonlinear_derivative(q, u2, u1, params)
        assert swapped[2] == pytest.approx(-q_ddot, rel=1e-12, abs=1e-15)
        assert swapped[:2] == (x_ddot, y_ddot)


@pytest.mark.parametrize("q", [0.0, -0.0, 0.3, -1.2])
def test_thrust_arrays_give_the_float_bits(params, q):
    # simulate rebuilds a whole flight's accelerations in one call.
    rng = np.random.default_rng(13)
    u1 = np.concatenate([rng.uniform(-10.0, 10.0, 40), [0.0, -0.0, 2.6487]])
    u2 = np.concatenate([rng.uniform(-10.0, 10.0, 40), [-0.0, 0.0, 2.6487]])
    arrays = nonlinear_derivative(q, u1, u2, params)
    for k in range(u1.size):
        floats = nonlinear_derivative(q, float(u1[k]), float(u2[k]), params)
        for array, value in zip(arrays, floats):
            assert array[k].tobytes() == np.float64(value).tobytes()
