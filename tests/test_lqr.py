import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from plantrack.lqr import (
    ControllerSpec,
    EigenvaluePair,
    control_law,
    design_controller,
)


def closed_loop_matrix(spec, params):
    m = params.mass
    return np.array([[0.0, 1.0], [-spec.k1 / m, -spec.k2 / m]])


def test_pair_validation():
    with pytest.raises(ValueError):
        EigenvaluePair(lambda_fast=10.0, lambda_slow=-1.0)
    with pytest.raises(ValueError):
        EigenvaluePair(lambda_fast=-1.0, lambda_slow=-10.0)
    with pytest.raises(ValueError):
        EigenvaluePair(lambda_fast=float("nan"), lambda_slow=-1.0)


def test_from_poles_sorts_by_magnitude():
    pair = EigenvaluePair.from_poles(-100.0, -10.0)
    assert pair.lambda_slow == -10.0
    assert pair.lambda_fast == -100.0
    assert pair.as_tuple() == (-10.0, -100.0)


def test_gains_for_reference_pairs(params):
    spec = design_controller(
        EigenvaluePair(lambda_slow=-10.0, lambda_fast=-100.0), params
    )
    assert spec.k1 == pytest.approx(540.0, rel=1e-12)
    assert spec.k2 == pytest.approx(59.4, rel=1e-12)
    assert spec.n1 == spec.k1
    assert spec.dominant_lambda == 10.0

    spec = design_controller(
        EigenvaluePair(lambda_slow=-20.0, lambda_fast=-200.0), params
    )
    assert spec.k1 == pytest.approx(2160.0, rel=1e-12)
    assert spec.k2 == pytest.approx(118.8, rel=1e-12)


def test_pole_placement_round_trip(params, paper_pairs):
    rng = np.random.default_rng(3)
    extra = []
    for _ in range(10):
        slow = -rng.uniform(1.0, 40.0)
        fast = slow * rng.uniform(1.5, 20.0)
        extra.append(EigenvaluePair(lambda_slow=slow, lambda_fast=fast))
    for pair in paper_pairs + extra:
        spec = design_controller(pair, params)
        eigs = np.sort(np.linalg.eigvals(closed_loop_matrix(spec, params)))
        requested = np.sort([pair.lambda_slow, pair.lambda_fast])
        assert np.allclose(eigs.imag, 0.0, atol=1e-9)
        assert eigs.real == pytest.approx(requested, rel=1e-9)


def test_repeated_pair_rejected(params):
    with pytest.raises(ValueError):
        design_controller(EigenvaluePair(lambda_fast=-1.0, lambda_slow=-1.0), params)


def test_dominant_lambda_is_slow_pole_magnitude(params, paper_pairs):
    specs = [design_controller(p, params) for p in paper_pairs]
    assert [s.dominant_lambda for s in specs] == [10.0, 20.0, 30.0, 50.0]


def test_controller_spec_holds_the_gains_only(params):
    pair = EigenvaluePair(lambda_slow=-10.0, lambda_fast=-100.0)
    spec = ControllerSpec(pair=pair, k1=540.0, k2=59.4)
    assert (spec.n1, spec.dominant_lambda) == (540.0, 10.0)
    assert [f.name for f in dataclasses.fields(spec)] == ["pair", "k1", "k2"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.n1 = 0.0
    for k1, k2 in ((0.0, 59.4), (540.0, -1.0)):
        with pytest.raises(ValueError):
            ControllerSpec(pair=pair, k1=k1, k2=k2)


def test_control_law_values(params):
    spec = design_controller(
        EigenvaluePair(lambda_slow=-10.0, lambda_fast=-100.0), params
    )
    trim = params.mass * params.gravity
    assert control_law(spec, 2.0, 0.0, 2.0, params) == pytest.approx(trim, rel=1e-12)
    assert control_law(spec, 5.0, 0.0, 5.0, params) == pytest.approx(trim, rel=1e-12)
    assert control_law(spec, 0.0, 0.0, 5.0, params) == pytest.approx(
        540.0 * 5 + trim, rel=1e-12
    )
    assert 540.0 * 5 + trim == pytest.approx(2705.2974, abs=1e-4)


def test_control_law_is_affine(params):
    spec = design_controller(
        EigenvaluePair(lambda_slow=-20.0, lambda_fast=-200.0), params
    )
    rng = np.random.default_rng(5)
    base = control_law(spec, 0.0, 0.0, 0.0, params)
    for _ in range(50):
        s1 = rng.uniform(-5, 5, 3)
        s2 = rng.uniform(-5, 5, 3)
        combined = control_law(spec, *(s1 + s2), params)
        sum_of_parts = (
            control_law(spec, *s1, params) + control_law(spec, *s2, params) - base
        )
        assert combined == pytest.approx(sum_of_parts, rel=1e-9, abs=1e-9)


def test_control_law_arrays_give_the_float_bits(params, paper_pairs):
    # simulate rebuilds a whole flight's thrust in one call.
    rng = np.random.default_rng(6)
    y, y_dot, reference = rng.uniform(-6.0, 6.0, (3, 40))
    y[:2] = y_dot[:2] = reference[:2] = (0.0, -0.0)
    for pair in paper_pairs:
        spec = design_controller(pair, params)
        thrust = control_law(spec, y, y_dot, reference, params)
        for k in range(y.size):
            value = control_law(spec, float(y[k]), float(y_dot[k]), float(reference[k]), params)
            assert thrust[k].tobytes() == np.float64(value).tobytes()


def test_zero_steady_state_for_stable_pairs(params, paper_pairs):
    # Exact affine closed-loop response from rest to a constant
    # reference, x(T) = exp(A T) x0 + A^-1 (exp(A T) - I) c, run for
    # 20 / dominant_lambda seconds.  No equilibrium is presumed.
    rng = np.random.default_rng(9)
    extra = [
        EigenvaluePair.from_poles(-rng.uniform(2, 30), -rng.uniform(40, 400))
        for _ in range(5)
    ]
    for pair in paper_pairs + extra:
        spec = design_controller(pair, params)
        r = 5.0
        a_cl = closed_loop_matrix(spec, params)
        thrust_accel = (spec.n1 * r + params.mass * params.gravity) / params.mass
        forcing = np.array([0.0, thrust_accel - params.gravity])
        horizon = 20.0 / spec.dominant_lambda
        transition = expm(a_cl * horizon)
        final = np.linalg.solve(a_cl, (transition - np.eye(2)) @ forcing)
        assert abs(final[0] - r) < 1e-6 * max(1.0, abs(r))
