"""Predicted dynamic state error of a first-order-equivalent tracking loop.

A feedback loop without feed-forward lags a moving reference.  Near its
dominant pole the loop behaves like the first-order lag

    e_dot = v_ref(t) - lam * e,   e(0) = 0,

whose solution e(t) = exp(-lam t) * integral(v_ref(tau) exp(+lam tau))
is what the planner penalizes.  This module provides that integral form
on a uniform knot grid, the two discrete forms used for comparison, and
the trapezoid quadrature operator shared by the rest of the pipeline.

lam is the positive decay rate of the equivalent lag; the lag operator
also takes lam = 0, where it is the plain trapezoid chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _uniform_spacing(times: np.ndarray) -> float:
    """Spacing of a uniform grid, rejecting anything non-uniform."""
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least 2 samples")
    deltas = np.diff(times)
    if np.any(deltas <= 0):
        raise ValueError("times must be strictly increasing")
    dt = (times[-1] - times[0]) / (times.size - 1)
    if np.max(np.abs(deltas - dt)) > 1e-12 * max(dt, 1.0):
        raise ValueError("grid is not uniform")
    return float(dt)


def trapezoid_weights(n: int) -> np.ndarray:
    """Composite trapezoid weight row (1/2, 1, ..., 1, 1/2) of length n."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _trapezoid(values: np.ndarray, dt: float) -> float:
    """Trapezoid integral of samples spaced dt apart, unchecked.

    For grids the caller built itself.  dt must be the spacing
    trapezoid_quadrature would use, (t[-1] - t[0]) / (n - 1), for the
    same bits: a grid built as arange(k + 1) * step does not always give
    back step.
    """
    return float(np.dot(trapezoid_weights(values.size), values) * dt)


def trapezoid_quadrature(times: np.ndarray, values: np.ndarray) -> float:
    """Integrate samples on a uniform grid with the trapezoid weight row."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != times.shape:
        raise ValueError("times and values must have matching shape")
    return _trapezoid(values, _uniform_spacing(times))


@dataclass(frozen=True)
class VelocityProfile:
    """Reference velocity sampled on a uniform grid starting at t = 0.

    Between knots the profile is the piecewise-linear interpolant; the
    finite-n forms sample it off-grid that way.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.shape != values.shape:
            raise ValueError("times and values must have matching shape")
        if times.size and times[0] != 0.0:
            raise ValueError("profile must start at t = 0")
        _uniform_spacing(times)

    @property
    def dt(self) -> float:
        return _uniform_spacing(self.times)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def sample(self, t: np.ndarray) -> np.ndarray:
        return np.interp(t, self.times, self.values)


def lag_response_matrix(times: np.ndarray, lam: float) -> np.ndarray:
    """Lower-triangular map L with e = L v on a uniform grid.

    Row k is the trapezoid discretization of
    exp(-lam t_k) * integral_0^{t_k} v(tau) exp(+lam tau) dtau, written
    with the exponent exp(-lam (t_k - t_i)) so no large intermediate is
    formed.  Row 0 is zero (empty integration range).  lam = 0 gives the
    trapezoid chain itself, v_k - v_0 = (L a)_k for the rates a.

    The planner builds the matrix once per cached design, for its lam
    and for lam = 0, and shares it across a mu sweep.
    """
    times = np.asarray(times, dtype=float)
    if lam < 0:
        raise ValueError("lam must be a nonnegative decay rate")
    dt = _uniform_spacing(times)
    n = times.size
    # In place: at a thousand knots each n x n temporary costs as much
    # as the exponentials.  Clamping the gaps above the diagonal to 0
    # keeps exp finite there before those entries are zeroed.
    L = np.subtract.outer(times, times)
    np.maximum(L, 0.0, out=L)
    L *= -lam
    np.exp(L, out=L)
    for k in range(n - 1):
        L[k, k + 1 :] = 0.0
    L[:, 0] *= 0.5
    L[np.arange(n), np.arange(n)] *= 0.5
    L *= dt
    L[0, :] = 0.0
    return L


def apply_lag(L: np.ndarray, values: np.ndarray) -> np.ndarray:
    """e = L v, each knot summed over exactly its causal slice.

    Truncating v after t_k therefore reproduces e(t_0..t_k) bit for bit;
    a full matrix product would regroup the trailing zero terms and
    perturb the last ulp.
    """
    e = np.empty(values.size)
    e[0] = 0.0
    for k in range(1, values.size):
        e[k] = np.dot(L[k, : k + 1], values[: k + 1])
    return e


def error_integral_form(profile: VelocityProfile, lam: float) -> np.ndarray:
    """Predicted error e(t_k) at every knot via the integral (quadrature)
    form; e(0) is 0."""
    if lam <= 0:
        raise ValueError("lam must be a positive decay rate")
    return apply_lag(lag_response_matrix(profile.times, lam), profile.values)


def error_discrete_limit_form(profile: VelocityProfile, lam: float, n: int) -> float:
    """Finite-n estimate of the error at the profile's final time.

    e(t, n) = (t/n) * sum_{i=1..n} v_ref((t/n) i) * (1 - p)^(n+1-i)
    with p = 1 - exp(-lam t / n).  The sum converges to the integral
    form as n grows.
    """
    if lam <= 0:
        raise ValueError("lam must be a positive decay rate")
    if n < 1:
        raise ValueError("n must be at least 1")
    t = profile.horizon
    step = t / n
    p = -math.expm1(-lam * step)
    i = np.arange(1, n + 1)
    samples = profile.sample(step * i)
    weights = (1.0 - p) ** (n + 1.0 - i)
    return float(step * np.dot(samples, weights))


def error_sum_discretization(profile: VelocityProfile, lam: float, n: int) -> float:
    """Riemann-sum discretization of the integral form at the final time.

    e(t, n) = exp(-lam t) * sum_{i=1..n} v_ref((t/n) i) exp(+lam (t/n) i) (t/n),
    evaluated with combined exponents.  Kept for comparison with the
    finite-n form above; the two agree only in the n -> infinity limit.
    """
    if lam <= 0:
        raise ValueError("lam must be a positive decay rate")
    if n < 1:
        raise ValueError("n must be at least 1")
    t = profile.horizon
    step = t / n
    tau = step * np.arange(1, n + 1)
    samples = profile.sample(tau)
    return float(step * np.dot(samples, np.exp(-lam * (t - tau))))
