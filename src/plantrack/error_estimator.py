"""Predicted dynamic state error of a first-order-equivalent tracking loop.

A feedback loop without feed-forward lags a moving reference.  Near its
dominant pole the loop behaves like the first-order lag

    e_dot = v_ref(t) - lam * e,   e(0) = 0,

whose solution e(t) = exp(-lam t) * integral(v_ref(tau) exp(+lam tau))
is what the planner penalizes.  This module provides that integral form
on a uniform knot grid as a matrix, ``lag_response_matrix``, applied by
``apply_lag``.  It is the one home of a uniform grid's spacing and of
the trapezoid integral, which reads that spacing from its grid.  The
finite-n forms whose limit it is, and the checked velocity profile they
take, are test oracles in ``tests/oracles.py``.

lam is the positive decay rate of the equivalent lag; the lag operator
also takes lam = 0, where it is the plain trapezoid chain.
"""

from __future__ import annotations

import numpy as np


def _spacing(times: np.ndarray) -> float:
    """Spacing of a uniform grid, unchecked: its span over its intervals."""
    return (times[-1] - times[0]) / (times.size - 1)


def _uniform_spacing(times: np.ndarray) -> float:
    """Spacing of a uniform grid, rejecting anything non-uniform."""
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least 2 samples")
    deltas = np.diff(times)
    if np.any(deltas <= 0):
        raise ValueError("times must be strictly increasing")
    dt = _spacing(times)
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


def _trapezoid(times: np.ndarray, values: np.ndarray) -> float:
    """Trapezoid integral of samples on a uniform grid, unchecked."""
    return float(np.dot(trapezoid_weights(values.size), values) * _spacing(times))


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
