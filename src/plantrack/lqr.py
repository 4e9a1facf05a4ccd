"""Altitude LQR synthesis by pole placement on the double integrator.

The altitude loop is y_ddot = (u1 + u2)/M - g with full state feedback
on the reference position only (no feed-forward):
u1 + u2 = -k1 y - k2 y_dot + N1 r + M g.  Prescribing the two
closed-loop eigenvalues fixes (k1, k2), and N1 = k1 gives zero
steady-state error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams


@dataclass(frozen=True)
class EigenvaluePair:
    """Prescribed closed-loop poles, real, strictly negative and distinct.

    A repeated pair is rejected: the estimator needs a distinct real
    dominant pole.
    """

    lambda_fast: float
    lambda_slow: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda_fast) and math.isfinite(self.lambda_slow)):
            raise ValueError("eigenvalues must be finite")
        if self.lambda_fast >= 0 or self.lambda_slow >= 0:
            raise ValueError("both eigenvalues must be strictly negative")
        if abs(self.lambda_slow) > abs(self.lambda_fast):
            raise ValueError("lambda_slow must not exceed lambda_fast in magnitude")
        if self.lambda_fast == self.lambda_slow:
            raise ValueError("repeated eigenvalue pair is not supported")

    def as_tuple(self) -> tuple[float, float]:
        """(slow, fast), the order the experiment tables use."""
        return self.lambda_slow, self.lambda_fast


@dataclass(frozen=True)
class ControllerSpec:
    """Gains of one altitude controller."""

    pair: EigenvaluePair
    k1: float
    k2: float

    def __post_init__(self):
        if not (0 < self.k1 < math.inf and 0 < self.k2 < math.inf):
            raise ValueError("gains must be positive and finite for a stable pair")

    @property
    def n1(self) -> float:
        """Reference gain; n1 = k1 is the zero steady-state condition."""
        return self.k1

    @property
    def dominant_lambda(self) -> float:
        """Magnitude of the slow pole, a positive decay rate.

        The error estimator approximates the second-order loop by a
        first-order lag with this rate.
        """
        return abs(self.pair.lambda_slow)


def design_controller(pair: EigenvaluePair, params: ModelParams) -> ControllerSpec:
    """Place the closed-loop poles of the altitude double integrator.

    The characteristic polynomial s^2 + (k2/M) s + k1/M must equal
    (s - l1)(s - l2), so k1 = M l1 l2 and k2 = -M (l1 + l2).
    """
    l1, l2 = pair.lambda_slow, pair.lambda_fast
    k1 = params.mass * l1 * l2
    k2 = -params.mass * (l1 + l2)
    return ControllerSpec(pair=pair, k1=k1, k2=k2)


def control_law(spec: ControllerSpec, y, y_dot, reference, params: ModelParams):
    """Total thrust command for the altitude loop; the trim cancels gravity.

    The arguments may be floats or numpy arrays of one shape; an array
    gives, element by element, the bits the float call gives.
    """
    return -spec.k1 * y - spec.k2 * y_dot + spec.n1 * reference + params.hover_thrust
