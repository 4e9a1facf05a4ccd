"""Planar quadrotor model: physical parameters and dynamics.

The vehicle is a rigid body in the vertical plane driven by two rotor
thrusts u1, u2.  The altitude channel is exactly linear at zero pitch,
which is what the planner and the altitude controller rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the planar quadrotor (SI units)."""

    mass: float = 0.54
    arm_length: float = 0.12164
    gravity: float = 9.81

    def __post_init__(self):
        if not (self.mass > 0 and self.arm_length > 0 and self.gravity > 0):
            raise ValueError("mass, arm_length and gravity must be strictly positive")

    @property
    def hover_thrust(self) -> float:
        """Total thrust that cancels gravity."""
        return self.mass * self.gravity


def nonlinear_derivative(q, u1, u2, params: ModelParams):
    """Rigid-body accelerations (x_ddot, y_ddot, q_ddot) of the planar quadrotor.

    x_ddot = -(1/M) sin(q) (u1 + u2)
    y_ddot =  (1/M) cos(q) (u1 + u2) - g
    q_ddot =  (1/(M d)) (u2 - u1)

    q is a float; the thrusts may be floats or numpy arrays, and an
    array gives, element by element, the bits the float call gives.
    """
    total = u1 + u2
    return (
        -math.sin(q) * total / params.mass,
        math.cos(q) * total / params.mass - params.gravity,
        (u2 - u1) / (params.mass * params.arm_length),
    )
