"""Seeded workloads: the INI each workload's program run receives.

Seed 0 reproduces the configurations the workloads are named after:

- default_sweep and parallel_sweep: the built-in config (four pairs, a
  5 m climb within [0, 5], 31 design weights);
- bounded_sweep: ``[plan] segments=120, y0=0, v0=30, yf=0`` with pairs
  ``-10,-100; -20,-200`` (the toss is clamped by y_max = 5);
- plan_track_cli: the built-in config; every pair is planned at the
  15th grid weight and the stiffness refit reads the stored -10,-100
  frontier.

Any other seed draws, from ``random.Random(seed)``:

- a climb scale s, uniform in [0.5, 1.0).  The scaled keys of the
  workload (yf and y_max, or v0 and y_max for bounded_sweep) are
  multiplied by s.  The design QP and the altitude loop are linear in
  that data and the box scales with it, so every cost and error
  integral scales by s**2 up to rounding and the stored seed-0
  reference still checks the outputs.  Knots, RK4 steps and active-set
  iterations do not change, so neither does the work;
- the order of the controller pairs in the INI;
- plan_track_cli only: each pair's design weight, as an index from 1
  to 30 into the 31-point grid, and the stored frontier the stiffness
  refit reads.

Run ``python3 perfbench/workloads.py <workload> <seed>`` to print an INI.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DEFAULT_PAIRS = ((-10.0, -100.0), (-20.0, -200.0), (-30.0, -300.0), (-50.0, -500.0))
GRID_SIZE = 31  # {0} plus the 30 spaced weights of the built-in [mu_grid]
SEED0_MU_INDEX = 15


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sweep" or "plan_track"
    workers: int
    pairs: tuple[tuple[float, float], ...]
    plan: tuple[tuple[str, float], ...]  # [plan] keys written at seed 0
    scaled: tuple[str, ...]  # [plan] keys multiplied by the seed's scale
    reference: str  # subdirectory of reference/ holding the seed-0 sweep


# The reason for each workload is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "default_sweep",
            "sweep", 1, DEFAULT_PAIRS,
            (("yf", 5.0), ("y_max", 5.0)), ("yf", "y_max"), "default",
        ),
        Workload(
            "bounded_sweep",
            "sweep", 1, DEFAULT_PAIRS[:2],
            (("segments", 120), ("y0", 0.0), ("v0", 30.0), ("yf", 0.0), ("y_max", 5.0)),
            ("v0", "y_max"), "bounded",
        ),
        Workload(
            "plan_track_cli",
            "plan_track", 1, DEFAULT_PAIRS,
            (("yf", 5.0), ("y_max", 5.0)), ("yf", "y_max"), "default",
        ),
        Workload(
            "parallel_sweep",
            "sweep", 2, DEFAULT_PAIRS,
            (("yf", 5.0), ("y_max", 5.0)), ("yf", "y_max"), "default",
        ),
    )
}


def pair_slug(pair: tuple[float, float]) -> str:
    """File-name label of a pair, as the CLI writes it."""
    slow, fast = pair
    return f"{-slow:g}_{-fast:g}".replace(".", "p").replace("+", "")


def pair_flag(pair: tuple[float, float]) -> str:
    return f"{pair[0]:g},{pair[1]:g}"


@dataclass(frozen=True)
class Instance:
    """One workload's inputs, drawn from a seed."""

    workload: Workload
    seed: int
    scale: float
    pairs: tuple[tuple[float, float], ...]  # in INI order
    mu_index: tuple[int, ...]  # plan_track: grid index per pair, in INI order
    stiffness_pair: tuple[float, float] | None

    @property
    def grid_points(self) -> int:
        if self.workload.command == "sweep":
            return len(self.pairs) * GRID_SIZE
        return len(self.pairs)

    def plan_values(self) -> dict[str, float]:
        return {
            key: value * self.scale if key in self.workload.scaled else value
            for key, value in self.workload.plan
        }

    def ini_text(self) -> str:
        pairs = "; ".join(f"{s!r},{f!r}" for s, f in self.pairs)
        lines = [
            f"# {self.workload.name}, seed {self.seed}, scale {self.scale!r}",
            "[controllers]",
            f"pairs = {pairs}",
            "[plan]",
        ]
        lines += [f"{key} = {value!r}" for key, value in self.plan_values().items()]
        return "\n".join(lines) + "\n"

    def jobs(self) -> list[tuple[tuple[float, float], int]]:
        """(pair, grid index) of every plan+track point one sequence runs.

        Pairs alternate, so a slowdown of the machine for a second or two
        spreads over all pairs instead of hitting one pair's points.
        """
        if self.workload.command == "sweep":
            return [(p, i) for i in range(GRID_SIZE) for p in self.pairs]
        return list(zip(self.pairs, self.mu_index))


def make_instance(name: str, seed: int) -> Instance:
    workload = WORKLOADS[name]
    if seed == 0:
        scale, pairs = 1.0, workload.pairs
        mu_index = (SEED0_MU_INDEX,) * len(pairs)
        stiffness = workload.pairs[0]
    else:
        rng = random.Random(seed)
        scale = rng.uniform(0.5, 1.0)
        pairs = tuple(rng.sample(workload.pairs, len(workload.pairs)))
        mu_index = tuple(rng.randint(1, GRID_SIZE - 1) for _ in pairs)
        stiffness = rng.choice(workload.pairs)
    if workload.command != "plan_track":
        mu_index, stiffness = (), None
    return Instance(workload, seed, scale, pairs, mu_index, stiffness)


if __name__ == "__main__":
    sys.stdout.write(make_instance(sys.argv[1], int(sys.argv[2])).ini_text())
