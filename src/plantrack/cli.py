"""Command-line pipeline: plan, track, sweep, stiffness.

All numeric behavior lives in the library modules; this module loads
the run configuration, wires the stages together, and writes the CSV
and JSON artifacts.  Outputs are deterministic functions of the config:
CSV floats use 17 significant digits, JSON keys are sorted, and the run
manifest stores content checksums rather than timestamps, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import collocation_planner as planner
from . import frontier as frontier_mod
from . import tracking_sim as sim
from .lqr import EigenvaluePair, design_controller
from .model import ModelParams

_PAPER_PAIRS = (
    (-10.0, -100.0),
    (-20.0, -200.0),
    (-30.0, -300.0),
    (-50.0, -500.0),
)


class ConfigError(ValueError):
    """Run configuration failed to parse or validate."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; the defaults are the reference setup:
    0.54 kg / 0.12164 m / 9.81 m/s^2 vehicle, 1 s horizon, 60 segments,
    a 5 m climb within [0, 5] bounds, the four standard eigenvalue
    pairs, and a 31-point mu grid ({0} plus 30 log-spaced weights)."""

    params: ModelParams = field(default_factory=ModelParams)
    pairs: tuple[EigenvaluePair, ...] = tuple(
        EigenvaluePair(lambda_slow=s, lambda_fast=f) for s, f in _PAPER_PAIRS
    )
    horizon: float = 1.0
    segments: int = 60
    y0: float = 0.0
    v0: float = 0.0
    yf: float = 5.0
    y_min: float = 0.0
    y_max: float = 5.0
    enforce_initial_accel_zero: bool = False
    mu_count: int = 30
    mu_min: float = 0.1
    mu_max: float = 1e6
    mu_scale: str = "log"
    max_step: float = 1e-3
    pole_fraction: float = 0.2
    out_dir: str = "out"

    def __post_init__(self):
        if not self.pairs:
            raise ConfigError("controller pair list is empty")
        if self.mu_scale not in ("log", "linear"):
            raise ConfigError("mu scale must be 'log' or 'linear'")
        if self.mu_count < 1:
            raise ConfigError("mu grid count must be at least 1")
        if self.mu_min <= 0 and self.mu_scale == "log":
            raise ConfigError("log mu grid needs mu_min > 0")
        if self.mu_min > self.mu_max:
            raise ConfigError("mu_min must not exceed mu_max")
        if self.max_step <= 0 or self.pole_fraction <= 0:
            raise ConfigError("step rule fields must be positive")

    def mu_grid(self) -> list[float]:
        """{0} followed by mu_count spaced weights from mu_min to mu_max."""
        if self.mu_count == 1:
            spaced = [self.mu_min]
        elif self.mu_scale == "log":
            ratio = (self.mu_max / self.mu_min) ** (1.0 / (self.mu_count - 1))
            spaced = [self.mu_min * ratio**i for i in range(self.mu_count)]
        else:
            gap = (self.mu_max - self.mu_min) / (self.mu_count - 1)
            spaced = [self.mu_min + gap * i for i in range(self.mu_count)]
        return [0.0] + spaced

    def problem_template(self) -> planner.PlanProblem:
        return planner.PlanProblem(
            horizon=self.horizon,
            segments=self.segments,
            y0=self.y0,
            v0=self.v0,
            yf=self.yf,
            y_bounds=(self.y_min, self.y_max),
            mu=0.0,
            dominant_lambda=-self.pairs[0].lambda_slow,
            params=self.params,
            enforce_initial_accel_zero=self.enforce_initial_accel_zero,
        )

    def step_for(self, controller) -> float:
        return sim.select_step(
            controller,
            self.horizon,
            max_step=self.max_step,
            pole_fraction=self.pole_fraction,
        )

    def find_pair(self, pair: EigenvaluePair) -> EigenvaluePair | None:
        for candidate in self.pairs:
            if candidate == pair:
                return candidate
        return None

    def canonical_text(self) -> str:
        """Stable key = value rendering used for the config checksum."""
        lines = [
            f"model.mass = {self.params.mass!r}",
            f"model.arm_length = {self.params.arm_length!r}",
            f"model.gravity = {self.params.gravity!r}",
            "controllers.pairs = "
            + "; ".join(f"{p.lambda_slow!r},{p.lambda_fast!r}" for p in self.pairs),
            f"plan.horizon = {self.horizon!r}",
            f"plan.segments = {self.segments!r}",
            f"plan.y0 = {self.y0!r}",
            f"plan.v0 = {self.v0!r}",
            f"plan.yf = {self.yf!r}",
            f"plan.y_min = {self.y_min!r}",
            f"plan.y_max = {self.y_max!r}",
            f"plan.enforce_initial_accel_zero = {self.enforce_initial_accel_zero!r}",
            f"mu_grid.count = {self.mu_count!r}",
            f"mu_grid.min = {self.mu_min!r}",
            f"mu_grid.max = {self.mu_max!r}",
            f"mu_grid.scale = {self.mu_scale}",
            f"sim.max_step = {self.max_step!r}",
            f"sim.pole_fraction = {self.pole_fraction!r}",
            f"output.directory = {self.out_dir}",
        ]
        return "\n".join(lines) + "\n"


_SCHEMA = {
    "model": {"mass", "arm_length", "gravity"},
    "controllers": {"pairs"},
    "plan": {
        "horizon",
        "segments",
        "y0",
        "v0",
        "yf",
        "y_min",
        "y_max",
        "enforce_initial_accel_zero",
    },
    "mu_grid": {"count", "min", "max", "scale"},
    "sim": {"max_step", "pole_fraction"},
    "output": {"directory"},
}


def _parse_pairs(text: str) -> tuple[EigenvaluePair, ...]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"pair {chunk!r} is not 'slow,fast'")
        try:
            slow, fast = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"pair {chunk!r}: {exc}") from exc
        try:
            pairs.append(EigenvaluePair(lambda_slow=slow, lambda_fast=fast))
        except ValueError as exc:
            raise ConfigError(f"pair {chunk!r}: {exc}") from exc
    return tuple(pairs)


def load_config(path: str | None) -> RunConfig:
    """Load and validate an INI config; None gives the defaults."""
    if path is None:
        return RunConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def get(section, key, cast, default):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key)
        try:
            if cast is bool:
                lowered = raw.strip().lower()
                if lowered in ("true", "yes", "on", "1"):
                    return True
                if lowered in ("false", "no", "off", "0"):
                    return False
                raise ValueError(f"not a boolean: {raw!r}")
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    defaults = RunConfig()
    try:
        params = ModelParams(
            mass=get("model", "mass", float, defaults.params.mass),
            arm_length=get("model", "arm_length", float, defaults.params.arm_length),
            gravity=get("model", "gravity", float, defaults.params.gravity),
        )
        pairs = defaults.pairs
        if parser.has_option("controllers", "pairs"):
            pairs = _parse_pairs(parser.get("controllers", "pairs"))
            if not pairs:
                raise ConfigError("controller pair list is empty")
        return RunConfig(
            params=params,
            pairs=pairs,
            horizon=get("plan", "horizon", float, defaults.horizon),
            segments=get("plan", "segments", int, defaults.segments),
            y0=get("plan", "y0", float, defaults.y0),
            v0=get("plan", "v0", float, defaults.v0),
            yf=get("plan", "yf", float, defaults.yf),
            y_min=get("plan", "y_min", float, defaults.y_min),
            y_max=get("plan", "y_max", float, defaults.y_max),
            enforce_initial_accel_zero=get(
                "plan", "enforce_initial_accel_zero", bool,
                defaults.enforce_initial_accel_zero,
            ),
            mu_count=get("mu_grid", "count", int, defaults.mu_count),
            mu_min=get("mu_grid", "min", float, defaults.mu_min),
            mu_max=get("mu_grid", "max", float, defaults.mu_max),
            mu_scale=get("mu_grid", "scale", str, defaults.mu_scale).strip(),
            max_step=get("sim", "max_step", float, defaults.max_step),
            pole_fraction=get("sim", "pole_fraction", float, defaults.pole_fraction),
            out_dir=get("output", "directory", str, defaults.out_dir).strip(),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def _pair_slug(pair: EigenvaluePair) -> str:
    slow, fast = pair.as_tuple()
    return f"{-slow:g}_{-fast:g}".replace(".", "p").replace("+", "")


def _pair_json(pair: EigenvaluePair | None):
    if pair is None:
        return None
    return list(pair.as_tuple())


def _json_float(value: float):
    return None if math.isinf(value) else value


def _write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _parse_pair_flag(raw: str, config: RunConfig, parser) -> EigenvaluePair:
    try:
        candidates = _parse_pairs(raw)
    except ConfigError as exc:
        parser.error(str(exc))
    if len(candidates) != 1:
        parser.error(f"--pair expects one 'slow,fast' pair, got {raw!r}")
    found = config.find_pair(candidates[0])
    if found is None:
        configured = "; ".join(
            f"{p.lambda_slow:g},{p.lambda_fast:g}" for p in config.pairs
        )
        parser.error(
            f"pair {raw!r} is not in the configured set ({configured})"
        )
    return found


def cmd_plan(config: RunConfig, out_dir: Path, mu: float, pair: EigenvaluePair) -> int:
    controller = design_controller(pair, config.params)
    problem = replace(
        config.problem_template(), mu=mu, dominant_lambda=controller.dominant_lambda
    )
    traj = planner.solve(problem)
    out_dir.mkdir(parents=True, exist_ok=True)
    planner.write_trajectory_csv(traj, out_dir / "trajectory.csv")
    _write_json(
        out_dir / "summary.json",
        {
            "mu": mu,
            "eigenpair": _pair_json(pair),
            "designed_cost": traj.designed_cost,
            "predicted_error_integral": traj.predicted_error_integral,
        },
    )
    return 0


def cmd_track(
    config: RunConfig,
    out_dir: Path,
    trajectory_path: str,
    pair: EigenvaluePair,
    mu: float | None,
) -> int:
    traj = planner.read_trajectory_csv(trajectory_path)
    controller = design_controller(pair, config.params)
    step = sim.select_step(
        controller,
        traj.horizon,
        max_step=config.max_step,
        pole_fraction=config.pole_fraction,
    )
    result = sim.simulate(
        sim.SimConfig(
            step=step,
            reference=traj,
            controller=controller,
            params=config.params,
        )
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    sim.write_tracking_csv(result, out_dir / "tracking.csv")
    _write_json(
        out_dir / "score.json",
        {
            "mu": mu,
            "eigenpair": _pair_json(pair),
            "actual_cost": result.actual_cost,
            "actual_error_integral": result.actual_error_integral,
            "designed_cost": traj.designed_cost,
            "predicted_error_integral": traj.predicted_error_integral,
        },
    )
    return 0


def _spring_record(pair: EigenvaluePair | None, fit: frontier_mod.SpringFit) -> dict:
    return {
        "eigenpair": _pair_json(pair),
        "a": fit.a,
        "b": fit.b,
        "k": _json_float(fit.k),
        "neck_found": fit.neck_found,
    }


def cmd_sweep(config: RunConfig, out_dir: Path, workers: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = config.mu_grid()
    template = config.problem_template()
    files: dict[str, str] = {}
    failures: dict[str, str] = {}

    executor = None
    if workers > 1:
        # The pool machinery (multiprocessing, logging, sockets) is about
        # a tenth of a cold start, and one worker never needs it.
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=workers)
    try:
        mapper = executor.map if executor is not None else None
        for pair in config.pairs:
            slug = _pair_slug(pair)
            controller = design_controller(pair, config.params)
            try:
                front = frontier_mod.sweep(
                    controller,
                    grid,
                    template,
                    step=config.step_for(controller),
                    mapper=mapper,
                )
            except frontier_mod.SweepError as exc:
                failures[slug] = str(exc)
                continue
            frontier_name = f"frontier_{slug}.csv"
            spring_name = f"spring_{slug}.json"
            frontier_mod.write_frontier_csv(front, out_dir / frontier_name)
            _write_json(
                out_dir / spring_name,
                _spring_record(pair, frontier_mod.spring_fit(front)),
            )
            files[frontier_name] = _sha256_file(out_dir / frontier_name)
            files[spring_name] = _sha256_file(out_dir / spring_name)
    finally:
        if executor is not None:
            executor.shutdown()

    manifest = {
        "config_sha256": hashlib.sha256(
            config.canonical_text().encode()
        ).hexdigest(),
        "files": files,
        "failures": failures,
    }
    _write_json(out_dir / "manifest.json", manifest)
    if failures:
        for slug, message in failures.items():
            print(f"sweep {slug}: {message}", file=sys.stderr)
        return 1
    return 0


def cmd_stiffness(
    out_dir: Path, frontier_path: str, pair: EigenvaluePair | None
) -> int:
    points = frontier_mod.read_frontier_points(frontier_path)
    fit = frontier_mod.spring_fit_from_points(points)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"spring_{_pair_slug(pair)}.json" if pair is not None else "spring.json"
    _write_json(out_dir / name, _spring_record(pair, fit))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantrack",
        description="Plan-then-track trade-off pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config path (defaults are built in)")
        p.add_argument("--out", help="output directory (overrides config)")

    plan = sub.add_parser("plan", help="design one trajectory")
    common(plan)
    plan.add_argument("--mu", type=float, default=0.0, help="design weight")
    plan.add_argument("--pair", required=True, help="eigenvalue pair 'slow,fast'")

    track = sub.add_parser("track", help="track a trajectory CSV")
    common(track)
    track.add_argument("trajectory", help="trajectory CSV from the plan stage")
    track.add_argument("--pair", required=True, help="eigenvalue pair 'slow,fast'")
    track.add_argument(
        "--mu", type=float, default=None,
        help="design weight to record in the score (annotation only)",
    )

    swp = sub.add_parser("sweep", help="full frontier sweep per controller")
    common(swp)
    swp.add_argument("--workers", type=int, default=1, help="parallel workers")

    stiff = sub.add_parser("stiffness", help="refit the spring from a frontier CSV")
    common(stiff)
    stiff.add_argument("frontier", help="frontier CSV from the sweep stage")
    stiff.add_argument("--pair", default=None, help="eigenvalue pair label 'slow,fast'")

    # argparse only treats "-20,-200" as a value (not a flag) if the
    # negative-number matcher accepts it; the stock regex stops at "-20".
    pairish = re.compile(r"^-\d")
    for p in (parser, plan, track, swp, stiff):
        p._negative_number_matcher = pairish

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else Path(config.out_dir)

    try:
        if args.command == "plan":
            pair = _parse_pair_flag(args.pair, config, parser)
            return cmd_plan(config, out_dir, args.mu, pair)
        if args.command == "track":
            pair = _parse_pair_flag(args.pair, config, parser)
            return cmd_track(config, out_dir, args.trajectory, pair, args.mu)
        if args.command == "sweep":
            if args.workers < 1:
                parser.error("--workers must be at least 1")
            return cmd_sweep(config, out_dir, args.workers)
        if args.command == "stiffness":
            pair = (
                _parse_pair_flag(args.pair, config, parser)
                if args.pair is not None
                else None
            )
            return cmd_stiffness(out_dir, args.frontier, pair)
    except (
        planner.InfeasibleProblemError,
        planner.PlannerNumericalError,
        planner.TrajectorySchemaError,
        frontier_mod.FrontierSchemaError,
        frontier_mod.SweepError,
        sim.SimulationDivergedError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
