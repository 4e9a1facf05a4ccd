"""Command-line pipeline: plan, track, sweep, stiffness.

All numeric behavior lives in the library modules; this module loads
the run configuration, wires the stages together, and writes the CSV
and JSON artifacts.  The INI format is the one table `_FORMAT`
(section -> key -> RunConfig field and parser): load_config accepts
and parses exactly its keys, and the checksummed canonical text renders
them in its order.  Outputs are deterministic functions of the config:
CSV floats use 17 significant digits, JSON keys are sorted, and the run
manifest stores content checksums rather than timestamps, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path

from . import collocation_planner as planner
from . import frontier as frontier_mod
from . import tracking_sim as sim
from .lqr import ControllerSpec, EigenvaluePair, design_controller
from .model import ModelParams

_PAPER_PAIRS = (
    (-10.0, -100.0),
    (-20.0, -200.0),
    (-30.0, -300.0),
    (-50.0, -500.0),
)


# The mu grid is a list of count + 1 weights built at load: 10^6 weights
# load in 0.3 s at 75 MB peak RSS (33 MB at 10^5), and a sweep plans and
# flies them for about 50 min per pair at about 3 ms a point.
MAX_MU_COUNT = 1_000_000


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
    # Derived at load: each pair's file label -> its controller, in order.
    controllers: dict[str, ControllerSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pairs:
            raise ConfigError("controller pair list is empty")
        # Path("") is the working directory, which would take the artifacts.
        if not self.out_dir:
            raise ConfigError("output directory must not be empty")
        if self.mu_scale not in ("log", "linear"):
            raise ConfigError("mu scale must be 'log' or 'linear'")
        if self.mu_count < 1:
            raise ConfigError("mu grid count must be at least 1")
        if self.mu_count > MAX_MU_COUNT:
            raise ConfigError(
                f"mu grid count {self.mu_count} is over the bound of {MAX_MU_COUNT}"
            )
        if self.mu_min <= 0 and self.mu_scale == "log":
            raise ConfigError("log mu grid needs [mu_grid] min > 0")
        if self.mu_min > self.mu_max:
            raise ConfigError("[mu_grid] min must not exceed max")
        if not (0 < self.max_step < math.inf and 0 < self.pole_fraction < math.inf):
            raise ConfigError("step rule fields must be positive and finite")
        try:
            grid = self.mu_grid()
        except OverflowError as exc:  # a log grid's ratio**i past the largest float
            raise ConfigError("mu grid must be finite") from exc
        if not all(map(math.isfinite, grid)):
            raise ConfigError("mu grid must be finite")
        if not all(b > a for a, b in zip(grid, grid[1:])):
            raise ConfigError(
                "mu grid must be strictly ascending: [mu_grid] min > 0, and"
                " min < max when count > 1"
            )
        controllers: dict[str, ControllerSpec] = {}
        for pair in self.pairs:
            slug = _pair_slug(pair)
            if slug in controllers:
                raise ConfigError(
                    f"pairs {_pair_text(controllers[slug].pair)} and {_pair_text(pair)}"
                    f" share the file label {slug!r}"
                )
            # The vehicle's mass scales the gains, which can overflow.
            try:
                controllers[slug] = design_controller(pair, self.params)
            except ValueError as exc:
                raise ConfigError(f"pair {_pair_text(pair)}: {exc}") from exc
        object.__setattr__(self, "controllers", controllers)
        # PlanProblem checks the bounds too, but names its own field.
        if not (math.isfinite(self.y_min) and math.isfinite(self.y_max)):
            raise ConfigError("[plan] y_min and y_max must be finite")
        if self.y_min >= self.y_max:
            raise ConfigError(
                f"[plan] y_min ({self.y_min!r}) must be below y_max ({self.y_max!r})"
            )
        try:
            self.problem_template()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

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
            params=self.params,
            enforce_initial_accel_zero=self.enforce_initial_accel_zero,
        )

    def step_for(self, controller, horizon: float | None = None) -> float:
        """RK4 step for a controller over ``horizon`` (default: the config's)."""
        return sim.select_step(
            controller,
            self.horizon if horizon is None else horizon,
            max_step=self.max_step,
            pole_fraction=self.pole_fraction,
        )

    def canonical_text(self) -> str:
        """Stable rendering used for the config checksum: one
        `section.key = value` line per key of the INI format, in its order."""
        lines = [
            f"{section}.{key} = {_render(attrgetter(name)(self))}"
            for section, keys in _FORMAT.items()
            for key, (name, _) in keys.items()
        ]
        return "\n".join(lines) + "\n"


def _pair_text(pair: EigenvaluePair) -> str:
    return f"{pair.lambda_slow!r},{pair.lambda_fast!r}"


def _render(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return "; ".join(_pair_text(p) for p in value)
    return repr(value)


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


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
            pairs.append(EigenvaluePair(lambda_slow=slow, lambda_fast=fast))
        except ValueError as exc:
            raise ConfigError(f"pair {chunk!r}: {exc}") from exc
    return tuple(pairs)


# The INI format: section -> key -> (RunConfig field, parser of the raw
# value).  load_config accepts exactly these keys, and canonical_text
# checksums every one of them in this order.
_FORMAT = {
    "model": {
        "mass": ("params.mass", float),
        "arm_length": ("params.arm_length", float),
        "gravity": ("params.gravity", float),
    },
    "controllers": {"pairs": ("pairs", _parse_pairs)},
    "plan": {
        "horizon": ("horizon", float),
        "segments": ("segments", int),
        "y0": ("y0", float),
        "v0": ("v0", float),
        "yf": ("yf", float),
        "y_min": ("y_min", float),
        "y_max": ("y_max", float),
        "enforce_initial_accel_zero": ("enforce_initial_accel_zero", _parse_bool),
    },
    "mu_grid": {
        "count": ("mu_count", int),
        "min": ("mu_min", float),
        "max": ("mu_max", float),
        "scale": ("mu_scale", str.strip),
    },
    "sim": {
        "max_step": ("max_step", float),
        "pole_fraction": ("pole_fraction", float),
    },
    "output": {"directory": ("out_dir", str.strip)},
}


def load_config(path: str | None) -> RunConfig:
    """Load and validate an INI config; None gives the defaults.

    The format is `key = value` lines under `[section]` headers, names
    exactly as `_FORMAT` spells them, and `#` comments, whole-line or
    inline; `;` is not a comment, so it can separate pairs.  There is no
    interpolation, and `[DEFAULT]` is an unknown section like any other.
    """
    if path is None:
        return RunConfig()
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",), inline_comment_prefixes=("#",),
        interpolation=None, default_section="",
    )
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        # configparser's text spans lines; keep it, line number included, on one.
        raise ConfigError(f"cannot parse config: {' '.join(str(exc).split())}") from exc

    values, params = {}, {}
    for section in parser.sections():
        if section not in _FORMAT:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _FORMAT[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, parse = _FORMAT[section][key]
            try:
                value = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
            if name.startswith("params."):
                params[name.removeprefix("params.")] = value
            else:
                values[name] = value
    try:
        model = ModelParams(**params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(params=model, **values)


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
    # No record may carry NaN or Infinity, which JSON does not define.
    text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def _sha256(data: bytes) -> str:
    # hashlib loads OpenSSL, megabytes of memory in every cold process,
    # and only a sweep's manifest needs it.
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: Path) -> str:
    return _sha256(path.read_bytes())


def _parse_pair_flag(raw: str, config: RunConfig, parser) -> EigenvaluePair:
    try:
        candidates = _parse_pairs(raw)
    except ConfigError as exc:
        parser.error(str(exc))
    if len(candidates) != 1:
        parser.error(f"--pair expects one 'slow,fast' pair, got {raw!r}")
    if candidates[0] not in config.pairs:
        configured = "; ".join(
            f"{p.lambda_slow:g},{p.lambda_fast:g}" for p in config.pairs
        )
        parser.error(
            f"pair {raw!r} is not in the configured set ({configured})"
        )
    return candidates[0]


def cmd_plan(config: RunConfig, out_dir: Path, mu: float, pair: EigenvaluePair) -> int:
    controller = config.controllers[_pair_slug(pair)]
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
    if mu is not None and not 0 <= mu < math.inf:
        raise ValueError("mu must be finite and nonnegative")
    traj = planner.read_trajectory_csv(trajectory_path)
    controller = config.controllers[_pair_slug(pair)]
    result = sim.simulate(
        sim.SimConfig(
            step=config.step_for(controller, traj.horizon),
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


def _sweep_share(jobs, grid, template, indices) -> list:
    """One share of a sweep: for each (controller, step) of ``jobs``, its
    points at the grid ``indices`` in order, up to the share's first
    failure, as (points, failure); failure is None or (index, message)."""
    outcomes = []
    for controller, step in jobs:
        points, failure = [], None
        for index in indices:
            try:
                points.append(frontier_mod.evaluate_point(
                    controller, grid[index], template, step, index
                ))
            except frontier_mod.SweepError as exc:
                failure = (index, str(exc))
                break
        outcomes.append((points, failure))
    return outcomes


def _fan_out(sweep_share, shares) -> list:
    """sweep_share(share) of every share, in order.  The last share runs in
    this process; each other one in a child forked for it, which sends its
    result back pickled through a pipe and leaves by os._exit.  A child
    that exits non-zero, dies by a signal or sends bytes that do not
    unpickle gives a one-line message in place of its result.  Every child
    is reaped, and if this process's own share raises, killed first."""
    # pickle is loaded with numpy already; the import only binds the name.
    import pickle

    children = []  # (pid, read end of its pipe)
    outputs, statuses = [], []
    try:
        for share in shares[:-1]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pickle.dump(sweep_share(share), pipe)
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, open(read, "rb")))
            os.close(write)
        own = sweep_share(shares[-1])
        for _, pipe in children:
            outputs.append(pipe.read())
    except BaseException:
        from signal import SIGKILL

        for pid, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))

    results = []
    for status, output in zip(statuses, outputs):
        if status > 0:
            results.append(f"sweep worker exited with status {status}")
        elif status < 0:
            results.append(f"sweep worker was killed by signal {-status}")
        else:
            try:
                results.append(pickle.loads(output))
            # Bytes that are no pickle raise any of several exception types.
            except Exception as exc:
                results.append(
                    f"sweep worker's result does not unpickle ({type(exc).__name__})"
                )
    return results + [own]


def cmd_sweep(config: RunConfig, out_dir: Path, workers: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = config.mu_grid()
    template = config.problem_template()
    files: dict[str, str] = {}
    failures: dict[str, str] = {}

    # An RK4-unstable step (select_step's ValueError) fails its pair
    # before any point is planned.
    jobs: dict[str, tuple[ControllerSpec, float]] = {}
    for slug, controller in config.controllers.items():
        try:
            jobs[slug] = (controller, config.step_for(controller))
        except ValueError as exc:
            failures[slug] = str(exc)

    # Each design is built here, its eigendecomposition included, so the
    # children fork with it and none runs the eigensolver, whose BLAS
    # threads stall for milliseconds per call while other processes hold
    # the cores.
    planner.prepare(
        replace(template, dominant_lambda=controller.dominant_lambda)
        for controller, _ in jobs.values()
    )
    # P processes: no more than the weights, nor than the CPUs this process
    # may use (its affinity set, which a mask or a container's cpuset can
    # leave smaller than the machine), and one where os cannot fork.
    # Share j holds the grid indices j, j + P, ..., so the last share,
    # which this process sweeps itself, is the smallest.
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    processes = min(workers, len(grid), cpus) if hasattr(os, "fork") else 1
    shares = [range(j, len(grid), processes) for j in range(processes)]
    results = _fan_out(
        lambda share: _sweep_share(jobs.values(), grid, template, share), shares
    )
    dead = next((result for result in results if isinstance(result, str)), None)

    for job, (slug, (controller, _)) in enumerate(jobs.items()):
        if dead is not None:
            failures[slug] = dead
            continue
        # The pair's failure is the earliest over the shares, where one
        # process sweeping the whole grid would have stopped.
        outcomes = [result[job] for result in results]
        failed = [failure for _, failure in outcomes if failure is not None]
        if failed:
            failures[slug] = min(failed)[1]
            continue
        points = [outcomes[i % processes][0][i // processes] for i in range(len(grid))]
        # A spring fit that fails (spring_fit_from_points's ValueError)
        # fails only its pair.
        try:
            spring = _spring_record(
                controller.pair, frontier_mod.spring_fit_from_points(points)
            )
        except ValueError as exc:
            failures[slug] = str(exc)
            continue
        frontier_name = f"frontier_{slug}.csv"
        spring_name = f"spring_{slug}.json"
        frontier_mod.write_frontier_csv(points, out_dir / frontier_name)
        _write_json(out_dir / spring_name, spring)
        files[frontier_name] = _sha256_file(out_dir / frontier_name)
        files[spring_name] = _sha256_file(out_dir / spring_name)

    # Failures in pair order, as the pairs are configured.
    failures = {slug: failures[slug] for slug in config.controllers if slug in failures}
    manifest = {
        "config_sha256": _sha256(config.canonical_text().encode()),
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
    if args.out == "":
        parser.error("--out must not be empty")
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(config.out_dir if args.out is None else args.out)
    # plan and track require --pair, stiffness takes it, sweep has none.
    raw_pair = getattr(args, "pair", None)
    pair = None if raw_pair is None else _parse_pair_flag(raw_pair, config, parser)

    try:
        if args.command == "plan":
            return cmd_plan(config, out_dir, args.mu, pair)
        if args.command == "track":
            return cmd_track(config, out_dir, args.trajectory, pair, args.mu)
        if args.command == "sweep":
            if args.workers < 1:
                parser.error("--workers must be at least 1")
            return cmd_sweep(config, out_dir, args.workers)
        if args.command == "stiffness":
            return cmd_stiffness(out_dir, args.frontier, pair)
    except (
        planner.PlannerNumericalError,
        sim.SimulationDivergedError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
