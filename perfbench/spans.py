"""Layer spans recorded from outside the program.

``install`` rebinds each public layer function in every ``plantrack.*``
namespace that holds it (``frontier.solve`` is the same function object
as ``collocation_planner.solve``) with a wrapper that records a span:
name, layer, start, end, parent span and point id.  Spans stay in
memory; ``Recorder.dump`` writes them out at the end.  With
``timed=False`` the wrappers only observe results (KKT residual, active
bounds, RK4 steps, excursion), which costs nothing measurable next to a
point, so the untimed run can still check every point.

A function missing from the program (renamed or removed by a later
change) is skipped; its metrics then read 0.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import Counter

# (layer, defining module, function name).  Artifact reads and writes are
# the cli layer's I/O wherever the function is defined.
LAYER_FUNCTIONS = (
    ("cli", "cli", "main"),
    ("cli", "cli", "load_config"),
    ("cli", "cli", "cmd_plan"),
    ("cli", "cli", "cmd_track"),
    ("cli", "cli", "cmd_sweep"),
    ("cli", "cli", "cmd_stiffness"),
    ("cli.write", "cli", "_write_json"),
    ("cli.write", "frontier", "write_frontier_csv"),
    ("cli.write", "collocation_planner", "write_trajectory_csv"),
    ("cli.write", "tracking_sim", "write_tracking_csv"),
    ("cli.read", "cli", "_sha256_file"),
    ("cli.read", "frontier", "read_frontier_points"),
    ("cli.read", "collocation_planner", "read_trajectory_csv"),
    ("frontier", "frontier", "sweep"),
    ("frontier", "frontier", "evaluate_point"),
    ("frontier", "frontier", "spring_fit_from_points"),
    ("collocation_planner", "collocation_planner", "solve"),
    ("collocation_planner", "collocation_planner", "transcribe"),
    ("error_estimator", "error_estimator", "error_integral_form"),
    ("error_estimator", "error_estimator", "lag_response_matrix"),
    ("tracking_sim", "tracking_sim", "simulate"),
    ("tracking_sim", "tracking_sim", "select_step"),
    ("lqr", "lqr", "design_controller"),
    ("lqr", "lqr", "control_law"),
    ("model", "model", "nonlinear_derivative"),
)

# Functions whose calls define a plan+track point: (pair argument, mu argument).
_POINT_ARGS = {
    "frontier.evaluate_point": ("controller", "mu"),
    "cli.cmd_plan": ("pair", "mu"),
    "cli.cmd_track": ("pair", "mu"),
}


_WRITERS = {f"{m}.{f}" for layer, m, f in LAYER_FUNCTIONS if layer == "cli.write"}


def _point_id(name: str, bound: inspect.BoundArguments) -> str:
    pair_arg, mu_arg = _POINT_ARGS[name]
    pair = bound.arguments[pair_arg]
    pair = getattr(pair, "pair", pair)  # a ControllerSpec carries its pair
    return f"{pair.lambda_slow:g},{pair.lambda_fast:g}@{bound.arguments[mu_arg]!r}"


class Recorder:
    """Spans, call counts and observed results of one instrumented run."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[list] = []  # [name, layer, start_ns, end_ns, parent, point]
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.kkt: list[float] = []
        self.active_bounds = 0
        self.steps: list[int] = []
        self.excursion: list[float] = []
        self.bytes_written = 0

    def reset(self) -> None:
        self.__init__(self.timed)

    def observe(self, name: str, bound: inspect.BoundArguments, result) -> None:
        if name == "collocation_planner.solve":
            lo, hi = bound.arguments["problem"].y_bounds
            interior = result.y[1:-1]
            self.kkt.append(float(result.kkt_residual))
            self.active_bounds += int(((interior == lo) | (interior == hi)).sum())
        elif name == "tracking_sim.simulate":
            self.steps.append(int(result.times.size - 1))
            self.excursion.append(float(max(abs(result.x).max(), abs(result.q).max())))
        elif name in _WRITERS:
            self.bytes_written += os.path.getsize(bound.arguments["path"])

    def wrap(self, name: str, layer: str, fn):
        signature = inspect.signature(fn)
        observed = name in ("collocation_planner.solve", "tracking_sim.simulate") or name in _WRITERS
        needs_args = observed or name in _POINT_ARGS
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            bound = signature.bind(*args, **kwargs) if needs_args else None
            if not self.timed:
                result = fn(*args, **kwargs)
                if observed:
                    self.observe(name, bound, result)
                return result
            parent = self._stack[-1] if self._stack else -1
            if name in _POINT_ARGS:
                point = _point_id(name, bound)
            else:
                point = self.spans[parent][5] if parent >= 0 else None
            index = len(self.spans)
            span = [name, layer, clock(), 0, parent, point]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                self._stack.pop()
            if observed:
                self.observe(name, bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path) -> None:
        keys = ("name", "layer", "start_ns", "end_ns", "parent", "point")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)


def install(recorder: Recorder, names=None):
    """Rebind the layer functions; returns a callable that restores them.

    ``names`` limits the rebinding to the given "module.function" names.
    """
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "plantrack"]
    undo = []
    for layer, module_name, function_name in LAYER_FUNCTIONS:
        name = f"{module_name}.{function_name}"
        if names is not None and name not in names:
            continue
        original = getattr(sys.modules.get(f"plantrack.{module_name}"), function_name, None)
        if original is None:
            continue
        wrapper = recorder.wrap(name, layer, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    def restore():
        for module, attr, original in undo:
            setattr(module, attr, original)

    return restore
