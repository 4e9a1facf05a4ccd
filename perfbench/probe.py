"""In-process measurements, run as a fresh interpreter by run.py.

``latency``: a server that times single ``frontier.evaluate_point``
calls after one warm-up point, in chunks the caller asks for on stdin,
and observes each point's KKT residual and excursion for the
correctness gate.  Chunks let the caller spread the samples over the
whole run, between its cold CLI runs.

``trace``: run the workload's CLI commands through ``cli.main`` in
process, untraced and traced with the layer wrappers of spans.py in
turn, and reduce the spans to the per-layer metrics.  Also times
the workload's sweep on one worker and on a 2-worker pool for the
scaling efficiency.

Both modes read one JSON request file; ``trace`` writes one JSON result
file, ``latency`` answers with one JSON line per request line.
"""

from __future__ import annotations

import json
import statistics
import sys
import time


def _ms(ns_values) -> list[float]:
    return [v / 1e6 for v in ns_values]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _plan_jobs(cli, lqr, request):
    config = cli.load_config(request["ini"])
    grid = config.mu_grid()
    template = config.problem_template()
    jobs = []
    for (slow, fast), index in request["jobs"]:
        pair = lqr.EigenvaluePair(lambda_slow=slow, lambda_fast=fast)
        controller = lqr.design_controller(pair, config.params)
        step = config.step_for(controller)
        jobs.append((request["slugs"][f"{slow!r},{fast!r}"], index,
                     (controller, grid[index], template, step, index)))
    return jobs


def latency(request) -> None:
    """Serve point-latency samples: each stdin line n asks for the next n.

    The samples cycle through the workload's points in order, so any n
    that adds up to whole passes gives every point equal weight.
    """
    from plantrack import cli, frontier, lqr

    import spans

    recorder = spans.Recorder(timed=False)
    spans.install(recorder, {"collocation_planner.solve", "tracking_sim.simulate"})
    jobs = _plan_jobs(cli, lqr, request)
    frontier.evaluate_point(*jobs[0][2])  # warm-up, not sampled
    _reply(_identity())
    clock = time.perf_counter_ns
    position = 0
    for line in sys.stdin:
        samples = []
        for _ in range(int(line)):
            slug, index, job = jobs[position % len(jobs)]
            position += 1
            start = clock()
            try:
                point = frontier.evaluate_point(*job)
            except Exception as exc:  # a failed point is counted, not fatal
                samples.append({"slug": slug, "index": index, "error": repr(exc)})
                continue
            elapsed = clock() - start
            samples.append({
                "ms": elapsed / 1e6,
                "slug": slug,
                "index": index,
                "row": [point.mu, point.designed_cost, point.predicted_error_integral,
                        point.actual_cost, point.actual_error_integral],
                "kkt_residual": recorder.kkt[-1],
                "excursion": recorder.excursion[-1],
            })
        _reply({"samples": samples})


def _reply(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _identity() -> dict:
    import numpy
    import plantrack
    import scipy

    return {
        "plantrack_file": plantrack.__file__,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }


def _run_commands(cli, commands, errors: list) -> int:
    """Wall time of the command sequence in ns.

    A command that fails is noted in ``errors`` and the sequence goes on;
    the caller's artifact check counts the points it lost.
    """
    start = time.perf_counter_ns()
    for argv in commands:
        try:
            status = cli.main(argv)
        except Exception as exc:
            status = repr(exc)
        if status != 0 and len(errors) < 20:
            errors.append(f"plantrack {' '.join(argv)}: {status}")
    return time.perf_counter_ns() - start


def _layer_metrics(recorder, wall_ns: int, limits: dict) -> dict:
    by_name: dict[str, list[int]] = {}
    by_layer: dict[str, int] = {}
    self_by_name: dict[str, list[int]] = {}
    layer_self: dict[str, int] = {}
    for span, own in zip(recorder.spans, recorder.self_times_ns()):
        name, layer, start, end = span[:4]
        by_name.setdefault(name, []).append(end - start)
        by_layer[layer] = by_layer.get(layer, 0) + end - start
        self_by_name.setdefault(name, []).append(own)
        top = layer.split(".")[0]
        layer_self[top] = layer_self.get(top, 0) + own

    def total(name):
        return sum(by_name.get(name, [])) / 1e6

    def median(name):
        return _median(_ms(by_name.get(name, [])))

    steps = sum(recorder.steps)
    sim_ns = sum(by_name.get("tracking_sim.simulate", []))
    qp_self = self_by_name.get("collocation_planner.solve", [])
    return {
        "tracking_sim.simulate_ms": median("tracking_sim.simulate"),
        "tracking_sim.simulate_ms_total": total("tracking_sim.simulate"),
        "tracking_sim.steps": steps,
        "tracking_sim.ns_per_stage": sim_ns / (4 * steps) if steps else 0.0,
        "tracking_sim.max_excursion": max(recorder.excursion, default=0.0),
        "collocation_planner.solve_ms": median("collocation_planner.solve"),
        "collocation_planner.solve_ms_total": total("collocation_planner.solve"),
        "collocation_planner.transcribe_ms": median("collocation_planner.transcribe"),
        "collocation_planner.transcribe_ms_total": total("collocation_planner.transcribe"),
        "collocation_planner.qp_self_ms": _median(_ms(qp_self)),
        "collocation_planner.qp_self_ms_total": sum(qp_self) / 1e6,
        "collocation_planner.active_bounds": recorder.active_bounds,
        "collocation_planner.kkt_residual_max": max(recorder.kkt, default=0.0),
        "error_estimator.integral_form_ms_total": total("error_estimator.error_integral_form"),
        "error_estimator.lag_matrix_ms_total": total("error_estimator.lag_response_matrix"),
        "cli.write_ms": by_layer.get("cli.write", 0) / 1e6,
        "cli.read_ms": by_layer.get("cli.read", 0) / 1e6,
        "cli.bytes_written": recorder.bytes_written,
        "frontier.self_ms": layer_self.get("frontier", 0) / 1e6,
        "frontier.spring_fit_ms": total("frontier.spring_fit_from_points"),
        "frontier.points": recorder.calls["frontier.evaluate_point"],
        "lqr.design_controller_calls": recorder.calls["lqr.design_controller"],
        "lqr.control_law_calls": recorder.calls["lqr.control_law"],
        "model.nonlinear_derivative_calls": recorder.calls["model.nonlinear_derivative"],
        "trace.wall_ms": wall_ns / 1e6,
        "trace.coverage": sum(layer_self.values()) / wall_ns,
        "layer_self_ms": {k: v / 1e6 for k, v in layer_self.items()},
        "kkt_failures": sum(r >= limits["kkt"] for r in recorder.kkt),
        "excursion_failures": sum(e >= limits["excursion"] for e in recorder.excursion),
        "points_observed": len(recorder.kkt),
    }


DETERMINISTIC = (
    "frontier.points",
    "tracking_sim.steps",
    "collocation_planner.active_bounds",
    "cli.bytes_written",
    "lqr.design_controller_calls",
    "lqr.control_law_calls",
    "model.nonlinear_derivative_calls",
)


def trace(request) -> dict:
    from plantrack import cli, frontier, lqr

    import spans

    jobs = _plan_jobs(cli, lqr, request)
    frontier.evaluate_point(*jobs[0][2])  # warm-up of the planner and simulator paths
    recorder = spans.Recorder(timed=True)
    serial_command = request["scaling_command"] + ["--workers", "1"]
    pool_command = request["scaling_command"] + ["--workers", "2"]
    untraced, reps, serial, pool, errors = [], [], [], [], []
    # Untraced, traced and pool runs take turns, so drift in the machine's
    # speed does not show as tracing overhead or as scaling efficiency.
    start = time.perf_counter_ns()
    deadline = start + request["seconds"] * 1e9
    while len(reps) < request["min_reps"] or (
        time.perf_counter_ns() + (time.perf_counter_ns() - start) / len(reps) <= deadline
    ):
        untraced.append(_run_commands(cli, request["commands"], errors))
        recorder.reset()
        restore = spans.install(recorder)
        try:
            wall = _run_commands(cli, request["commands"], errors)
        finally:
            restore()
        reps.append(_layer_metrics(recorder, wall, request["limits"]))
        if request["commands"] != [serial_command]:
            serial.append(_run_commands(cli, [serial_command], errors))
        pool.append(_run_commands(cli, [pool_command], errors))
    recorder.dump(request["spans_path"])
    serial = serial or untraced

    metrics = {}
    for key, value in reps[0].items():
        if key == "layer_self_ms":
            metrics[key] = {k: _median([r[key].get(k, 0.0) for r in reps]) for k in value}
        elif key in DETERMINISTIC:
            metrics[key] = value
        elif key in ("kkt_failures", "excursion_failures", "points_observed"):
            metrics[key] = sum(r[key] for r in reps)
        else:
            metrics[key] = _median([r[key] for r in reps])
    untraced_ms = _median(untraced) / 1e6
    metrics["trace.untraced_wall_ms"] = untraced_ms
    metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.wall_ms"] - untraced_ms) / untraced_ms
    metrics["frontier.scaling_eff_2w"] = _median(serial) / (2 * _median(pool))
    mismatched = [k for k in DETERMINISTIC if len({r[k] for r in reps}) != 1]
    return {"metrics": metrics, "count_mismatches": mismatched, "traced_reps": len(reps),
            "command_errors": errors}


def main() -> int:
    mode, request_path = sys.argv[1:3]
    with open(request_path) as handle:
        request = json.load(handle)
    if mode == "latency":
        latency(request)
    else:
        result = trace(request) | _identity()
        with open(sys.argv[3], "w") as handle:
            json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
