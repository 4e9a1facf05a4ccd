"""plantrack benchmark: cold-process CLI workloads plus a traced layer run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced in-process
run.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Human-readable lines
above it give each metric's sample count and the environment; the same
record, with the spans of a traced run, is written under ``.perfbench/``.
See README.md for the metrics, layers and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import REFERENCE_DIR, WORKLOADS, Instance, make_instance, pair_flag, pair_slug

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PROBE = Path(__file__).resolve().parent / "probe.py"

SETUP_REPS = 5  # cold interpreters per run for setup_s
IMPORT_REPS = 3  # cold interpreters per traced run for cli.import_s
MIN_REPS = 3  # cold CLI sequences per run, even past --seconds
MIN_POINT_SAMPLES = 100  # so p90 has at least ten samples above it
LATENCY_SHARE = 0.25  # of --seconds spent on latency samples, beyond the minimum
LATENCY_CHUNKS = 12  # requests the latency samples are split into
PERCENTILE_WINDOW = 5  # percent of the ranks on each side of a reported percentile
TRACED_REPS = 2  # minimum traced runs; more while --seconds lasts
COVERAGE_TOLERANCE = 0.10
PROCESS_TIMEOUT = 100.0

END_TO_END = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "point_ms_p50": "ms",
    "point_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "tracking_sim.simulate_ms": "ms",
    "tracking_sim.simulate_ms_total": "ms",
    "tracking_sim.steps": "count",
    "tracking_sim.ns_per_stage": "ns",
    "tracking_sim.max_excursion": "m",
    "collocation_planner.solve_ms": "ms",
    "collocation_planner.solve_ms_total": "ms",
    "collocation_planner.transcribe_ms": "ms",
    "collocation_planner.transcribe_ms_total": "ms",
    "collocation_planner.qp_self_ms": "ms",
    "collocation_planner.qp_self_ms_total": "ms",
    "collocation_planner.active_bounds": "count",
    "collocation_planner.kkt_residual_max": "1",
    "error_estimator.integral_form_ms_total": "ms",
    "error_estimator.lag_matrix_ms_total": "ms",
    "cli.import_s": "s",
    "cli.write_ms": "ms",
    "cli.read_ms": "ms",
    "cli.bytes_written": "bytes",
    "frontier.self_ms": "ms",
    "frontier.spring_fit_ms": "ms",
    "frontier.points": "count",
    "frontier.scaling_eff_2w": "ratio",
    "lqr.design_controller_calls": "count",
    "lqr.control_law_calls": "count",
    "model.nonlinear_derivative_calls": "count",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
    "trace.wall_ms": "ms",
    "trace.untraced_wall_ms": "ms",
}

SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
import plantrack.cli as cli
imported = time.perf_counter()
cli.load_config(sys.argv[1])
if not cli.__file__.startswith(sys.argv[2]):
    sys.exit(f"plantrack imported from {cli.__file__}, not from {sys.argv[2]}")
print(imported - start)
"""


class Runner:
    """Starts the program's processes in one scratch directory."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str]) -> tuple[int, float, str, str]:
        """(exit status, wall seconds, stdout, stderr) of one process group."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=self.work, env=self.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=PROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            out, err = proc.communicate()
            return -signal.SIGKILL, time.perf_counter() - start, out, err + "\ntimed out"
        except BaseException:  # interrupted: stop the group, then re-raise
            _kill_group(proc.pid)
            proc.wait()
            raise
        wall = time.perf_counter() - start
        _kill_group(proc.pid)  # pool workers a crashed run left behind
        return proc.returncode, wall, out, err

    def plantrack(self, args: list[str]) -> None:
        """One CLI process; its exit status shows in the artifacts it left."""
        self.run([sys.executable, "-m", "plantrack", *args])

    def setup(self, ini: Path) -> tuple[float, float]:
        """(process wall, import seconds) of a cold import + load_config."""
        status, wall, out, err = self.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(ini), str(SRC)]
        )
        if status != 0:
            raise BenchError(f"set-up process failed: {err.strip()}")
        return wall, float(out)

    def trace_probe(self, request: dict) -> dict:
        request_path = self.work / "trace_request.json"
        result_path = self.work / "trace_result.json"
        request_path.write_text(json.dumps(request))
        status, _, _, err = self.run(
            [sys.executable, str(PROBE), "trace", str(request_path), str(result_path)]
        )
        if status != 0:
            raise BenchError(f"trace probe failed: {err.strip()[-2000:]}")
        return _checked_identity(json.loads(result_path.read_text()))


class LatencyProbe:
    """The probe's latency server: one interpreter answering sample requests."""

    def __init__(self, work: Path, env: dict, request: dict):
        request_path = work / "latency_request.json"
        request_path.write_text(json.dumps(request))
        self.proc = subprocess.Popen(
            [sys.executable, str(PROBE), "latency", str(request_path)],
            cwd=work, env=env, text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            start_new_session=True,
        )
        self.identity = _checked_identity(self._receive())

    def samples(self, count: int) -> list[dict]:
        self.proc.stdin.write(f"{count}\n")
        self.proc.stdin.flush()
        return self._receive()["samples"]

    def _receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("latency probe exited early")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=PROCESS_TIMEOUT)
        except (OSError, subprocess.TimeoutExpired):
            pass
        _kill_group(self.proc.pid)
        self.proc.wait()
        self.proc.stdout.close()


def _checked_identity(result: dict) -> dict:
    if not result["plantrack_file"].startswith(str(SRC)):
        raise BenchError(f"probe imported {result['plantrack_file']}, not the checkout's")
    return result


class BenchError(RuntimeError):
    """The benchmark cannot measure this tree."""


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class WorkloadRun:
    """One seeded instance: its INI, its cold CLI sequence and its checks."""

    def __init__(self, instance: Instance, work: Path):
        self.instance = instance
        self.work = work
        self.ini = work / "workload.ini"
        self.ini.write_text(instance.ini_text())

    def sweep_args(self, out: Path, workers: int) -> list[str]:
        return ["sweep", "--config", str(self.ini), "--out", str(out), "--workers", str(workers)]

    def commands(self, workers: int | None = None) -> list[list[str]]:
        """The workload's CLI argument lists, in order."""
        inst = self.instance
        if inst.workload.command == "sweep":
            return [self.sweep_args(self.work / "out", workers or inst.workload.workers)]
        commands = []
        for pair, index in zip(inst.pairs, inst.mu_index):
            out = self.work / "points" / pair_slug(pair)
            mu = repr(self._mu(pair, index))
            common = ["--config", str(self.ini), "--out", str(out), f"--pair={pair_flag(pair)}", "--mu", mu]
            commands.append(["plan", *common])
            commands.append(["track", str(out / "trajectory.csv"), *common])
        stored = REFERENCE_DIR / inst.workload.reference / f"frontier_{pair_slug(inst.stiffness_pair)}.csv"
        commands.append([
            "stiffness", str(stored), "--config", str(self.ini),
            "--out", str(self.work / "stiffness"), f"--pair={pair_flag(inst.stiffness_pair)}",
        ])
        return commands

    def _mu(self, pair, index) -> float:
        stored = REFERENCE_DIR / self.instance.workload.reference / f"frontier_{pair_slug(pair)}.csv"
        return checks.read_frontier_rows(stored)[index][0]

    def check_outputs(self) -> checks.Tally:
        inst = self.instance
        if inst.workload.command == "sweep":
            return checks.check_sweep(self.work / "out", inst)
        return checks.check_plan_track(
            [self.work / "points" / pair_slug(p) for p in inst.pairs],
            self.work / "stiffness" / f"spring_{pair_slug(inst.stiffness_pair)}.json",
            inst,
        )

    def clear_outputs(self) -> None:
        for name in ("out", "points", "stiffness"):
            shutil.rmtree(self.work / name, ignore_errors=True)

    def probe_request(self) -> dict:
        inst = self.instance
        return {
            "ini": str(self.ini),
            "jobs": [[list(pair), index] for pair, index in inst.jobs()],
            "slugs": {f"{s!r},{f!r}": pair_slug((s, f)) for s, f in inst.pairs},
        }


def measure_end_to_end(wl: WorkloadRun, runner: Runner, seconds: float):
    """Cold CLI sequences fill --seconds; set-up and latency samples are
    spread between them, so a slow spell of the machine touches every
    metric a little instead of one metric a lot."""
    inst = wl.instance
    tally = checks.Tally()
    jobs = len(inst.jobs())
    min_passes = -(-MIN_POINT_SAMPLES // jobs)
    total = min_passes * jobs  # whole passes over the points
    chunk = -(-total // LATENCY_CHUNKS)
    setup_walls, point_ms, walls = [], [], []
    taken = 0  # latency samples asked for, failed ones included
    probe = LatencyProbe(wl.work, runner.env, wl.probe_request())
    try:
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            rep_due = len(walls) < MIN_REPS or elapsed + statistics.median(walls) <= seconds
            # The fixed-size sample set furthest behind the pace that ends it
            # at --seconds goes next; cold CLI sequences fill the rest.
            share, name = min((len(setup_walls) / SETUP_REPS, "setup"), (taken / total, "latency"))
            if share >= 1 and not rep_due:
                break
            if share < 1 and (share <= elapsed / seconds or not rep_due):
                if name == "setup":
                    setup_walls.append(runner.setup(wl.ini)[0])
                else:
                    samples = probe.samples(min(chunk, total - taken))
                    ms = [sample["ms"] for sample in samples if "ms" in sample]
                    if ms and not point_ms:
                        # Give latency its share of --seconds, in whole passes.
                        pass_s = statistics.fmean(ms) * jobs / 1e3
                        total = max(min_passes, int(LATENCY_SHARE * seconds / pass_s)) * jobs
                        chunk = -(-total // LATENCY_CHUNKS)
                    taken += len(samples)
                    point_ms.extend(ms)
                    tally.merge(checks.check_points(samples, inst))
                continue
            wl.clear_outputs()
            rep_start = time.perf_counter()
            for args in wl.commands():
                runner.plantrack(args)
            walls.append(time.perf_counter() - rep_start)
            tally.merge(wl.check_outputs())
    finally:
        probe.close()

    if inst.workload.workers > 1:
        # Byte-identity against a serial run of the same inputs (untimed).
        parallel_out = wl.work / "parallel_out"
        shutil.rmtree(parallel_out, ignore_errors=True)
        (wl.work / "out").rename(parallel_out)
        runner.plantrack(wl.commands(workers=1)[0])
        tally.merge(checks.check_sweep(wl.work / "out", inst))
        tally.merge(checks.check_identical(wl.work / "out", parallel_out, inst))

    if not point_ms:
        raise BenchError("every in-process point failed: " + "; ".join(tally.problems[:3]))
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "points_per_s": inst.grid_points / wall,
        "setup_s": statistics.median(setup_walls),
        "point_ms_p50": _percentile(point_ms, 50),
        "point_ms_p90": _percentile(point_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    samples = {
        "wall_s": len(walls), "points_per_s": len(walls), "setup_s": len(setup_walls),
        "point_ms_p50": len(point_ms), "point_ms_p90": len(point_ms), "peak_rss_mb": 1,
    }
    details = {"walls_s": walls, "setup_walls_s": setup_walls, "point_ms": point_ms,
               "versions": probe.identity["versions"]}
    return metrics, samples, tally, details, True


def measure_layers(wl: WorkloadRun, runner: Runner, seconds: float):
    inst = wl.instance
    tally = checks.Tally()
    imports = [runner.setup(wl.ini)[1] for _ in range(IMPORT_REPS)]

    wl.clear_outputs()
    request = wl.probe_request() | {
        "commands": wl.commands(workers=1),
        "scaling_command": wl.sweep_args(wl.work / "out", 1)[:-2],
        "min_reps": TRACED_REPS,
        "seconds": seconds,
        "spans_path": str(wl.work / "spans.json"),
        "limits": {"kkt": checks.KKT_LIMIT, "excursion": checks.EXCURSION_LIMIT},
    }
    result = runner.trace_probe(request)
    probe = result["metrics"]
    tally.merge(wl.check_outputs())
    bad = min(probe["points_observed"], probe["kkt_failures"] + probe["excursion_failures"])
    tally.add(probe["points_observed"], bad,
              f"{bad} traced points break the KKT or excursion limit" if bad else None)

    metrics = {name: probe[name] for name in PER_LAYER if name in probe}
    metrics["cli.import_s"] = statistics.median(imports)

    self_checks = []
    if abs(probe["trace.coverage"] - 1.0) > COVERAGE_TOLERANCE:
        self_checks.append(f"layer self times cover {probe['trace.coverage']:.3f} of the wall time")
    if result["count_mismatches"]:
        self_checks.append(f"counts differ between traced runs: {result['count_mismatches']}")
    tally.problems.extend(self_checks + result["command_errors"])

    processes = len(wl.commands())
    layer_self = dict(probe["layer_self_ms"])
    layer_self["cli.import (all processes)"] = metrics["cli.import_s"] * 1e3 * processes
    ranking = sorted(layer_self.items(), key=lambda kv: -kv[1])
    samples = {name: result["traced_reps"] for name in metrics}
    samples["cli.import_s"] = len(imports)
    details = {
        "layer_self_ms": ranking,
        "largest_self_time": ranking[0][0],
        "imports_s": imports,
        "versions": result["versions"],
        "spans_file": str(OUT / f"{inst.workload.name}_seed{inst.seed}_spans.json"),
    }
    shutil.copyfile(wl.work / "spans.json", details["spans_file"])
    return metrics, samples, tally, details, not self_checks


def _percentile(values: list[float], q: int) -> float:
    """Percentile q, smoothed: the mean of the samples ranked q ± 5 percent.

    Point costs cluster by active-set iterations (on bounded_sweep the
    clusters sit 20% apart), so a single order statistic jumps from one
    cluster to the next with small timing noise; the window does not.
    """
    ordered = sorted(values)
    n = len(ordered)
    low = max(0, math.floor((q - PERCENTILE_WINDOW) * n / 100))
    high = min(n, math.ceil((q + PERCENTILE_WINDOW) * n / 100))
    return statistics.fmean(ordered[low:high])


def environment(args, versions: dict) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_implementation() + " " + platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "git_commit": _git_commit(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so no started process outlives the run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "plantrack" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    runner = Runner(work)
    try:
        # Build: byte-compile the sources so no measured process compiles.
        status, _, _, err = runner.run([sys.executable, "-m", "compileall", "-q", str(SRC)])
        if status != 0:
            raise BenchError(f"byte-compiling {SRC} failed: {err.strip()}")
        wl = WorkloadRun(make_instance(args.workload, args.seed), work)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, samples, tally, details, self_ok = measure(wl, runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "correct": tally.failed == 0 and self_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    env = environment(args, details["versions"])
    saved = {"env": env, "result": record, "samples": samples, "problems": tally.problems, "details": details}
    (OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(saved, indent=1) + "\n"
    )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:42s} {metrics[name]:>14.6g} {unit:6s} n={samples[name]}")
    print(f"  failed_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.3g}")
    if args.trace:
        print("  self time by layer (ms): " + ", ".join(f"{k} {v:.1f}" for k, v in details["layer_self_ms"]))
        print(f"  largest self time: {details['largest_self_time']}")
    for problem in tally.problems:
        print(f"  problem: {problem}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
