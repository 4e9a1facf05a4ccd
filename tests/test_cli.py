"""End-to-end CLI tests: config loading, subcommands, artifacts, determinism.

Everything runs in-process through main(argv) so exit codes and stderr
diagnostics are observable without spawning interpreters; only the
import check needs a fresh one.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

import plantrack
from conftest import make_reference
from failure_cases import CASES, OVERFLOWING_START, REDUCED_SWEEP, USAGE, argvs, horizon
from plantrack import cli, collocation_planner, error_estimator, frontier, tracking_sim
from plantrack.cli import RunConfig, load_config, main
from plantrack.collocation_planner import (
    read_trajectory_csv,
    solve,
    write_trajectory_csv,
)
from plantrack.error_estimator import lag_response_matrix
from plantrack.frontier import read_frontier_points
from plantrack.lqr import EigenvaluePair, design_controller


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(dedent(body))
    return str(path)


@pytest.fixture
def inline_shares(monkeypatch):
    """Stands in for the sweep's fan-out and sweeps every share in this
    process; gives the list of the process counts the sweeps asked for."""
    counts = []

    def inline(sweep_share, shares):
        counts.append(len(shares))
        return [sweep_share(share) for share in shares]

    monkeypatch.setattr(cli, "_fan_out", inline)
    return counts


def record_calls(monkeypatch, module, name, path, describe):
    """Wraps module.name to append a line to path per call: the calling
    process's id and describe(*args).  Appends survive the fork into the
    sweep's share workers.  Gives a function that reads the file back as
    {process id: [description text, ...]}."""
    path.touch()
    function = getattr(module, name)

    def recording(*args, **kwargs):
        with path.open("a") as handle:
            handle.write(f"{os.getpid()} {describe(*args)}\n")
        return function(*args, **kwargs)

    def read():
        calls = {}
        for line in path.read_text().splitlines():
            pid, text = line.split()
            calls.setdefault(int(pid), []).append(text)
        return calls

    monkeypatch.setattr(module, name, recording)
    return read


def by_grid_index(grid):
    """describe for solve, which a sweep calls once per weight it plans:
    the grid index of the problem's weight, not its position in the share
    that swept it."""
    return lambda problem: grid.index(problem.mu)


@pytest.fixture(scope="module")
def sweep_artifacts(tmp_path_factory):
    """One reduced sweep (single pair, grid {0, 100, 2000}) for reuse."""
    root = tmp_path_factory.mktemp("sweep")
    config = write_config(root, REDUCED_SWEEP)
    out = root / "out"
    code = main(["sweep", "--config", config, "--out", str(out)])
    assert code == 0
    return config, out


class TestConfigLoading:
    def test_defaults_without_a_file(self):
        config = load_config(None)
        assert config == RunConfig()
        assert len(config.pairs) == 4
        assert config.segments == 60
        assert hashlib.sha256(config.canonical_text().encode()).hexdigest() == (
            "83d880f9de8f32b29cfa7c6dfee2f1172663f618a21df60bf18910446c4273dc"
        )

    def test_controllers_are_the_designed_pairs_by_label(self):
        config = RunConfig()
        slugs = ["10_100", "20_200", "30_300", "50_500"]
        assert list(config.controllers.items()) == [
            (slug, design_controller(pair, config.params))
            for slug, pair in zip(slugs, config.pairs)
        ]

    # The config designs each pair at load; no command designs one again.
    @pytest.mark.parametrize(
        "argv", [["sweep"], ["plan", "--pair", "-20,-200"]], ids=["sweep", "plan"]
    )
    def test_each_pair_is_designed_once_per_process(self, argv, tmp_path, monkeypatch):
        pairs = list(RunConfig().pairs)
        designed = []

        def counting(pair, params):
            designed.append(pair)
            return design_controller(pair, params)

        monkeypatch.setattr(cli, "design_controller", counting)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert designed == pairs

    def test_round_trips_every_field(self, tmp_path):
        path = write_config(
            tmp_path,
            """\
            [model]
            mass = 0.6
            arm_length = 0.1
            gravity = 9.8

            [controllers]
            pairs = -5,-50; -7,-70

            [plan]
            horizon = 2.0
            segments = 80
            y0 = 0.5
            v0 = -1.0
            yf = 4.0
            y_min = 0.2
            y_max = 4.5
            enforce_initial_accel_zero = true

            [mu_grid]
            count = 5
            min = 1.0
            max = 100.0
            scale = linear

            [sim]
            max_step = 5e-4
            pole_fraction = 0.1

            [output]
            directory = artifacts
            """,
        )
        config = load_config(path)
        assert config.params.mass == 0.6
        assert config.params.arm_length == 0.1
        assert config.params.gravity == 9.8
        assert [p.as_tuple() for p in config.pairs] == [(-5.0, -50.0), (-7.0, -70.0)]
        assert (config.horizon, config.segments) == (2.0, 80)
        assert (config.y0, config.v0, config.yf) == (0.5, -1.0, 4.0)
        assert (config.y_min, config.y_max) == (0.2, 4.5)
        assert config.enforce_initial_accel_zero is True
        assert (config.mu_count, config.mu_min, config.mu_max) == (5, 1.0, 100.0)
        assert config.mu_scale == "linear"
        assert (config.max_step, config.pole_fraction) == (5e-4, 0.1)
        assert config.out_dir == "artifacts"
        template = config.problem_template()
        assert template.y_bounds == (0.2, 4.5)
        assert template.enforce_initial_accel_zero
        assert config.canonical_text() == dedent(
            """\
            model.mass = 0.6
            model.arm_length = 0.1
            model.gravity = 9.8
            controllers.pairs = -5.0,-50.0; -7.0,-70.0
            plan.horizon = 2.0
            plan.segments = 80
            plan.y0 = 0.5
            plan.v0 = -1.0
            plan.yf = 4.0
            plan.y_min = 0.2
            plan.y_max = 4.5
            plan.enforce_initial_accel_zero = True
            mu_grid.count = 5
            mu_grid.min = 1.0
            mu_grid.max = 100.0
            mu_grid.scale = linear
            sim.max_step = 0.0005
            sim.pole_fraction = 0.1
            output.directory = artifacts
            """
        )

    @pytest.mark.parametrize("raw", ["off", "false", "no", "0"])
    def test_false_boolean_spellings_load_false(self, raw, tmp_path):
        path = write_config(tmp_path, f"[plan]\nenforce_initial_accel_zero = {raw}\n")
        assert load_config(path).enforce_initial_accel_zero is False

    # ';' separates pairs and is never a comment, spaced or at the start
    # of a continuation line.
    @pytest.mark.parametrize(
        "pairs", ["-10,-100 ; -20,-200", "-10,-100\n    ; -20,-200"], ids=["spaced", "continued"]
    )
    def test_semicolon_separates_pairs(self, pairs, tmp_path):
        path = write_config(tmp_path, f"[controllers]\npairs = {pairs}\n")
        assert [p.as_tuple() for p in load_config(path).pairs] == [
            (-10.0, -100.0), (-20.0, -200.0)
        ]

    def test_hash_comments_on_their_own_line_or_inline(self, tmp_path):
        path = write_config(
            tmp_path,
            """\
            # a whole-line comment
            [plan]  # after a header
            horizon = 2.0  # after a value
                # indented
            segments = 80

            [controllers]
            pairs = -5,-50  # one pair
            """,
        )
        config = load_config(path)
        assert (config.horizon, config.segments) == (2.0, 80)
        assert [p.as_tuple() for p in config.pairs] == [(-5.0, -50.0)]


class TestRunConfigValidation:
    def test_default_grid_shape(self):
        grid = RunConfig().mu_grid()
        assert len(grid) == 31
        assert grid[0] == 0.0
        assert grid[1] == pytest.approx(0.1, rel=1e-12)
        assert grid[-1] == pytest.approx(1e6, rel=1e-12)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_log_grid_hits_decades(self):
        grid = RunConfig(mu_count=3, mu_min=1.0, mu_max=100.0).mu_grid()
        assert grid == pytest.approx([0.0, 1.0, 10.0, 100.0], rel=1e-12)

    def test_linear_grid(self):
        grid = RunConfig(
            mu_count=3, mu_min=1.0, mu_max=3.0, mu_scale="linear"
        ).mu_grid()
        assert grid == pytest.approx([0.0, 1.0, 2.0, 3.0], rel=1e-12)

    def test_single_weight_grid(self):
        assert RunConfig(mu_count=1).mu_grid() == [0.0, 0.1]


class TestPlanCommand:
    def test_writes_trajectory_and_summary(self, tmp_path):
        out = tmp_path / "artifacts"
        code = main(["plan", "--pair", "-20,-200", "--out", str(out)])
        assert code == 0
        traj = read_trajectory_csv(out / "trajectory.csv")
        assert traj.times.size == 61
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mu"] == 0.0
        assert summary["eigenpair"] == [-20.0, -200.0]
        assert abs(summary["designed_cost"] - 75.0) < 0.1
        assert summary["predicted_error_integral"] > 0.0

    def test_mu_flag_weights_the_design(self, tmp_path):
        out0 = tmp_path / "a"
        out1 = tmp_path / "b"
        assert main(["plan", "--pair", "-20,-200", "--out", str(out0)]) == 0
        assert main(
            ["plan", "--pair", "-20,-200", "--mu", "1000", "--out", str(out1)]
        ) == 0
        base = json.loads((out0 / "summary.json").read_text())
        weighted = json.loads((out1 / "summary.json").read_text())
        assert weighted["mu"] == 1000.0
        assert weighted["designed_cost"] > base["designed_cost"]
        assert (
            weighted["predicted_error_integral"] < base["predicted_error_integral"]
        )

    def test_default_out_dir_comes_from_config(self, tmp_path):
        target = tmp_path / "from_config"
        config = write_config(
            tmp_path, f"[output]\ndirectory = {target}\n"
        )
        assert main(["plan", "--config", config, "--pair", "-10,-100"]) == 0
        assert (target / "trajectory.csv").exists()

    # A row's command is split on whitespace, so it cannot carry "".
    def test_empty_out_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["plan", "--pair", "-10,-100", "--out", ""])
        assert err.value.code == 2
        assert capsys.readouterr().err == (
            f"{USAGE}\nplantrack: error: --out must not be empty\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestTrackCommand:
    def test_round_trips_the_planned_trajectory(self, tmp_path, params):
        out = tmp_path / "run"
        assert main(["plan", "--pair", "-20,-200", "--out", str(out)]) == 0
        code = main(
            ["track", str(out / "trajectory.csv"), "--pair", "-20,-200",
             "--mu", "0", "--out", str(out)]
        )
        assert code == 0
        score = json.loads((out / "score.json").read_text())

        controller = design_controller(
            EigenvaluePair(lambda_slow=-20.0, lambda_fast=-200.0), params
        )
        traj = read_trajectory_csv(out / "trajectory.csv")
        result = tracking_sim.simulate(
            tracking_sim.SimConfig(
                step=tracking_sim.select_step(controller, traj.horizon),
                reference=traj,
                controller=controller,
            )
        )
        assert score["mu"] == 0.0
        assert score["eigenpair"] == [-20.0, -200.0]
        assert score["actual_cost"] == result.actual_cost
        assert score["actual_error_integral"] == result.actual_error_integral
        assert score["designed_cost"] == traj.designed_cost
        assert score["predicted_error_integral"] == traj.predicted_error_integral

        rows = (out / "tracking.csv").read_text().splitlines()
        assert len(rows) == 1 + result.times.size

    def test_step_divides_the_trajectory_horizon(self, tmp_path, params):
        # RunConfig.step_for would take the config's 1 s horizon and give
        # 1e-3 s, which does not divide 0.7005 s.
        config = write_config(tmp_path, "[plan]\nhorizon = 0.7005\n")
        plan = tmp_path / "plan"
        assert main(["plan", "--config", config, "--pair", "-20,-200",
                     "--out", str(plan)]) == 0
        out = tmp_path / "run"
        assert main(["track", str(plan / "trajectory.csv"), "--pair", "-20,-200",
                     "--out", str(out)]) == 0
        score = json.loads((out / "score.json").read_text())

        controller = design_controller(
            EigenvaluePair(lambda_slow=-20.0, lambda_fast=-200.0), params
        )
        step = tracking_sim.select_step(controller, 0.7005)
        assert step == 0.000999286733238231
        result = tracking_sim.simulate(
            tracking_sim.SimConfig(
                step=step,
                reference=read_trajectory_csv(plan / "trajectory.csv"),
                controller=controller,
            )
        )
        assert score["actual_cost"] == result.actual_cost
        assert score["actual_error_integral"] == result.actual_error_integral

    def test_zero_reference_scores_zero(self, tmp_path):
        times = np.linspace(0.0, 1.0, 61)
        ref = make_reference(times, np.zeros(61), np.zeros(61), np.zeros(61))
        path = tmp_path / "zero.csv"
        write_trajectory_csv(ref, path)
        out = tmp_path / "run"
        assert main(["track", str(path), "--pair", "-10,-100", "--out", str(out)]) == 0
        score = json.loads((out / "score.json").read_text())
        assert score["mu"] is None
        assert score["actual_cost"] == 0.0
        assert score["actual_error_integral"] == 0.0

class TestSweepCommand:
    def test_reduced_sweep_artifacts(self, sweep_artifacts):
        config, out = sweep_artifacts
        frontier_csv = out / "frontier_20_200.csv"
        spring_json = out / "spring_20_200.json"
        manifest = json.loads((out / "manifest.json").read_text())

        points = read_frontier_points(frontier_csv)
        assert [p.mu for p in points] == [0.0, 100.0, 2000.0]

        spring = json.loads(spring_json.read_text())
        assert spring["eigenpair"] == [-20.0, -200.0]
        assert spring["b"] == points[0].actual_cost / 2.0
        assert spring["neck_found"] is True
        assert spring["k"] > 0.0

        assert manifest["failures"] == {}
        assert set(manifest["files"]) == {frontier_csv.name, spring_json.name}

    def test_manifest_checksums_verify(self, sweep_artifacts):
        import hashlib

        config, out = sweep_artifacts
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        expected = hashlib.sha256(
            load_config(config).canonical_text().encode()
        ).hexdigest()
        assert manifest["config_sha256"] == expected

    def test_rerun_is_byte_identical(self, sweep_artifacts, tmp_path):
        config, out = sweep_artifacts
        again = tmp_path / "again"
        assert main(["sweep", "--config", config, "--out", str(again)]) == 0
        for name in ("frontier_20_200.csv", "spring_20_200.json", "manifest.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_worker_count_does_not_change_bytes(self, sweep_artifacts, tmp_path):
        config, out = sweep_artifacts
        parallel = tmp_path / "parallel"
        assert main(
            ["sweep", "--config", config, "--out", str(parallel), "--workers", "2"]
        ) == 0
        for name in ("frontier_20_200.csv", "spring_20_200.json", "manifest.json"):
            assert (parallel / name).read_bytes() == (out / name).read_bytes()

    def test_bounded_sweep_is_byte_identical_across_reruns_and_workers(self, tmp_path):
        # A toss the box clamps at every weight, so the spectral factor
        # serves several working sets per point.  Cold caches, warm
        # caches and two processes sweeping a share each give the same
        # bytes.
        config = write_config(
            tmp_path,
            """\
            [controllers]
            pairs = -10,-100; -20,-200
            [plan]
            segments = 120
            v0 = 30.0
            yf = 0.0
            [mu_grid]
            count = 3
            min = 1
            max = 1e6
            """,
        )
        runs = {}
        for label, workers in (("cold", "1"), ("warm", "1"), ("forked", "2")):
            if label != "warm":
                collocation_planner._cached_design.cache_clear()
            out = tmp_path / label
            assert main(
                ["sweep", "--config", config, "--out", str(out), "--workers", workers]
            ) == 0
            runs[label] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(runs["cold"]) == 5
        assert runs["warm"] == runs["cold"]
        assert runs["forked"] == runs["cold"]
        points = read_frontier_points(tmp_path / "cold" / "frontier_20_200.csv")
        assert [p.mu for p in points] == [0.0, 1.0, 1e3, 1e6]

    def test_share_workers_inherit_every_design(self, tmp_path, monkeypatch):
        # The sweep's own process builds each controller's design, its
        # eigendecomposition included, before it forks; no share worker
        # builds one again.
        calls = record_calls(
            monkeypatch, np.linalg, "eigh", tmp_path / "eigh_calls", lambda m: len(m)
        )
        collocation_planner._cached_design.cache_clear()
        config = write_config(
            tmp_path, REDUCED_SWEEP.replace("-20,-200", "-10,-100; -20,-200")
        )
        out = tmp_path / "out"
        assert main(
            ["sweep", "--config", config, "--out", str(out), "--workers", "2"]
        ) == 0
        assert calls() == {os.getpid(): ["61", "61"]}

    # The sweep runs as no more processes than the grid has weights or the
    # process may use CPUs: its affinity set, or where os has no
    # sched_getaffinity the machine's count, which os.cpu_count() gives as
    # None where it cannot be told.  One process forks none.
    @pytest.mark.parametrize(
        "affinity,cpus,processes",
        [({0, 1, 2, 3}, 64, [3]), ({5}, 64, [1]), (None, 64, [3]), (None, 2, [2]),
         (None, None, [1])],
        ids=["affinity4-64-3", "affinity1-64-1", "64-3", "2-2", "None-1"],
    )
    def test_no_more_share_workers_than_grid_points_or_cpus(
        self, affinity, cpus, processes, inline_shares, sweep_artifacts, tmp_path, monkeypatch
    ):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        config, out = sweep_artifacts
        capped = tmp_path / "capped"
        assert main(
            ["sweep", "--config", config, "--out", str(capped), "--workers", "1000"]
        ) == 0
        assert inline_shares == processes
        assert (capped / "manifest.json").read_bytes() == (
            out / "manifest.json"
        ).read_bytes()

    def test_one_process_where_os_cannot_fork(
        self, inline_shares, sweep_artifacts, tmp_path, monkeypatch
    ):
        monkeypatch.delattr(os, "fork")
        config, out = sweep_artifacts
        single = tmp_path / "single"
        assert main(
            ["sweep", "--config", config, "--out", str(single), "--workers", "2"]
        ) == 0
        assert inline_shares == [1]
        assert files_under(single) == files_under(out)

    # Every pair fails its step rule before any point is planned, so the
    # sweep forks no share worker, and its stderr and files are those of
    # one process.
    @pytest.mark.parametrize(
        "text",
        [horizon("1e100"), OVERFLOWING_START, "[sim]\nmax_step = 1.0\npole_fraction = 5.0\n"],
        ids=["horizon_1e100", "overflowing_start", "rk4_unstable"],
    )
    def test_no_fork_without_a_pair_to_sweep(self, text, tmp_path, monkeypatch, capsys):
        fork, forks = os.fork, []

        def counting():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = write_config(tmp_path, text)
        runs = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            code = main(["sweep", "--config", config, "--out", str(out), "--workers", workers])
            runs.append((code, capsys.readouterr().err, files_under(out)))
        assert forks == []
        assert runs[1] == runs[0]
        assert runs[0][0] == 1
        assert set(runs[0][2]) == {"manifest.json"}

    def test_three_processes_sweep_shares_of_11_10_and_10(self, tmp_path, monkeypatch):
        # The default config's 31 weights under three CPUs: share j holds
        # the indices j, j + 3, ..., this process sweeps the last, and the
        # artifacts are the bytes of one process and of the library's
        # sweep over the whole grid.
        config = RunConfig()
        grid = config.mu_grid()
        serial = tmp_path / "serial"
        assert main(["sweep", "--out", str(serial), "--workers", "1"]) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        calls = record_calls(
            monkeypatch, frontier, "solve", tmp_path / "points", by_grid_index(grid)
        )
        three = tmp_path / "three"
        assert main(["sweep", "--out", str(three), "--workers", "3"]) == 0
        assert files_under(three) == files_under(serial)
        shares = calls()
        assert shares.pop(os.getpid()) == [str(i) for i in range(2, 31, 3)] * 4
        assert sorted(shares.values(), key=len) == [
            [str(i) for i in range(1, 31, 3)] * 4, [str(i) for i in range(0, 31, 3)] * 4
        ]
        for slug, controller in config.controllers.items():
            path = tmp_path / f"library_{slug}.csv"
            frontier.write_frontier_csv(
                frontier.sweep(
                    controller, grid, config.problem_template(), config.step_for(controller)
                ),
                path,
            )
            assert (three / f"frontier_{slug}.csv").read_bytes() == path.read_bytes()

    def test_pair_fails_at_its_earliest_failing_weight(
        self, tmp_path, monkeypatch, capsys
    ):
        # Eight weights in three shares, {0, 3, 6}, {1, 4, 7} and {2, 5};
        # the planner fails at indices 4 and 5.  Each share stops the pair
        # at its own first failure, and the pair reports index 4, where
        # one process sweeping the whole grid stops.
        config = write_config(tmp_path, REDUCED_SWEEP.replace("count = 2", "count = 7"))
        grid = load_config(config).mu_grid()
        solve = frontier.solve

        def failing(problem):
            if problem.mu in (grid[4], grid[5]):
                raise ValueError(f"no plan at {problem.mu!r}")
            return solve(problem)

        monkeypatch.setattr(frontier, "solve", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        path = tmp_path / "points"
        calls = record_calls(monkeypatch, frontier, "solve", path, by_grid_index(grid))
        runs, evaluated = [], []
        for workers in ("1", "3"):
            path.write_text("")
            out = tmp_path / f"workers{workers}"
            code = main(["sweep", "--config", config, "--out", str(out), "--workers", workers])
            runs.append((code, capsys.readouterr().err, files_under(out)))
            evaluated.append(calls())
        assert runs[1] == runs[0]
        message = f"sweep failed at mu = {grid[4]:g}: no plan at {grid[4]!r}"
        assert runs[0][1] == f"sweep 20_200: {message}\n"
        assert evaluated[0] == {os.getpid(): ["0", "1", "2", "3", "4"]}
        assert evaluated[1].pop(os.getpid()) == ["2", "5"]
        assert sorted(evaluated[1].values()) == [["0", "3", "6"], ["1", "4"]]

    def test_default_sweep_builds_each_design_once(self, tmp_path, monkeypatch):
        # Each controller builds one design, with its chain (lambda = 0)
        # and its lag, once, and every point reuses it.
        built = []

        def counting(times, lam):
            built.append(lam)
            return lag_response_matrix(times, lam)

        for module in (collocation_planner, error_estimator):
            monkeypatch.setattr(module, "lag_response_matrix", counting)
        collocation_planner._cached_design.cache_clear()
        assert main(["sweep", "--out", str(tmp_path / "out")]) == 0
        assert sorted(built) == [0.0, 0.0, 0.0, 0.0, 10.0, 20.0, 30.0, 50.0]
        # Each cache miss constructs one design.
        assert collocation_planner._cached_design.cache_info().misses == 4

    def test_dead_share_worker_fails_its_pairs_in_the_manifest(
        self, tmp_path, capsys, monkeypatch
    ):
        # A share worker that exits non-zero fails every pair with one
        # line, recorded in the manifest, not raised as a traceback.
        parent = os.getpid()

        def dying(problem):
            if os.getpid() != parent:
                os._exit(3)
            return solve(problem)

        monkeypatch.setattr(frontier, "solve", dying)
        message = "sweep worker exited with status 3"
        assert self.sweep_two_pairs(tmp_path, capsys) == dict.fromkeys(
            ("10_100", "20_200"), message
        )

    @pytest.mark.parametrize("fault", ["killed", "garbled"])
    def test_killed_or_garbled_worker_fails_every_pair(
        self, fault, tmp_path, capsys, monkeypatch
    ):
        # A share worker killed by a signal, or one whose output does not
        # unpickle, fails every pair the same way.
        import pickle
        import signal

        parent = os.getpid()
        if fault == "killed":
            def dying(problem):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return solve(problem)

            monkeypatch.setattr(frontier, "solve", dying)
            message = f"sweep worker was killed by signal {int(signal.SIGKILL)}"
        else:
            monkeypatch.setattr(pickle, "dump", lambda result, pipe: pipe.write(b"junk"))
            message = "sweep worker's result does not unpickle (UnpicklingError)"
        assert self.sweep_two_pairs(tmp_path, capsys) == dict.fromkeys(
            ("10_100", "20_200"), message
        )

    @staticmethod
    def sweep_two_pairs(tmp_path, capsys) -> dict:
        """The manifest's failures of a failing two-pair sweep on two
        processes, checked against its stderr and its files."""
        config = write_config(
            tmp_path, REDUCED_SWEEP.replace("-20,-200", "-10,-100; -20,-200")
        )
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", config, "--out", str(out), "--workers", "2"]
        )
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == {}
        assert set(files_under(out)) == {"manifest.json"}
        assert capsys.readouterr().err == "".join(
            f"sweep {slug}: {message}\n" for slug, message in manifest["failures"].items()
        )
        return manifest["failures"]

    def test_no_process_outlives_the_sweep(self, sweep_artifacts, tmp_path, monkeypatch):
        # Every share worker is reaped; if this process's own share raises,
        # its workers are killed and reaped before the error leaves.
        config, _ = sweep_artifacts
        argv = ["sweep", "--config", config, "--workers", "2"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

        class Interrupt(BaseException):
            pass

        parent = os.getpid()

        def stalling(problem):
            if os.getpid() == parent:
                raise Interrupt
            time.sleep(60)
            return solve(problem)

        monkeypatch.setattr(frontier, "solve", stalling)
        start = time.monotonic()
        with pytest.raises(Interrupt):
            main([*argv, "--out", str(tmp_path / "interrupted")])
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_build_ahead_is_reported_by_every_pair(
        self, tmp_path, capsys, monkeypatch
    ):
        # The factor fails ahead of the points, in the sweep's own
        # process, and again at each pair's first mu > 0 point, which
        # reports it the same way under either worker count.
        def failing(matrix, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        config = write_config(
            tmp_path,
            REDUCED_SWEEP.replace("-20,-200", "-10,-100; -20,-200")
            .replace("min = 100", "min = 1"),
        )
        runs = []
        for workers in ("1", "2"):
            collocation_planner._cached_design.cache_clear()
            out = tmp_path / f"workers{workers}"
            code = main(
                ["sweep", "--config", config, "--out", str(out), "--workers", workers]
            )
            runs.append(
                (code, capsys.readouterr().err, (out / "manifest.json").read_bytes())
            )
        collocation_planner._cached_design.cache_clear()
        assert runs[1] == runs[0]
        message = (
            "sweep failed at mu = 1: error block factor failed: "
            "Eigenvalues did not converge"
        )
        assert runs[0][:2] == (1, f"sweep 10_100: {message}\nsweep 20_200: {message}\n")
        manifest = json.loads(runs[0][2])
        assert manifest["failures"] == {"10_100": message, "20_200": message}
        assert manifest["files"] == {}

    def test_sweep_builds_each_design_once_past_the_cache_size(
        self, tmp_path, monkeypatch
    ):
        # One pair more than the planner caches: the designs built ahead
        # of the points must not be evicted before their pairs run, and
        # each process builds the last pair's design once, for its share.
        size = collocation_planner._DESIGN_CACHE_SIZE
        calls = record_calls(
            monkeypatch, np.linalg, "eigh", tmp_path / "eigh_calls", lambda m: len(m)
        )
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        collocation_planner._cached_design.cache_clear()
        pairs = "; ".join(f"-{slow},-{10 * slow}" for slow in range(10, 11 + size))
        config = write_config(tmp_path, REDUCED_SWEEP.replace("-20,-200", pairs))
        out = tmp_path / "out"
        assert main(
            ["sweep", "--config", config, "--out", str(out), "--workers", "2"]
        ) == 0
        built = calls()
        assert built.pop(os.getpid()) == ["61"] * (size + 1)
        assert list(built.values()) == [["61"]]


class TestStiffnessCommand:
    def test_matches_the_sweep_record(self, sweep_artifacts, tmp_path):
        config, out = sweep_artifacts
        refit = tmp_path / "refit"
        code = main(
            ["stiffness", str(out / "frontier_20_200.csv"),
             "--pair", "-20,-200", "--config", config, "--out", str(refit)]
        )
        assert code == 0
        assert (refit / "spring_20_200.json").read_bytes() == (
            out / "spring_20_200.json"
        ).read_bytes()

    def test_unlabeled_fit(self, sweep_artifacts, tmp_path):
        config, out = sweep_artifacts
        refit = tmp_path / "plain"
        code = main(
            ["stiffness", str(out / "frontier_20_200.csv"), "--out", str(refit)]
        )
        assert code == 0
        record = json.loads((refit / "spring.json").read_text())
        assert record["eigenpair"] is None
        assert record["neck_found"] is True

    def test_flat_frontier_reports_null_stiffness(self, tmp_path):
        from plantrack.frontier import FRONTIER_COLUMNS

        path = tmp_path / "flat.csv"
        path.write_text(
            ",".join(FRONTIER_COLUMNS) + "\n0,75,1,80,1\n10,76,0.5,80,1\n"
        )
        out = tmp_path / "out"
        assert main(["stiffness", str(path), "--out", str(out)]) == 0
        record = json.loads((out / "spring.json").read_text())
        assert record["k"] is None
        assert record["neck_found"] is False
        assert record["a"] == 0.0

    def test_shallow_neck_keeps_its_stiffness(self, tmp_path):
        # A floor 1e-7 below a head of 64: 1 - (1 + (a/b)^2)^(-1/2)
        # cancels to 0 here, and k = b^2 / (2 a^3) to 1e-15.
        from plantrack.frontier import FRONTIER_COLUMNS

        floor = 64.0 - 1e-7
        path = tmp_path / "shallow.csv"
        path.write_text(
            ",".join(FRONTIER_COLUMNS) + f"\n0,75,1,64,1\n10,76,0.5,{floor!r},1\n"
        )
        out = tmp_path / "out"
        assert main(["stiffness", str(path), "--out", str(out)]) == 0
        record = json.loads((out / "spring.json").read_text())
        a = 64.0 - floor
        assert record["a"] == a
        assert record["k"] == pytest.approx(32.0**2 / (2.0 * a**3), rel=1e-11)

    def test_decimal_pair_slug(self, tmp_path):
        from plantrack.frontier import FRONTIER_COLUMNS

        config = write_config(
            tmp_path, "[controllers]\npairs = -12.5,-125\n"
        )
        path = tmp_path / "front.csv"
        path.write_text(",".join(FRONTIER_COLUMNS) + "\n0,75,1,80,1\n10,76,0.5,78,1\n")
        out = tmp_path / "out"
        assert main(
            ["stiffness", str(path), "--pair", "-12.5,-125",
             "--config", config, "--out", str(out)]
        ) == 0
        assert (out / "spring_12p5_125.json").exists()


def files_under(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# Each row of tests/failure_cases.py, one command at a time: the row's exit
# status, the exact stderr and the exact files under --out, the same bytes
# under each worker count of a sweep, and for a sweep the manifest's failures.
@pytest.mark.parametrize(
    "case,command",
    [(case, command) for case in CASES for command in case.commands],
    ids=[f"{case.id}-{i}" for case in CASES for i in range(len(case.commands))],
)
def test_failing_input(case, command, tmp_path, monkeypatch, capsys):
    # The grid bound is checked before any grid is built.
    grid = RunConfig.mu_grid

    def bounded(config):
        assert config.mu_count <= cli.MAX_MU_COUNT, "built a grid over the bound"
        return grid(config)

    monkeypatch.setattr(RunConfig, "mu_grid", bounded)
    monkeypatch.chdir(tmp_path)
    for name, text in case.files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    for setup in case.setup:
        assert main(setup.split()) == 0
    capsys.readouterr()
    runs = []
    for argv in argvs(command):
        out = tmp_path / f"out{len(runs)}"
        try:
            code = main([*argv, "--out", out.name])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        runs.append((code, capsys.readouterr().err, out.exists(), files_under(out)))
    assert all(run == runs[0] for run in runs)
    code, err, written, files = runs[0]
    assert (code, err, written, set(files)) == (
        case.status, case.stderr + "\n", bool(case.written), case.written
    )
    if case.failures is not None:
        manifest = json.loads(files["manifest.json"])
        assert manifest["failures"] == case.failures
        assert manifest["files"] == {
            name: hashlib.sha256(files[name]).hexdigest() for name in files
            if name != "manifest.json"
        }


def test_every_refusal_is_one_line():
    # A refused input ends as one diagnostic line, one per failed pair of a
    # sweep; a usage error as argparse's usage line and its error line.
    for case in CASES:
        lines = case.stderr.split("\n")
        if case.status == 2:
            assert lines[0] == USAGE and len(lines) == 2, case.id
            assert lines[1].startswith("plantrack: error: "), case.id
        else:
            assert case.status == 1, case.id
            for line in lines:
                assert re.match(r"(config error|error|sweep \w+): ", line), (case.id, line)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_json_records_reject_nan_and_infinity(value, tmp_path):
    from plantrack.cli import _write_json

    path = tmp_path / "record.json"
    with pytest.raises(ValueError):
        _write_json(path, {"x": value})
    assert not path.exists()


@pytest.mark.parametrize(
    "module", ["scipy", "concurrent.futures.process", "multiprocessing", "hashlib"]
)
def test_cli_import_does_not_load(module):
    # scipy is a test-only dependency, a sweep forks its share workers
    # with os.fork and needs no process pool, and hashlib (OpenSSL, about
    # 4 MB resident) is needed only by a sweep's manifest; each costs
    # every cold process its import time or memory.
    package_root = str(Path(plantrack.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import plantrack.cli, sys; "
        f"print(sorted(m for m in sys.modules if (m + '.').startswith({module!r} + '.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
