"""End-to-end CLI tests: config loading, subcommands, artifacts, determinism.

Everything runs in-process through main(argv) so exit codes and stderr
diagnostics are observable without spawning interpreters; only the
import check needs a fresh one.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

import plantrack
from conftest import make_reference
from plantrack import collocation_planner, error_estimator, frontier, tracking_sim
from plantrack.cli import ConfigError, RunConfig, load_config, main
from plantrack.collocation_planner import (
    PlanProblem,
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


REDUCED_SWEEP = """\
    [controllers]
    pairs = -20,-200

    [mu_grid]
    count = 2
    min = 100
    max = 2000
"""


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

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[plot]\ncolor = red\n")
        with pytest.raises(ConfigError, match=r"unknown config section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[plan]\nextra = 1\n")
        with pytest.raises(ConfigError, match=r"unknown key 'extra'"):
            load_config(path)

    def test_bad_boolean_rejected(self, tmp_path):
        path = write_config(
            tmp_path, "[plan]\nenforce_initial_accel_zero = maybe\n"
        )
        with pytest.raises(ConfigError, match=r"not a boolean"):
            load_config(path)

    def test_bad_pair_rejected(self, tmp_path):
        path = write_config(tmp_path, "[controllers]\npairs = -10\n")
        with pytest.raises(ConfigError, match=r"not 'slow,fast'"):
            load_config(path)

    def test_empty_pair_list_rejected(self, tmp_path):
        path = write_config(tmp_path, "[controllers]\npairs =\n")
        with pytest.raises(ConfigError, match=r"pair list is empty"):
            load_config(path)

    def test_unparsable_file_rejected(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("this is not an ini file [\n")
        with pytest.raises(ConfigError, match=r"cannot parse"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"cannot read"):
            load_config(str(tmp_path / "absent.ini"))


class TestRunConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pairs": ()},
            {"mu_scale": "cubic"},
            {"mu_count": 0},
            {"mu_min": 0.0},
            {"mu_min": 10.0, "mu_max": 1.0},
            {"max_step": 0.0},
            {"pole_fraction": 0.0},
            # No step can be chosen from these.
            {"max_step": float("nan")},
            {"horizon": float("nan")},
            {"horizon": float("inf")},
            # Pairs whose file labels collide would overwrite each other.
            {"pairs": (EigenvaluePair(lambda_slow=-10.0, lambda_fast=-100.0),) * 2},
            {
                "pairs": (
                    EigenvaluePair(lambda_slow=-10.0, lambda_fast=-100.0),
                    EigenvaluePair(lambda_slow=-10.0000001, lambda_fast=-100.0),
                )
            },
            # Grids the sweep would reject: {0, 0, ...} and {0, 5, 5, 5}.
            {"mu_scale": "linear", "mu_min": 0.0},
            {"mu_count": 3, "mu_min": 5.0, "mu_max": 5.0},
            # An ascending grid with a weight no design problem accepts:
            # {0, 0.1, inf}.
            {"mu_count": 2, "mu_max": float("inf")},
            # Plan fields that no design problem accepts.
            {"segments": 1},
            {"horizon": 0.0},
            {"y_min": 5.0},
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            # A 0.02 s step on a 1/60 s knot grid.
            (dict(max_step=1.0, pole_fraction=10.0), "exceeds the knot spacing"),
            # 1/167 s at the -500 pole: |lambda| h = 2.99.
            (dict(segments=10, max_step=0.01, pole_fraction=3.0), "not RK4-stable"),
        ],
    )
    def test_step_rules_are_checked_per_pair(self, kwargs, message):
        # The config loads; the sweep fails the pair (see TestSweepCommand).
        fast = EigenvaluePair(lambda_slow=-50.0, lambda_fast=-500.0)
        config = RunConfig(pairs=(fast,), **kwargs)
        assert message in config.step_rule_error(design_controller(fast, config.params))
        assert RunConfig().step_rule_error(design_controller(fast, config.params)) is None

    def test_step_equal_to_the_knot_spacing_is_accepted(self):
        # |lambda| h = 100 / 60 is inside the RK4 limit.
        slow = (EigenvaluePair(lambda_slow=-10.0, lambda_fast=-100.0),)
        config = RunConfig(pairs=slow, max_step=1.0 / 60.0, pole_fraction=100.0)
        controller = design_controller(config.pairs[0], config.params)
        assert config.step_for(controller) == 1.0 / 60.0
        assert config.step_rule_error(controller) is None

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

    def test_infeasible_problem_exits_without_files(self, tmp_path, capsys):
        config = write_config(tmp_path, "[plan]\nyf = 6.0\n")
        out = tmp_path / "never"
        code = main(
            ["plan", "--config", config, "--pair", "-20,-200", "--out", str(out)]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mu,message",
        [
            ("nan", "mu must be finite"),
            ("inf", "mu must be finite"),
            # Finite, but 2 mu P overflows.
            ("1e308", "mu = 1e+308 overflows the design terms"),
        ],
    )
    def test_unusable_weight_exits_without_files(self, mu, message, tmp_path, capsys):
        out = tmp_path / "never"
        code = main(["plan", "--pair", "-20,-200", "--mu", mu, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_non_finite_plan_field_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, "[plan]\nv0 = nan\n")
        out = tmp_path / "never"
        code = main(
            ["plan", "--config", config, "--pair", "-20,-200", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == "config error: v0 must be finite\n"
        assert not out.exists()

    def test_unknown_pair_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["plan", "--pair", "-11,-111", "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_malformed_pair_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["plan", "--pair", "-11", "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, "[plan]\nbogus = 1\n")
        code = main(
            ["plan", "--config", config, "--pair", "-20,-200",
             "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_default_out_dir_comes_from_config(self, tmp_path):
        target = tmp_path / "from_config"
        config = write_config(
            tmp_path, f"[output]\ndirectory = {target}\n"
        )
        assert main(["plan", "--config", config, "--pair", "-10,-100"]) == 0
        assert (target / "trajectory.csv").exists()


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

    def test_schema_mismatch_names_the_column(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("t,y,v,acc,u,e_pred\n0,0,0,0,0,0\n")
        code = main(["track", str(path), "--pair", "-10,-100",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "column 3" in err
        assert "'acc'" in err

    def test_grid_not_starting_at_zero_exits_one(self, tmp_path, capsys):
        plan = tmp_path / "plan"
        assert main(["plan", "--pair", "-20,-200", "--mu", "100", "--out", str(plan)]) == 0
        lines = (plan / "trajectory.csv").read_text().splitlines()
        shifted = [lines[0]]
        for line in lines[1:]:
            t, rest = line.split(",", 1)
            shifted.append(f"{float(t) + 0.5!r},{rest}")
        path = tmp_path / "shifted.csv"
        path.write_text("\n".join(shifted) + "\n")
        out = tmp_path / "x"
        code = main(["track", str(path), "--pair", "-20,-200", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: column 't': profile must start at t = 0\n"
        )
        assert not out.exists()

    def test_missing_trajectory_file_exits_one(self, tmp_path, capsys):
        code = main(["track", str(tmp_path / "absent.csv"), "--pair", "-10,-100",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error" in capsys.readouterr().err


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
        # caches and two pool workers building their own designs give
        # the same bytes.
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
        for label, workers in (("cold", "1"), ("warm", "1"), ("pool", "2")):
            if label != "warm":
                collocation_planner._clear_caches()
            out = tmp_path / label
            assert main(
                ["sweep", "--config", config, "--out", str(out), "--workers", workers]
            ) == 0
            runs[label] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(runs["cold"]) == 5
        assert runs["warm"] == runs["cold"]
        assert runs["pool"] == runs["cold"]
        points = read_frontier_points(tmp_path / "cold" / "frontier_20_200.csv")
        assert [p.mu for p in points] == [0.0, 1.0, 1e3, 1e6]

    def test_pool_workers_inherit_every_design(self, tmp_path, monkeypatch):
        # The sweep's own process builds each controller's design, its
        # eigendecomposition included, before the workers fork; no worker
        # builds one again.
        calls = tmp_path / "eigh_calls"
        calls.touch()
        eigh = np.linalg.eigh

        def recording(matrix, *args, **kwargs):
            # Appends survive the fork into pool workers.
            with calls.open("a") as handle:
                handle.write(f"{os.getpid()}\n")
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        collocation_planner._clear_caches()
        config = write_config(
            tmp_path, REDUCED_SWEEP.replace("-20,-200", "-10,-100; -20,-200")
        )
        out = tmp_path / "out"
        assert main(
            ["sweep", "--config", config, "--out", str(out), "--workers", "2"]
        ) == 0
        assert calls.read_text().split() == [str(os.getpid())] * 2

    def test_pool_has_no_more_workers_than_grid_points(
        self, sweep_artifacts, tmp_path, monkeypatch
    ):
        import concurrent.futures

        sizes = []

        class RecordingPool:
            """Stands in for the process pool and runs the jobs inline."""

            def __init__(self, max_workers):
                sizes.append(max_workers)
                self.map = map

            def shutdown(self):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        config, out = sweep_artifacts
        pooled = tmp_path / "pooled"
        assert main(
            ["sweep", "--config", config, "--out", str(pooled), "--workers", "1000"]
        ) == 0
        assert sizes == [3]
        assert (pooled / "manifest.json").read_bytes() == (
            out / "manifest.json"
        ).read_bytes()

    def test_default_sweep_shares_one_chain_across_controllers(self, tmp_path, monkeypatch):
        # The four controllers share one grid, so the chain (lambda = 0)
        # is built once; each controller builds one design and its lag
        # once, and every point reuses both.
        built = []

        def counting(times, lam):
            built.append(lam)
            return lag_response_matrix(times, lam)

        for module in (collocation_planner, error_estimator):
            monkeypatch.setattr(module, "lag_response_matrix", counting)
        collocation_planner._clear_caches()
        assert main(["sweep", "--out", str(tmp_path / "out")]) == 0
        assert sorted(built) == [0.0, 10.0, 20.0, 30.0, 50.0]
        # Each cache miss constructs one grid or design.
        assert collocation_planner._cached_grid.cache_info().misses == 1
        assert collocation_planner._cached_design.cache_info().misses == 4

    def test_failures_are_recorded_and_exit_nonzero(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            REDUCED_SWEEP + "\n[plan]\nyf = 6.0\ny_max = 5.5\n",
        )
        out = tmp_path / "out"
        code = main(["sweep", "--config", config, "--out", str(out)])
        assert code == 1
        assert "mu = 0" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["failures"]) == ["20_200"]
        assert manifest["files"] == {}
        assert not (out / "frontier_20_200.csv").exists()

    def test_worker_failure_reports_like_a_serial_one(self, tmp_path, capsys):
        # A box that excludes the goal fails every point inside the
        # process that plans it.
        config = write_config(
            tmp_path,
            REDUCED_SWEEP + "\n[plan]\nyf = 6.0\ny_max = 5.5\n",
        )
        runs = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            code = main(
                ["sweep", "--config", config, "--out", str(out), "--workers", workers]
            )
            runs.append(
                (code, capsys.readouterr().err, (out / "manifest.json").read_bytes())
            )
        assert runs[1] == runs[0]
        assert runs[0][:2] == (
            1,
            "sweep 20_200: sweep failed at mu = 0: boundary altitudes y0=0.0, "
            "yf=6.0 must lie within the bounds [0.0, 5.5]\n",
        )

    def test_dead_pool_worker_fails_its_pairs_in_the_manifest(
        self, tmp_path, capsys, monkeypatch
    ):
        # A worker that exits abruptly breaks the pool: its pair and every
        # later one are recorded as failures, not raised as a traceback.
        parent = os.getpid()

        def dying(problem):
            if os.getpid() != parent:
                os._exit(3)
            return solve(problem)

        monkeypatch.setattr(frontier, "solve", dying)
        config = write_config(
            tmp_path, REDUCED_SWEEP.replace("-20,-200", "-10,-100; -20,-200")
        )
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", config, "--out", str(out), "--workers", "2"]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["sweep 10_100", "sweep 20_200"]
        assert "terminated abruptly" in lines[0]
        assert "pool is not usable anymore" in lines[1]
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["failures"]) == ["10_100", "20_200"]
        assert manifest["files"] == {}

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
            collocation_planner._clear_caches()
            out = tmp_path / f"workers{workers}"
            code = main(
                ["sweep", "--config", config, "--out", str(out), "--workers", workers]
            )
            runs.append(
                (code, capsys.readouterr().err, (out / "manifest.json").read_bytes())
            )
        collocation_planner._clear_caches()
        assert runs[1] == runs[0]
        message = (
            "sweep failed at mu = 1: error block factor failed: "
            "Eigenvalues did not converge"
        )
        assert runs[0][:2] == (1, f"sweep 10_100: {message}\nsweep 20_200: {message}\n")
        manifest = json.loads(runs[0][2])
        assert manifest["failures"] == {"10_100": message, "20_200": message}
        assert manifest["files"] == {}

    def test_step_rule_fails_its_pair_before_any_planning(
        self, tmp_path, capsys, monkeypatch
    ):
        # A 0.02 s step is longer than the 1/60 s knot spacing, so no
        # point of -1,-10 can be flown.  The pair is failed before a point
        # is planned, the same way under any worker count, and recorded
        # in the manifest like any failed pair; the other pair runs.
        calls = tmp_path / "solve_calls"

        def counting(problem):
            # Appends survive the fork into pool workers.
            with calls.open("a") as handle:
                handle.write("x")
            return solve(problem)

        monkeypatch.setattr(frontier, "solve", counting)
        config = write_config(
            tmp_path,
            REDUCED_SWEEP.replace("-20,-200", "-1,-10; -20,-200")
            + "\n[sim]\nmax_step = 0.02\n",
        )
        runs = []
        for workers in ("1", "2"):
            calls.write_text("")
            out = tmp_path / f"workers{workers}"
            code = main(
                ["sweep", "--config", config, "--out", str(out), "--workers", workers]
            )
            # Only -20,-200's three points are planned.
            assert calls.read_text() == "xxx"
            manifest = (out / "manifest.json").read_bytes()
            runs.append((code, capsys.readouterr().err, manifest))
        assert runs[1] == runs[0]
        message = "sim step 0.02 s exceeds the knot spacing 0.016666666666666666 s"
        assert runs[0][:2] == (1, f"sweep 1_10: {message}\n")
        manifest = json.loads(runs[0][2])
        assert manifest["failures"] == {"1_10": message}
        assert sorted(manifest["files"]) == ["frontier_20_200.csv", "spring_20_200.json"]

    def test_sweep_builds_each_design_once_past_the_cache_size(
        self, tmp_path, monkeypatch
    ):
        # One pair more than the planner caches: the designs built ahead
        # of the points must not be evicted before their pairs run, and
        # the last pair builds its own.
        size = collocation_planner._DESIGN_CACHE_SIZE
        calls = []
        eigh = np.linalg.eigh

        def counting(matrix, *args, **kwargs):
            calls.append(matrix.shape)
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        collocation_planner._clear_caches()
        pairs = "; ".join(f"-{slow},-{10 * slow}" for slow in range(10, 11 + size))
        config = write_config(tmp_path, REDUCED_SWEEP.replace("-20,-200", pairs))
        out = tmp_path / "out"
        assert main(
            ["sweep", "--config", config, "--out", str(out), "--workers", "1"]
        ) == 0
        assert calls == [(61, 61)] * (size + 1)


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

    def test_schema_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("mu,designed,predicted,actual,err\n0,1,1,1,1\n")
        code = main(["stiffness", str(path), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "column 1" in capsys.readouterr().err

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


@pytest.mark.parametrize(
    "module", ["scipy", "concurrent.futures.process", "multiprocessing", "hashlib"]
)
def test_cli_import_does_not_load(module):
    # scipy is a test-only dependency, the process pool is needed only
    # by a sweep with more than one worker, and hashlib (OpenSSL, about
    # 4 MB resident) only by a sweep's manifest; each costs every cold
    # process its import time or memory.
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
