"""End-to-end CLI tests: config loading, subcommands, artifacts, determinism.

Everything runs in-process through main(argv) so exit codes and stderr
diagnostics are observable without spawning interpreters; only the
import check needs a fresh one.
"""

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
from plantrack import tracking_sim
from plantrack.cli import ConfigError, RunConfig, load_config, main
from plantrack.collocation_planner import (
    PlanProblem,
    read_trajectory_csv,
    solve,
    write_trajectory_csv,
)
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
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

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
        # A step longer than the knot spacing fails every point inside
        # the process that plans and flies it.
        config = write_config(
            tmp_path,
            "[controllers]\npairs = -50,-500\n[sim]\nmax_step = 1.0\npole_fraction = 10\n",
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
            "sweep 50_500: sweep failed at mu = 0: "
            "step must not exceed the knot spacing\n",
        )


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
    "module", ["scipy", "concurrent.futures.process", "multiprocessing"]
)
def test_cli_import_does_not_load(module):
    # scipy is a test-only dependency, and the process pool is needed
    # only by a sweep with more than one worker; each costs every cold
    # process its import time.
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
