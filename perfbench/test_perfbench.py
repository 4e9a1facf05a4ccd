"""Checks of the benchmark itself: seeded inputs, the gate, failure accounting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import spans
from workloads import GRID_SIZE, REFERENCE_DIR, WORKLOADS, Instance, make_instance, pair_slug

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from plantrack import cli  # noqa: E402
from plantrack.lqr import EigenvaluePair  # noqa: E402


def _load(instance: Instance, tmp_path: Path) -> cli.RunConfig:
    ini = tmp_path / "w.ini"
    ini.write_text(instance.ini_text())
    return cli.load_config(str(ini))


def _pairs(*pairs):
    return tuple(EigenvaluePair(lambda_slow=s, lambda_fast=f) for s, f in pairs)


def test_seed_zero_reproduces_the_named_configs(tmp_path):
    builtin = cli.RunConfig()
    for name in ("default_sweep", "plan_track_cli", "parallel_sweep"):
        loaded = _load(make_instance(name, 0), tmp_path)
        assert loaded.canonical_text() == builtin.canonical_text()
    bounded = replace(
        builtin, segments=120, y0=0.0, v0=30.0, yf=0.0,
        pairs=_pairs((-10.0, -100.0), (-20.0, -200.0)),
    )
    loaded = _load(make_instance("bounded_sweep", 0), tmp_path)
    assert loaded.canonical_text() == bounded.canonical_text()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_are_deterministic_and_keep_the_work(name):
    base = make_instance(name, 0)
    for seed in range(1, 30):
        inst = make_instance(name, seed)
        assert inst == make_instance(name, seed)
        assert 0.5 <= inst.scale < 1.0
        assert sorted(inst.pairs) == sorted(base.pairs)
        assert len(inst.jobs()) == len(base.jobs())
        assert all(1 <= i < GRID_SIZE for i in inst.mu_index)


def test_gate_accepts_the_reference_and_counts_a_bad_row(tmp_path):
    inst = make_instance("bounded_sweep", 0)
    out = tmp_path / "out"
    out.mkdir()
    for path in (REFERENCE_DIR / "bounded").iterdir():
        out.joinpath(path.name).write_bytes(path.read_bytes())
    tally = checks.check_sweep(out, inst)
    assert (tally.attempted, tally.failed) == (2 * GRID_SIZE, 0)

    name = f"frontier_{pair_slug(inst.pairs[0])}.csv"
    lines = out.joinpath(name).read_text().splitlines()
    fields = lines[5].split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-6))
    lines[5] = ",".join(fields)
    out.joinpath(name).write_text("\n".join(lines) + "\n")
    manifest = json.loads(out.joinpath("manifest.json").read_text())
    manifest["files"][name] = hashlib.sha256(out.joinpath(name).read_bytes()).hexdigest()
    out.joinpath("manifest.json").write_text(json.dumps(manifest))
    tally = checks.check_sweep(out, inst)
    assert (tally.attempted, tally.failed) == (2 * GRID_SIZE, 1)


@pytest.mark.parametrize("workers, manifest_written", [(1, True), (2, False)])
def test_failing_sweep_counts_every_point(tmp_path, workers, manifest_written):
    # A step longer than the knot spacing fails every point.  With two
    # workers the failure cannot cross the process pool and the sweep
    # dies without a manifest; the gate must still count every point.
    ini = tmp_path / "broken.ini"
    ini.write_text("[controllers]\npairs = -50,-500\n[sim]\nmax_step = 1.0\npole_fraction = 10\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "plantrack", "sweep", "--config", str(ini),
         "--out", str(out), "--workers", str(workers)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert (out / "manifest.json").exists() == manifest_written
    inst = replace(make_instance("parallel_sweep", 0), pairs=((-50.0, -500.0),))
    tally = checks.check_sweep(out, inst)
    assert (tally.attempted, tally.failed) == (GRID_SIZE, GRID_SIZE)


def test_spans_self_times_cover_the_roots():
    recorder = spans.Recorder(timed=True)
    restore = spans.install(recorder)
    try:
        config = cli.RunConfig(pairs=_pairs((-20.0, -200.0)), mu_count=2)
        controller = cli.design_controller(config.pairs[0], config.params)
        front = cli.frontier_mod.sweep(controller, config.mu_grid(), config.problem_template())
    finally:
        restore()
    assert cli.frontier_mod.sweep.__name__ == "sweep" and not hasattr(cli.frontier_mod.sweep, "__wrapped__")
    assert len(front.points) == 3
    names = [span[0] for span in recorder.spans]
    assert names.count("frontier.evaluate_point") == 3
    assert names.count("collocation_planner.solve") == 3
    roots = sum(end - start for _, _, start, end, parent, _ in recorder.spans if parent < 0)
    assert sum(recorder.self_times_ns()) == roots
    assert all(own >= 0 for own in recorder.self_times_ns())
    points = {span[5] for span in recorder.spans if span[0] == "tracking_sim.simulate"}
    assert len(points) == 3
