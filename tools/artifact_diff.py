"""Compare the artifacts of this checkout with those of another one.

    python3 tools/artifact_diff.py --parent DIR

Runs one fixed command set with this checkout's ``src`` and again with
DIR's, each in its own temporary directory, with
``PYTHONPATH=<checkout>/src`` and ``PYTHONDONTWRITEBYTECODE=1``:

- ``sweep`` on the built-in config, on the bounded_sweep INI
  (``perfbench/workloads.py bounded_sweep 0``) and on a failing INI
  whose second pair (-50,-500) breaks the RK4 step rule, each under
  ``--workers 1`` and ``--workers 2``; the failing sweep exits 1 and
  writes the first pair's files and a manifest with a ``failures``
  entry;
- ``sweep`` under ``--workers 1`` and ``--workers 2`` on an awkward
  grid, 0.7005 s in 47 segments, whose knot spacing is no round number
  (v0 = 1.3, pairs -10,-100 and -30,-300, four weights), and ``plan``
  and ``track`` on it for -30,-300 at mu = 3.5;
- ``sweep`` under ``--workers 1`` and ``--workers 2`` on a nine-pair
  INI, -10,-100 through -18,-180 at one weight, one pair more than the
  planner's design cache holds, so the last pair builds its design
  after the sweep's build-ahead;
- ``sweep`` under ``--workers 1`` and ``--workers 2`` on a dip INI,
  the default climb started at v0 = -30, whose planner pins knots to
  both bounds (101 of its 124 points pin a lower and an upper knot),
  and ``plan`` and ``track`` on it for -10,-100 at mu = 100;
- ``plan`` and ``track`` for the four default pairs at mu = 0, 3.5
  and 1e3;
- ``stiffness`` on each pair's frontier from the one-worker default
  sweep;
- ``track`` of the -10,-100 mu = 3.5 trajectory and ``stiffness`` of
  -10,-100's default frontier, each copied with a comment line, an empty
  line and a trailing ``# note`` on its first row, which the readers skip;
- ``track`` of six small malformed trajectory CSVs, written next to
  the INIs: a t column shifted off 0, a non-uniform one and a
  decreasing one, a column renamed ``acc``, an extra header column and
  a header with no rows; and ``stiffness`` of two malformed frontier
  CSVs: a renamed column and an ``inf`` cell.  Each exits 1 with one
  ``error:`` line on stderr and writes nothing;
- ``plan`` on three problems the planner rejects: -10,-100 at
  mu = 1e308, an INI whose ``yf`` lies above ``y_max``, and an INI with
  v0 = 1e9 for -50,-500 at mu = 1e304, where only the objective's
  constant overflows.  Each exits 1 with one ``error:`` line and writes
  nothing.

Exit codes, stdout, stderr and every file written are compared byte for
byte.  For a file that differs, the largest relative difference between
its numbers is printed, or that its other text differs.  Exits 0 only
when everything is identical.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIRS = ("-10,-100", "-20,-200", "-30,-300", "-50,-500")
MUS = ("0", "3.5", "1e3")
BOUNDED_INI = "bounded.ini"
FAILING_INI = "failing.ini"
AWKWARD_INI = "awkward.ini"
DIP_INI = "dip.ini"
NINE_PAIRS_INI = "nine_pairs.ini"
# -50,-500 gets the step 1/167 s, where |lambda_fast| h = 2.99 > 2.78.
FAILING_SWEEP = """\
[controllers]
pairs = -10,-100; -50,-500

[sim]
max_step = 0.016
pole_fraction = 3.0

[mu_grid]
count = 3
"""

# Knots 0.7005 / 47 s apart: the planner, the reader and the simulator
# must all take that spacing with the same bits.
AWKWARD_GRID = """\
[controllers]
pairs = -10,-100; -30,-300

[plan]
horizon = 0.7005
segments = 47
v0 = 1.3

[mu_grid]
count = 4
"""

# One pair more than the planner caches designs.
NINE_PAIRS = f"""\
[controllers]
pairs = {'; '.join(f'-{slow},-{10 * slow}' for slow in range(10, 19))}

[mu_grid]
count = 1
"""

# Starting downward at 30 m/s, the climb dips to the floor and then
# overshoots the ceiling: working sets with lower and upper knots.
DIP = """\
[plan]
v0 = -30
"""

# Planner inputs rejected before the active-set loop: yf outside [y_min, y_max],
# and a start so fast that mu = 1e304 overflows the objective's constant.
OUTSIDE_BOX_INI = "outside_box.ini"
FAST_START_INI = "fast_start.ini"
PLANNER_ERROR_INIS = {
    OUTSIDE_BOX_INI: "[plan]\nyf = 6.0\n",
    FAST_START_INI: "[plan]\nv0 = 1e9\n",
}

# Trajectory CSVs whose t column the reader rejects, one check each.
MALFORMED_TIMES = {
    "shifted.csv": (0.5, 1.0, 1.5),
    "nonuniform.csv": (0.0, 0.5, 1.25),
    "decreasing.csv": (0.0, 1.0, 0.5),
}
TRAJECTORY_HEADER = "t,y,v,a,u,e_pred\n"
FRONTIER_HEADER = ("mu,designed_cost,predicted_error_sq_integral,actual_cost,"
                   "actual_error_sq_integral\n")
# CSVs whose header or cells the readers reject: trajectories for track,
# frontiers for stiffness.
MALFORMED_TRAJECTORIES = {
    **{name: TRAJECTORY_HEADER + "".join(f"{t!r},0,0,0,0,0\n" for t in times)
       for name, times in MALFORMED_TIMES.items()},
    "renamed.csv": "t,y,v,acc,u,e_pred\n0,0,0,0,0,0\n0.5,0,0,0,0,0\n",
    "extra_column.csv": "t,y,v,a,u,e_pred,junk\n0,0,0,0,0,0,0\n0.5,0,0,0,0,0,0\n",
    "header_only.csv": TRAJECTORY_HEADER,
}
MALFORMED_FRONTIERS = {
    "frontier_renamed.csv": FRONTIER_HEADER.replace("designed_cost", "designed")
    + "0,75,1,80,1\n10,76,0.5,78,1\n",
    "frontier_inf.csv": FRONTIER_HEADER + "0,75,1,80,1\n10,76,inf,78,1\n",
}

# Valid CSVs from earlier commands, copied with lines the readers skip.
DECORATED = {
    "decorated_trajectory.csv": "plan_10_100_3.5/trajectory.csv",
    "decorated_frontier.csv": "default_w1/frontier_10_100.csv",
}


def decorate(text: str) -> str:
    header, first, *rest = text.splitlines(keepends=True)
    return (header + "# a comment line\n" + first.replace("\n", " # note\n")
            + "\n" + "".join(rest))


# A decimal number standing alone: not part of a word such as a checksum.
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def commands() -> list[list[str]]:
    """The plantrack argument lists, run in order in one directory."""
    runs = []
    for workers in ("1", "2"):
        runs.append(["sweep", "--out", f"default_w{workers}", "--workers", workers])
        runs.append(["sweep", "--config", BOUNDED_INI, "--out", f"bounded_w{workers}",
                     "--workers", workers])
        runs.append(["sweep", "--config", FAILING_INI, "--out", f"failing_w{workers}",
                     "--workers", workers])
        runs.append(["sweep", "--config", AWKWARD_INI, "--out", f"awkward_w{workers}",
                     "--workers", workers])
        runs.append(["sweep", "--config", DIP_INI, "--out", f"dip_w{workers}",
                     "--workers", workers])
        runs.append(["sweep", "--config", NINE_PAIRS_INI,
                     "--out", f"nine_pairs_w{workers}", "--workers", workers])
    runs.append(["plan", "--config", AWKWARD_INI, "--pair", "-30,-300", "--mu", "3.5",
                 "--out", "plan_awkward"])
    runs.append(["track", "plan_awkward/trajectory.csv", "--config", AWKWARD_INI,
                 "--pair", "-30,-300", "--mu", "3.5", "--out", "track_awkward"])
    runs.append(["plan", "--config", DIP_INI, "--pair", "-10,-100", "--mu", "100",
                 "--out", "plan_dip"])
    runs.append(["track", "plan_dip/trajectory.csv", "--config", DIP_INI,
                 "--pair", "-10,-100", "--mu", "100", "--out", "track_dip"])
    for pair in PAIRS:
        slug = pair.replace("-", "").replace(",", "_")
        for mu in MUS:
            plan, track = f"plan_{slug}_{mu}", f"track_{slug}_{mu}"
            runs.append(["plan", "--pair", pair, "--mu", mu, "--out", plan])
            runs.append(["track", f"{plan}/trajectory.csv", "--pair", pair,
                         "--mu", mu, "--out", track])
        runs.append(["stiffness", f"default_w1/frontier_{slug}.csv", "--pair", pair,
                     "--out", "stiffness"])
    runs.append(["track", "decorated_trajectory.csv", "--pair", "-10,-100", "--mu", "3.5",
                 "--out", "track_decorated"])
    runs.append(["stiffness", "decorated_frontier.csv", "--pair", "-10,-100",
                 "--out", "stiffness_decorated"])
    for name in MALFORMED_TRAJECTORIES:
        runs.append(["track", name, "--pair", "-20,-200",
                     "--out", "track_" + name.removesuffix(".csv")])
    for name in MALFORMED_FRONTIERS:
        runs.append(["stiffness", name, "--out", "stiffness_" + name.removesuffix(".csv")])
    runs.append(["plan", "--pair", "-10,-100", "--mu", "1e308", "--out", "plan_huge_mu"])
    runs.append(["plan", "--config", OUTSIDE_BOX_INI, "--pair", "-10,-100",
                 "--out", "plan_outside_box"])
    runs.append(["plan", "--config", FAST_START_INI, "--pair", "-50,-500",
                 "--mu", "1e304", "--out", "plan_fast_start"])
    return runs


def run_all(checkout: Path, work: Path, bounded_ini: str) -> list[tuple]:
    """Run every command against ``checkout``'s src inside ``work``."""
    (work / BOUNDED_INI).write_text(bounded_ini)
    (work / FAILING_INI).write_text(FAILING_SWEEP)
    (work / AWKWARD_INI).write_text(AWKWARD_GRID)
    (work / DIP_INI).write_text(DIP)
    (work / NINE_PAIRS_INI).write_text(NINE_PAIRS)
    for name, text in PLANNER_ERROR_INIS.items():
        (work / name).write_text(text)
    for name, text in (MALFORMED_TRAJECTORIES | MALFORMED_FRONTIERS).items():
        (work / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    results = []
    for args in commands():
        for name, source in DECORATED.items():
            if name in args:
                (work / name).write_text(decorate((work / source).read_text()))
        proc = subprocess.run([sys.executable, "-m", "plantrack", *args], cwd=work,
                              env=env, capture_output=True, timeout=600)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def files_under(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def numeric_difference(old: bytes, new: bytes) -> float | None:
    """Largest relative difference between the two texts' numbers, or None
    when the texts differ other than in their numbers."""
    old_text, new_text = old.decode(errors="replace"), new.decode(errors="replace")
    if _NUMBER.sub("#", old_text) != _NUMBER.sub("#", new_text):
        return None
    largest = 0.0
    for x, y in zip(map(float, _NUMBER.findall(old_text)),
                    map(float, _NUMBER.findall(new_text))):
        if x != y:
            scale = max(abs(x), abs(y))
            largest = max(largest, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    return largest


def describe(old: bytes, new: bytes) -> str:
    difference = numeric_difference(old, new)
    if difference is None:
        return "text other than numbers differs"
    return f"largest relative numeric difference {difference:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout to compare against, such as a clone of the parent commit")
    args = parser.parse_args(argv)

    bounded_ini = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workloads.py"), "bounded_sweep", "0"],
        capture_output=True, text=True, check=True,
    ).stdout
    with tempfile.TemporaryDirectory() as parent_dir, tempfile.TemporaryDirectory() as here_dir:
        parent_work, here_work = Path(parent_dir), Path(here_dir)
        parent_runs = run_all(args.parent.resolve(), parent_work, bounded_ini)
        here_runs = run_all(ROOT, here_work, bounded_ini)
        parent_files, here_files = files_under(parent_work), files_under(here_work)

    differences = []
    for argv_, old, new in zip(commands(), parent_runs, here_runs):
        label = "plantrack " + " ".join(argv_)
        for name, x, y in zip(("exit code", "stdout", "stderr"), old, new):
            if x != y:
                detail = f"{x} -> {y}" if name == "exit code" else describe(x, y)
                differences.append(f"{label}: {name} differs ({detail})")
    for name in sorted(parent_files.keys() | here_files.keys()):
        if name not in here_files or name not in parent_files:
            where = "parent" if name in parent_files else "this checkout"
            differences.append(f"{name}: written only by {where}")
        elif parent_files[name] != here_files[name]:
            differences.append(f"{name}: {describe(parent_files[name], here_files[name])}")

    for line in differences:
        print(line)
    print(f"{len(commands())} commands, {len(here_files)} files:"
          f" {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
