"""Compare the artifacts of this checkout with those of another one.

    python3 tools/artifact_diff.py --parent DIR

Runs the plantrack commands of ``RUNS`` in order, once with this
checkout's ``src`` and once with DIR's, each time in a new temporary
directory that starts with the files of ``INPUTS``, with
``PYTHONPATH=<checkout>/src`` and ``PYTHONDONTWRITEBYTECODE=1``.

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

TRAJECTORY_HEADER = "t,y,v,a,u,e_pred\n"
FRONTIER_HEADER = ("mu,designed_cost,predicted_error_sq_integral,actual_cost,"
                   "actual_error_sq_integral\n")

# The files each run directory starts with, name -> text.  None stands for
# the INI that ``perfbench/workloads.py bounded_sweep 0`` prints, read in main.
INPUTS = {
    # perfbench's bounded sweep: the toss clamps at y_max.
    "bounded.ini": None,
    # -50,-500 gets the step 1/167 s, where |lambda_fast| h = 2.99 > 2.78.
    "failing.ini": "[controllers]\npairs = -10,-100; -50,-500\n\n[sim]\nmax_step = 0.016\n"
                   "pole_fraction = 3.0\n\n[mu_grid]\ncount = 3\n",
    # Knots 0.7005 / 47 s apart: the planner, the reader and the simulator
    # must all take that spacing with the same bits.
    "awkward.ini": "[controllers]\npairs = -10,-100; -30,-300\n\n[plan]\nhorizon = 0.7005\n"
                   "segments = 47\nv0 = 1.3\n\n[mu_grid]\ncount = 4\n",
    # Starting downward at 30 m/s, the climb dips to the floor and then
    # overshoots the ceiling: working sets with lower and upper knots.
    "dip.ini": "[plan]\nv0 = -30\n",
    # One pair more than the planner caches designs, at one weight.
    "nine_pairs.ini": "[controllers]\npairs = "
                      + "; ".join(f"-{slow},-{10 * slow}" for slow in range(10, 19))
                      + "\n\n[mu_grid]\ncount = 1\n",
    # Planner inputs rejected before the active-set loop: yf outside [y_min, y_max],
    # and a start so fast that mu = 1e304 overflows the objective's constant.
    "outside_box.ini": "[plan]\nyf = 6.0\n",
    "fast_start.ini": "[plan]\nv0 = 1e9\n",
    # Flights too long to hold: 1e100 s is 1e103 RK4 steps, and at 1e306 s
    # horizon / step overflows.
    "horizon_1e100.ini": "[plan]\nhorizon = 1e100\n\n[mu_grid]\ncount = 1\n",
    "horizon_1e306.ini": "[plan]\nhorizon = 1e306\n\n[mu_grid]\ncount = 1\n",
    # A start speed whose coasting altitude y0 + v0 t overflows the design.
    "overflowing_start.ini": "[plan]\nhorizon = 1e120\nv0 = 1e200\ny_min = -1e300\n"
                             "y_max = 1e300\n",
    # Vehicle products that overflow: the gains at 1e307 kg, M g at 1e308 kg.
    "mass_1e307.ini": "[model]\nmass = 1e307\n",
    "mass_1e308.ini": "[model]\nmass = 1e308\n",
    # M d underflows to 0, and the pitch acceleration divides by it.
    "arm_5e-324.ini": "[model]\nmass = 0.1\narm_length = 5e-324\n",
    # A log grid whose last weight ratio**4 passes the largest float.
    "mu_overflow.ini": "[mu_grid]\ncount = 5\nmin = 1\nmax = 1.7976931348623157e308\n",
    # A design of 10^12 knot pairs, over the segment bound.
    "segments_1e6.ini": "[plan]\nsegments = 1000000\n",
    # Trajectory CSVs the reader rejects, one check each: a t column shifted
    # off 0, a non-uniform and a decreasing one, a renamed and an extra
    # header column, and a header with no rows.
    "shifted.csv": TRAJECTORY_HEADER + "0.5,0,0,0,0,0\n1.0,0,0,0,0,0\n1.5,0,0,0,0,0\n",
    "nonuniform.csv": TRAJECTORY_HEADER + "0.0,0,0,0,0,0\n0.5,0,0,0,0,0\n1.25,0,0,0,0,0\n",
    "decreasing.csv": TRAJECTORY_HEADER + "0.0,0,0,0,0,0\n1.0,0,0,0,0,0\n0.5,0,0,0,0,0\n",
    "renamed.csv": "t,y,v,acc,u,e_pred\n0,0,0,0,0,0\n0.5,0,0,0,0,0\n",
    "extra_column.csv": "t,y,v,a,u,e_pred,junk\n0,0,0,0,0,0,0\n0.5,0,0,0,0,0,0\n",
    "header_only.csv": TRAJECTORY_HEADER,
    # Frontier CSVs the reader rejects: a renamed column and an inf cell.
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


ONCE = ({},)
WORKERS = ({"w": "1"}, {"w": "2"})
DEFAULT_PAIRS = tuple({"pair": pair, "slug": pair.replace("-", "").replace(",", "_")}
                      for pair in ("-10,-100", "-20,-200", "-30,-300", "-50,-500"))

# The runs in order, as groups (fields, rows): a group's rows are run in
# turn for each of its fields, so every sweep runs under --workers 1 first.
RUNS = (
    (WORKERS, (
        "sweep --out default_w{w} --workers {w}",
        "sweep --config bounded.ini --out bounded_w{w} --workers {w}",
        # Exits 1 and writes the first pair's files and a failures entry.
        "sweep --config failing.ini --out failing_w{w} --workers {w}",
        "sweep --config awkward.ini --out awkward_w{w} --workers {w}",
        # 101 of the 124 points pin a lower and an upper knot.
        "sweep --config dip.ini --out dip_w{w} --workers {w}",
        # The last pair builds its design after the sweep's build-ahead.
        "sweep --config nine_pairs.ini --out nine_pairs_w{w} --workers {w}",
        # Every pair's step rule rejects the flight before any point is planned.
        "sweep --config horizon_1e100.ini --out horizon_1e100_w{w} --workers {w}",
        "sweep --config horizon_1e306.ini --out horizon_1e306_w{w} --workers {w}",
        # The config rejects the design before anything is built.
        "sweep --config segments_1e6.ini --out segments_1e6_w{w} --workers {w}",
    )),
    (ONCE, (
        # The awkward knot spacing and the two-sided working sets through track.
        "plan --config awkward.ini --pair -30,-300 --mu 3.5 --out plan_awkward",
        "track plan_awkward/trajectory.csv --config awkward.ini --pair -30,-300 --mu 3.5"
        " --out track_awkward",
        "plan --config dip.ini --pair -10,-100 --mu 100 --out plan_dip",
        "track plan_dip/trajectory.csv --config dip.ini --pair -10,-100 --mu 100"
        " --out track_dip",
    )),
    (DEFAULT_PAIRS, (
        # Each default pair at three weights, and the spring of its frontier.
        "plan --pair {pair} --mu 0 --out plan_{slug}_0",
        "track plan_{slug}_0/trajectory.csv --pair {pair} --mu 0 --out track_{slug}_0",
        "plan --pair {pair} --mu 3.5 --out plan_{slug}_3.5",
        "track plan_{slug}_3.5/trajectory.csv --pair {pair} --mu 3.5 --out track_{slug}_3.5",
        "plan --pair {pair} --mu 1e3 --out plan_{slug}_1e3",
        "track plan_{slug}_1e3/trajectory.csv --pair {pair} --mu 1e3 --out track_{slug}_1e3",
        "stiffness default_w1/frontier_{slug}.csv --pair {pair} --out stiffness",
    )),
    (ONCE, (
        # The DECORATED copies, which the readers must read as the originals.
        "track decorated_trajectory.csv --pair -10,-100 --mu 3.5 --out track_decorated",
        "stiffness decorated_frontier.csv --pair -10,-100 --out stiffness_decorated",
        # Malformed CSVs: each exits 1 with one error: line and writes nothing.
        "track shifted.csv --pair -20,-200 --out track_shifted",
        "track nonuniform.csv --pair -20,-200 --out track_nonuniform",
        "track decreasing.csv --pair -20,-200 --out track_decreasing",
        "track renamed.csv --pair -20,-200 --out track_renamed",
        "track extra_column.csv --pair -20,-200 --out track_extra_column",
        "track header_only.csv --pair -20,-200 --out track_header_only",
        "stiffness frontier_renamed.csv --out stiffness_frontier_renamed",
        "stiffness frontier_inf.csv --out stiffness_frontier_inf",
        # Problems the planner rejects, the same way.
        "plan --pair -10,-100 --mu 1e308 --out plan_huge_mu",
        "plan --config outside_box.ini --pair -10,-100 --out plan_outside_box",
        "plan --config fast_start.ini --pair -50,-500 --mu 1e304 --out plan_fast_start",
        # Inputs too large to fly or to plan, and vehicle constants whose
        # products overflow, which the config rejects at load.
        "plan --config horizon_1e100.ini --pair -10,-100 --out plan_1e100",
        "track plan_1e100/trajectory.csv --config horizon_1e100.ini --pair -10,-100"
        " --out track_1e100",
        "plan --config overflowing_start.ini --pair -10,-100 --out plan_overflowing_start",
        "track plan_10_100_3.5/trajectory.csv --config mass_1e307.ini --pair -10,-100"
        " --mu 3.5 --out track_mass_1e307",
        "track plan_10_100_3.5/trajectory.csv --config mass_1e308.ini --pair -10,-100"
        " --mu 3.5 --out track_mass_1e308",
        "track plan_10_100_3.5/trajectory.csv --config arm_5e-324.ini --pair -10,-100"
        " --mu 3.5 --out track_arm_5e-324",
        # A mu grid that overflows and a design too large to hold, both
        # rejected at load.
        "plan --config mu_overflow.ini --pair -10,-100 --out plan_mu_overflow",
        "plan --config segments_1e6.ini --pair -10,-100 --out plan_segments_1e6",
    )),
)

# A decimal number standing alone: not part of a word such as a checksum.
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def commands() -> list[list[str]]:
    """The plantrack argument lists, run in order in one directory."""
    return [row.format(**fields).split()
            for each, rows in RUNS for fields in each for row in rows]


def run_all(checkout: Path, work: Path, bounded_ini: str) -> list[tuple]:
    """Run every command against ``checkout``'s src inside ``work``."""
    for name, text in INPUTS.items():
        (work / name).write_text(bounded_ini if text is None else text)
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
