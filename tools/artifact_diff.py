"""Compare the artifacts of this checkout with those of another one.

    python3 tools/artifact_diff.py --parent DIR

Runs the passing plantrack commands of ``RUNS`` and the failing ones of
the rows of ``tests/failure_cases.py`` in order, once with this
checkout's ``src`` and once with DIR's, each time in a new temporary
directory that starts with the files of ``INPUTS`` and of those rows,
with ``PYTHONPATH=<checkout>/src`` and ``PYTHONDONTWRITEBYTECODE=1``.

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
# The failure rows, plain data that imports nothing from plantrack.
sys.path.insert(0, str(ROOT / "tests"))
from failure_cases import CASES, argvs  # noqa: E402

# The files each run directory starts with besides those of the failure
# rows, name -> text.  None stands for the INI that
# ``perfbench/workloads.py bounded_sweep 0`` prints, read in main.
INPUTS = {
    # perfbench's bounded sweep: the toss clamps at y_max.
    "bounded.ini": None,
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
    # Pairs separated by a spaced ';', which is not a comment.
    "spaced_pairs.ini": "[controllers]\npairs = -10,-100 ; -20,-200\n\n[mu_grid]\ncount = 2\n",
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
        "sweep --config awkward.ini --out awkward_w{w} --workers {w}",
        # 101 of the 124 points pin a lower and an upper knot.
        "sweep --config dip.ini --out dip_w{w} --workers {w}",
        # The last pair builds its design after the sweep's build-ahead.
        "sweep --config nine_pairs.ini --out nine_pairs_w{w} --workers {w}",
        "sweep --config spaced_pairs.ini --out spaced_pairs_w{w} --workers {w}",
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
        "stiffness default_w1/frontier_{slug}.csv --pair {pair} --out stiffness_{slug}",
    )),
    (ONCE, (
        # The DECORATED copies, which the readers must read as the originals.
        "track decorated_trajectory.csv --pair -10,-100 --mu 3.5 --out track_decorated",
        "stiffness decorated_frontier.csv --pair -10,-100 --out stiffness_decorated",
    )),
)

# A decimal number standing alone: not part of a word such as a checksum.
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def commands() -> list[list[str]]:
    """The plantrack argument lists, run in order in one directory: the RUNS,
    then for each failure row its setup commands not yet run and its first
    ``gate`` commands, each given the out directory ``<row id>_<n>``."""
    runs = [row.format(**fields).split()
            for each, rows in RUNS for fields in each for row in rows]
    for case in CASES:
        runs += [argv for argv in map(str.split, case.setup) if argv not in runs]
        failing = [argv for command in case.commands[:case.gate] for argv in argvs(command)]
        runs += [[*argv, "--out", f"{case.id}_{n}"] for n, argv in enumerate(failing)]
    return runs


def input_files() -> dict:
    """Every file a run directory starts with, name -> text or bytes."""
    return INPUTS | {name: text for case in CASES for name, text in case.files.items()}


def run_all(checkout: Path, work: Path, bounded_ini: str) -> list[tuple]:
    """Run every command against ``checkout``'s src inside ``work``."""
    for name, text in input_files().items():
        text = bounded_ini if text is None else text
        (work / name).write_bytes(text if isinstance(text, bytes) else text.encode())
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
