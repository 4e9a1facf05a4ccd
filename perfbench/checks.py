"""Correctness gate for the artifacts of one workload run.

Every check is counted in plan+track points: a check that misses marks
the points it covers as failed.

- Frontier CSVs and spring JSONs must match the stored seed-0 reference
  (reference/<name>/) scaled by the seed's climb scale s: mu unchanged,
  costs and error integrals times s**2, a and b times s**2, k over s**2.
  Tolerance: relative, RTOL = 1e-9.  Scaling alone moves the values by
  under 1e-12 relative; an exact rerun matches to the last digit.
- A pair listed under the manifest's ``failures`` fails all its grid
  points.  A run that left no manifest fails every point.
- Every planned point has kkt_residual < KKT_LIMIT and every simulated
  point max |x|, |q| < EXCURSION_LIMIT (acceptance criterion 9).
- Artifacts of ``--workers 1`` and ``--workers 2`` are byte-identical.

Only the standard library is used, so the gate runs in the benchmark's
own process without importing the program.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import GRID_SIZE, REFERENCE_DIR, Instance, pair_slug

RTOL = 1e-9
KKT_LIMIT = 1e-8
EXCURSION_LIMIT = 1e-9
COST_COLUMNS = 4  # frontier columns after mu, all quadratic in the scale


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int = 0, problem: str | None = None):
        self.attempted += attempted
        self.failed += failed
        if problem is not None and len(self.problems) < 20:
            self.problems.append(problem)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: 20 - len(self.problems)])


def close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)


def read_frontier_rows(path: Path) -> list[list[float]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return [[float(v) for v in row] for row in rows[1:]]


def reference_rows(instance: Instance, pair) -> list[list[float]]:
    ref = REFERENCE_DIR / instance.workload.reference / f"frontier_{pair_slug(pair)}.csv"
    s2 = instance.scale * instance.scale
    return [[row[0]] + [v * s2 for v in row[1:]] for row in read_frontier_rows(ref)]


def reference_spring(instance: Instance, pair) -> dict:
    ref = REFERENCE_DIR / instance.workload.reference / f"spring_{pair_slug(pair)}.json"
    record = json.loads(ref.read_text())
    s2 = instance.scale * instance.scale
    record["a"] *= s2
    record["b"] *= s2
    if record["k"] is not None:
        record["k"] /= s2
    return record


def spring_matches(got: dict, want: dict) -> bool:
    if got.get("eigenpair") != want["eigenpair"] or got.get("neck_found") != want["neck_found"]:
        return False
    if (got.get("k") is None) != (want["k"] is None):
        return False
    keys = ("a", "b") if want["k"] is None else ("a", "b", "k")
    return all(close(got[key], want[key]) for key in keys)


def row_matches(got: list[float], want: list[float]) -> bool:
    return len(got) == 1 + COST_COLUMNS and all(close(g, w) for g, w in zip(got, want))


def check_sweep(out_dir: Path, instance: Instance) -> Tally:
    """Account one ``plantrack sweep`` run; every grid point is attempted."""
    tally = Tally()
    manifest_path = out_dir / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
        files, failures = manifest["files"], manifest["failures"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        tally.add(instance.grid_points, instance.grid_points, f"no usable manifest: {exc}")
        return tally
    for pair in instance.pairs:
        slug = pair_slug(pair)
        if slug in failures:
            tally.add(GRID_SIZE, GRID_SIZE, f"manifest failure {slug}: {failures[slug]}")
            continue
        tally.merge(_check_pair_files(out_dir, files, instance, pair))
    return tally


def _check_pair_files(out_dir: Path, files: dict, instance: Instance, pair) -> Tally:
    tally = Tally()
    slug = pair_slug(pair)
    frontier = out_dir / f"frontier_{slug}.csv"
    spring = out_dir / f"spring_{slug}.json"
    try:
        for path in (frontier, spring):
            if files.get(path.name) != hashlib.sha256(path.read_bytes()).hexdigest():
                tally.add(GRID_SIZE, GRID_SIZE, f"{path.name}: checksum differs from manifest")
                return tally
        rows = read_frontier_rows(frontier)
        spring_ok = spring_matches(json.loads(spring.read_text()), reference_spring(instance, pair))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        tally.add(GRID_SIZE, GRID_SIZE, f"{slug}: unreadable artifact: {exc}")
        return tally
    if not spring_ok:
        tally.add(GRID_SIZE, GRID_SIZE, f"spring_{slug}.json differs from the reference")
        return tally
    want = reference_rows(instance, pair)
    if len(rows) != len(want):
        tally.add(GRID_SIZE, GRID_SIZE, f"frontier_{slug}.csv has {len(rows)} rows")
        return tally
    bad = [i for i, (g, w) in enumerate(zip(rows, want)) if not row_matches(g, w)]
    tally.add(GRID_SIZE, len(bad), f"frontier_{slug}.csv rows {bad} differ" if bad else None)
    return tally


def check_identical(serial_dir: Path, parallel_dir: Path, instance: Instance) -> Tally:
    """Fail a pair's points when its artifacts differ between worker counts."""
    tally = Tally()

    def same(name: str) -> bool:
        try:
            return (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()
        except OSError:
            return False

    manifest_same = same("manifest.json")
    for pair in instance.pairs:
        slug = pair_slug(pair)
        ok = manifest_same and same(f"frontier_{slug}.csv") and same(f"spring_{slug}.json")
        tally.add(GRID_SIZE, 0 if ok else GRID_SIZE,
                  None if ok else f"{slug}: --workers 1 and 2 artifacts differ")
    return tally


def check_plan_track(point_dirs: list[Path], stiffness_json: Path, instance: Instance) -> Tally:
    """Account one plan_track_cli sequence: a point per pair plus the refit."""
    tally = Tally()
    for pair, index, point_dir in zip(instance.pairs, instance.mu_index, point_dirs):
        want = reference_rows(instance, pair)[index]
        try:
            summary = json.loads((point_dir / "summary.json").read_text())
            score = json.loads((point_dir / "score.json").read_text())
            excursion = _tracking_excursion(point_dir / "tracking.csv")
            got = [summary["mu"], summary["designed_cost"], summary["predicted_error_integral"],
                   score["actual_cost"], score["actual_error_integral"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            tally.add(1, 1, f"{pair_slug(pair)}: unreadable artifact: {exc}")
            continue
        ok = row_matches(got, want) and score["mu"] == want[0] and excursion < EXCURSION_LIMIT
        tally.add(1, 0 if ok else 1,
                  None if ok else f"{pair_slug(pair)} mu={want[0]!r}: plan/track differs")
    try:
        got_spring = json.loads(stiffness_json.read_text())
        # The refit reads the stored seed-0 frontier, so it is never scaled.
        want_spring = json.loads(
            (REFERENCE_DIR / instance.workload.reference / stiffness_json.name).read_text()
        )
        ok = spring_matches(got_spring, want_spring)
    except (OSError, ValueError, KeyError, TypeError):
        ok = False
    tally.add(1, 0 if ok else 1, None if ok else f"{stiffness_json.name}: refit differs")
    return tally


def _tracking_excursion(path: Path) -> float:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        ix, iq = header.index("x"), header.index("q")
        return max((max(abs(float(r[ix])), abs(float(r[iq]))) for r in reader), default=0.0)


def check_points(points: list[dict], instance: Instance) -> Tally:
    """Account points evaluated in process against the reference and limits."""
    tally = Tally()
    refs = {pair_slug(p): reference_rows(instance, p) for p in instance.pairs}
    for point in points:
        want = refs[point["slug"]][point["index"]]
        ok = (
            "error" not in point
            and row_matches(point["row"], want)
            and point["kkt_residual"] < KKT_LIMIT
            and point["excursion"] < EXCURSION_LIMIT
        )
        tally.add(1, 0 if ok else 1, None if ok else f"in-process point {point} fails")
    return tally
