"""Write the benchmark record BENCH_<label>.json.

    python3 tools/bench_record.py --label <label> [--checkout DIR]

Runs the benchmark command that BENCHMARK.json declares (perfbench) in
the checkout DIR, by default this one, once per declared workload with
--trace 0 (end-to-end metrics) and once with --trace 1 (per-layer
metrics), at seed 0 for the declared run_seconds.  The record goes to BENCH_<label>.json at the root of this
checkout: per workload and trace setting, perfbench's environment line
(commit, versions, CPU) and its closing result object
{"correct", "attempted", "failed", "metrics"}.  Benchmarking a second
checkout, such as a clone of the parent commit, gives the baseline a
change is compared against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(checkout: Path, command: list[str], workload: str,
                 seconds: float, trace: int) -> dict:
    args = command + ["--workload", workload, "--seed", "0",
                      "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True,
                          timeout=60 + 20 * seconds)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"env": env, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout to benchmark (default: this one)")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    record = {"label": args.label, "seed": 0, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in declared["workloads"]):
        runs = {}
        for trace in (0, 1):
            runs[f"trace{trace}"] = run_workload(
                args.checkout.resolve(), declared["command"], workload,
                seconds, trace)
            result = runs[f"trace{trace}"]["result"]
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        record["workloads"][workload] = runs
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
