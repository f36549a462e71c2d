"""Steadiness report: repeat the benchmark and show each metric's spread.

    python3 bench/steadiness.py --runs 10 [--workload simulate ...] [--first-seed 1]

Runs `bench/run.py --trace 0` once per seed (first-seed, first-seed+1, ...)
for each workload, one run at a time, and prints for every end-to-end metric
the median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.  A spread
at or above the bound marks the metric UNSTEADY; the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or workloads.WORKLOADS:
        runs = [run_once(workload, args.first_seed + k, spec["run_seconds"])
                for k in range(args.runs)]
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread < bound else "UNSTEADY"
            steady &= name == "setup_s" or spread < bound
            print(f"{workload:9s} {name:12s} median {median:.5g}  Q1 {q1:.5g}  Q3 {q3:.5g}  "
                  f"spread {spread:.3f}  bound {bound}  {verdict}  "
                  f"[{' '.join(f'{v:.4g}' for v in values)}]", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
