"""Steadiness check of the benchmark against the bounds in BENCHMARK.json.

Runs ``run.py`` once per seed (``--sets`` times over the same seeds) on one
workload, one run at a time, and prints for every end-to-end metric the
median and the quartile spread (Q3 - Q1) / median of each set, next to the
metric's bound.  It also requires the pass-0 result digest and cost counters
of a seed to match exactly between sets.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload fanout --seeds 10 --sets 2
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    # The pass-0 digest and cost counters are exact for a seed.
    exact = [line.strip() for line in lines if line.strip().startswith("pass-0 ")]
    return {"result": json.loads(lines[-1]), "exact": exact}


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    sets = []
    for set_index in range(args.sets):
        runs = []
        for seed in seeds:
            runs.append(run_once(args.workload, seed, bench["run_seconds"]))
            values = runs[-1]["result"]["metrics"]
            shown = " ".join(f"{name}={values[name]['value']:.5g}" for name in sorted(values))
            print(f"set {set_index} seed {seed}: {shown}", flush=True)
        sets.append(runs)

    ok = True
    print(f"\n{args.workload}: {args.seeds} seeds x {args.sets} sets")
    for entry in bench["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        medians = []
        for set_index, runs in enumerate(sets):
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            medians.append(statistics.median(values))
            share = spread(values)
            flag = ""
            if share > bound:
                flag = " (> bound)"
                # The spread of setup_s is not held to its bound, only its drift.
                ok = ok and name == "setup_s"
            elif share > bound / 3:
                flag = " (> bound/3)"
            print(
                f"  {name:<14} set {set_index}: median {medians[-1]:.6g} "
                f"spread {share:.4f} bound {bound}{flag}"
            )
        sign = 1 if entry["better"] == "lower" else -1
        for median in medians[1:]:
            drift = sign * (median - medians[0]) / medians[0]
            print(f"  {name:<14} later set worse by {drift:+.4f}")
            ok = ok and drift <= bound
    for seed_index, seed in enumerate(seeds):
        exact = {tuple(runs[seed_index]["exact"]) for runs in sets}
        if len(exact) != 1:
            ok = False
            print(f"  seed {seed}: digest/counters differ between sets")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
