"""CI performance gate, built on the repository benchmark in ``perfbench/``.

Usage (from the repository root)::

    python3 .github/perf_gate.py --out perfbench_stdout.txt

It runs every perfbench workload for one second (``perfbench/run.py
--workload all --seed 0 --seconds 1 --trace 0``) and keeps that stdout in
``--out``.  Then it times the three large-topology cells
(``python -m repro run --system S --users 1000 --rate 20``) end to end
through the CLI.  The gate fails when:

* ``perfbench/run.py`` exits nonzero, or its output checks fail
  (``"correct": false``);
* a workload's reference-scaled ``cells_per_s`` is at or below
  ``FLOOR_FRACTION`` of its floor in ``CELLS_PER_S_FLOORS``;
* a large-N cell takes more than ``CEILING_FACTOR`` times its ceiling in
  ``LARGE_N_CEILINGS_S``.  Its wall time is scaled like perfbench's: by
  ``REFERENCE_S / kernel seconds`` of ``perfbench/reference.py``, with the
  kernel timed right before and right after the cell.

The tolerances are loose on purpose.  Hosted runners differ from the box
the floors were measured on in single-thread speed, and the gate exists
to catch multiple-times slowdowns, not drift.  Those are quadratic calendar
growth, a process spawned per cell, or always-on telemetry grown expensive.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Reference-scaled cells/s of each workload, measured with the perfbench
#: command below on a 2-CPU Xeon VM (CHANGES.md has the measurement).
CELLS_PER_S_FLOORS = {"paper-grid": 93.8, "fanout": 15.8, "federation-churn": 13.1}
#: A workload fails at or below this fraction of its floor.
FLOOR_FRACTION = 0.5

#: Reference-scaled seconds of ``run --system S --users 1000 --rate 20``,
#: measured on the same VM.
LARGE_N_CEILINGS_S = {"frodo3": 2.1, "upnp": 4.8, "jini1": 6.3}
#: A large-N cell fails above this multiple of its ceiling.
CEILING_FACTOR = 2.0

PERFBENCH = "perfbench/run.py --workload all --seed 0 --seconds 1 --trace 0".split()


def check_perfbench(summary: Mapping[str, Any]) -> List[str]:
    """Problems in perfbench's summary line (empty when it passes)."""
    problems = []
    if summary.get("correct") is not True:
        problems.append('perfbench output checks failed ("correct": false)')
    metrics = summary.get("metrics", {})
    for workload, floor in CELLS_PER_S_FLOORS.items():
        entry = metrics.get(f"{workload}/cells_per_s")
        if entry is None:
            problems.append(f"{workload}: no cells_per_s in the perfbench output")
        elif entry["value"] <= FLOOR_FRACTION * floor:
            problems.append(
                f"{workload}: cells_per_s {entry['value']:.4g} is at or below "
                f"{FLOOR_FRACTION:.0%} of its floor {floor:g}"
            )
    return problems


def check_large_n(seconds: Mapping[str, float]) -> List[str]:
    """Problems in the reference-scaled large-N cell times (empty when they pass)."""
    problems = []
    for system, ceiling in LARGE_N_CEILINGS_S.items():
        if system not in seconds:
            problems.append(f"{system}@1000: not timed")
        elif seconds[system] > CEILING_FACTOR * ceiling:
            problems.append(
                f"{system}@1000: {seconds[system]:.3g} s is more than "
                f"{CEILING_FACTOR:g}x its ceiling {ceiling:g} s"
            )
    return problems


def run_perfbench(out_path: str) -> List[str]:
    """Run the benchmark, keep its stdout in ``out_path``, and check it."""
    argv = [sys.executable] + PERFBENCH
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as out:
        out.write(proc.stdout)
    problems = [] if proc.returncode == 0 else [f"perfbench exited {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + ["perfbench printed no summary line"]
    return problems + check_perfbench(summary)


def time_large_n() -> Dict[str, float]:
    """Reference-scaled seconds of each large-N cell, run through the CLI."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from reference import REFERENCE_S, kernel_seconds

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if path
    )
    seconds = {}
    for system in LARGE_N_CEILINGS_S:
        argv = ["-m", "repro", "run", "--system", system, "--users", "1000", "--rate", "20"]
        before = kernel_seconds()
        started = time.perf_counter()
        proc = subprocess.run([sys.executable] + argv + ["--out", os.devnull], env=env)
        wall = time.perf_counter() - started
        after = kernel_seconds()
        if proc.returncode != 0:
            print(f"{system}@1000: run exited {proc.returncode}", flush=True)
            continue
        seconds[system] = wall * REFERENCE_S / statistics.median([before, after])
        scaled = f"{seconds[system]:.3f} s reference-scaled ({wall:.3f} s host)"
        print(f"{system}@1000: {scaled}", flush=True)
    return seconds


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="perfbench_stdout.txt", help="where to keep perfbench's stdout"
    )
    args = parser.parse_args(argv)
    problems = run_perfbench(args.out) + check_large_n(time_large_n())
    for problem in problems:
        print(f"perf gate: {problem}", file=sys.stderr)
    if not problems:
        print("perf gate passed", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
