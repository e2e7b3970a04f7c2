"""Set-up probe, run in a fresh interpreter by ``run.py`` to time ``setup_s``.

Imports ``repro``, resolves the workload's system and scenario tokens,
validates and expands its grids and builds the first cell's stack, then
prints ``time.monotonic()``: the parent subtracts the moment it started this
process (the clock is system-wide).

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.experiments import ExperimentRunner  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    specs = workload.specs(int(sys.argv[2]))
    cells = []
    for spec in specs:
        spec.validate()
        cells.extend(spec.expand())
    ExperimentRunner().setup(cells[0].scenario)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
