"""The cost-counter fixture: how much work the Table-4 grid takes.

``tests/data/table4_cost_counters.json`` pins, for every run of the
``TABLE4_ARGS`` grid, ``executed_events`` and every ``engine``, ``timers``
and ``net`` RunTelemetry counter.  The result fixtures deliberately leave
these counters out, so a change that only makes the simulation cheaper
never touches them; this fixture is where such a change shows.  The counts
do not depend on the host, so they compare across machines where wall time
does not.

Regenerate it with::

    PYTHONPATH=src python tests/test_cost_counters.py > tests/data/table4_cost_counters.json
"""

import json
import pathlib
import sys
import tempfile

from pinned_outputs import FIXTURE_DIR, TABLE4_ARGS, cost_counters
from repro.__main__ import main

COST_FIXTURE = f"{FIXTURE_DIR}/table4_cost_counters.json"


def _produce(out):
    assert main(["sweep", *TABLE4_ARGS, "--per-run", "--out", str(out)]) == 0
    return cost_counters(json.loads(out.read_text()))


def test_table4_cost_counters_match_fixture(tmp_path):
    produced = _produce(tmp_path / "per_run.json")
    with open(COST_FIXTURE) as handle:
        pinned = json.load(handle)
    assert produced == pinned, (
        "the cost counters changed.  If the change is meant to alter the work "
        "a run does (a perf change), re-pin this fixture on purpose (see the "
        "module docstring) and record every old -> new value in CHANGES.md."
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        counters = _produce(pathlib.Path(tmp) / "per_run.json")
    json.dump(counters, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
