"""The CI performance gate (``.github/perf_gate.py``) on synthetic perfbench output."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), ".github", "perf_gate.py")
_SPEC = importlib.util.spec_from_file_location("perf_gate", _PATH)
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)


def _summary(correct=True, **cells_per_s):
    """A perfbench summary line with every workload exactly at its floor."""
    rates = dict(perf_gate.CELLS_PER_S_FLOORS, **cells_per_s)
    metrics = {}
    for workload, rate in rates.items():
        metrics[f"{workload}/cells_per_s"] = {"unit": "1/s", "value": rate}
        metrics[f"{workload}/setup_s"] = {"unit": "s", "value": 0.25}
    return {"correct": correct, "attempted": 1216, "failed": 0, "metrics": metrics}


def test_passes_at_the_committed_floors():
    assert perf_gate.check_perfbench(_summary()) == []


@pytest.mark.parametrize("workload", sorted(perf_gate.CELLS_PER_S_FLOORS))
def test_fails_when_one_workload_is_halved(workload):
    halved = perf_gate.CELLS_PER_S_FLOORS[workload] / 2
    problems = perf_gate.check_perfbench(_summary(**{workload: halved}))
    assert len(problems) == 1 and problems[0].startswith(f"{workload}: cells_per_s")


def test_fails_when_perfbench_checks_fail():
    problems = perf_gate.check_perfbench(_summary(correct=False))
    assert problems == ['perfbench output checks failed ("correct": false)']


def test_fails_when_a_workload_is_missing():
    summary = _summary()
    del summary["metrics"]["fanout/cells_per_s"]
    assert perf_gate.check_perfbench(summary) == ["fanout: no cells_per_s in the perfbench output"]


def test_large_n_ceilings_allow_twice_the_committed_time():
    ceilings = perf_gate.LARGE_N_CEILINGS_S
    assert perf_gate.check_large_n(ceilings) == []
    doubled = {system: 2 * seconds for system, seconds in ceilings.items()}
    assert perf_gate.check_large_n(doubled) == []
    slow = dict(ceilings, upnp=2.5 * ceilings["upnp"])
    assert perf_gate.check_large_n(slow) == [
        f"upnp@1000: {slow['upnp']:.3g} s is more than 2x its ceiling {ceilings['upnp']:g} s"
    ]
    missing = {system: s for system, s in ceilings.items() if system != "jini1"}
    assert perf_gate.check_large_n(missing) == ["jini1@1000: not timed"]
