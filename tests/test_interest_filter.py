"""Interest-filter differential battery.

Multicast copies, and unicasts sent without an ``on_delivered`` callback
(TCP SYN / SYN-ACK segments above all), are posted only to endpoints that
handle their kind.  The reference is broadcast delivery
(:func:`pinned_outputs.broadcast_delivery`): every endpoint receives every
message and drops the kinds it has no handler for.  This battery pins that
the two are the same simulation:

* under the reference, the fixtures pinned before filtering existed still
  match exactly (serial sweeps), except for the calendar heap-shape counters
  (``pinned_outputs.CALENDAR_SHAPE``), which the one-calendar engine
  changed, and ``net.filtered``, which the fixtures predate (0 under the
  reference); every count of work matches, ``executed_events`` included;
* for every registered system x {table4, lossy, partition, churn, restart},
  every result field is equal between the two modes;
* the work filtering saves is accounted for exactly: every calendar key not
  drawn is a filtered delivery, and filtered deliveries plus the ones that
  arrived (or hit a downed receiver, or were still in flight at the
  deadline) add up to the reference's.
"""

import json

import pytest

from pinned_outputs import (
    FAMILY_FIXTURES,
    FIXTURE_DIR,
    TABLE4_ARGS,
    broadcast_delivery,
    strip_scenario_telemetry,
    without_calendar_shape,
    without_cost_counters,
)
from repro.experiments import ExperimentRunner, ScenarioSpec
from repro.net.interfaces import Endpoint
from repro.protocols.registry import SYSTEMS
from repro.__main__ import main

SCENARIOS = ("table4", "lossy", "partition", "churn", "restart")
RATES = (0.0, 0.3)


@pytest.fixture
def broadcast():
    with broadcast_delivery():
        yield


# --------------------------------------------------------------------------- reference
def test_reference_reproduces_table4_per_run_fixture(tmp_path, broadcast):
    out = tmp_path / "per_run.json"
    assert main(["sweep", *TABLE4_ARGS, "--per-run", "--out", str(out)]) == 0
    produced = strip_scenario_telemetry(json.loads(out.read_text()))
    fixture = json.loads(open(f"{FIXTURE_DIR}/table4_pre_pr_per_run.json").read())
    assert without_calendar_shape(produced) == without_calendar_shape(fixture)


@pytest.mark.parametrize("scenario", sorted(FAMILY_FIXTURES))
def test_reference_reproduces_family_fixture(tmp_path, broadcast, scenario):
    fixture, systems = FAMILY_FIXTURES[scenario]
    out = tmp_path / "serial.json"
    argv = ["sweep", *systems, "--rates", "0,20", "--runs", "2", "--per-run"]
    assert main([*argv, "--out", str(out)]) == 0
    expected = json.loads(open(fixture).read())
    produced = json.loads(out.read_text())
    for run in produced["runs"]:
        # Every endpoint subscribes to every kind; the fixture predates the counter.
        assert run["details"]["telemetry"]["net"].pop("filtered") == 0
    assert without_calendar_shape(produced) == without_calendar_shape(expected)


# --------------------------------------------------------------------------- differential
def _run(spec):
    """(result dict, network.filtered, deliveries still in the calendar)."""
    runner = ExperimentRunner()
    context = runner.setup(spec)
    result = runner.execute(context)
    in_flight = sum(
        1
        for entry in context.sim._queue._heap
        if len(entry) == 5 and getattr(entry[3], "__func__", None) is Endpoint.deliver
    )
    return result.to_dict(), context.network.filtered, in_flight


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("system", SYSTEMS.names())
def test_filtered_and_broadcast_runs_agree(system, scenario):
    for rate in RATES:
        spec = dict(system=system, failure_rate=rate, seed=1, scenario=scenario)
        filtered_run, filtered, in_flight = _run(ScenarioSpec(**spec))
        with broadcast_delivery():
            reference, ref_filtered, ref_in_flight = _run(ScenarioSpec(**spec))
        assert ref_filtered == 0
        assert without_cost_counters(filtered_run) == without_cost_counters(reference)

        engine = filtered_run["details"]["telemetry"]["engine"]
        ref_engine = reference["details"]["telemetry"]["engine"]
        assert ref_engine["events_scheduled"] - engine["events_scheduled"] == filtered

        # A filtered copy due after the deadline would still be in flight
        # under the reference, so in-flight deliveries join both sides.
        net = filtered_run["details"]["telemetry"]["net"]
        ref_net = reference["details"]["telemetry"]["net"]
        assert (net["filtered"], ref_net["filtered"]) == (filtered, 0)
        assert (
            net["delivered"] + net["dropped_rx"] + in_flight + filtered
            == ref_net["delivered"] + ref_net["dropped_rx"] + ref_in_flight
        )


def test_filtering_removes_most_deliveries_at_scale():
    """The battery is not vacuous: at N=20 most multicast copies are filtered."""
    spec = dict(system="upnp", failure_rate=0.2, seed=1, n_users=20)
    filtered_run, filtered, _ = _run(ScenarioSpec(**spec))
    with broadcast_delivery():
        reference, _, _ = _run(ScenarioSpec(**spec))
    assert without_cost_counters(filtered_run) == without_cost_counters(reference)
    assert filtered > filtered_run["details"]["telemetry"]["net"]["delivered"]
    assert filtered_run["details"]["executed_events"] < reference["details"]["executed_events"]
