"""Shared helpers for the tests that compare runs against pinned outputs.

Delivery is interest-filtered: a multicast copy, or a unicast without an
``on_delivered`` callback, is posted only to endpoints that handle its kind.
Filtering never changes a result, only the work done, so the tests compare
result fields against the pinned fixtures and leave out the cost counters
that count that work.  :func:`broadcast_delivery` restores the unfiltered
reference (every endpoint receives every kind), under which the fixtures
still match byte for byte.  It exists only here: the program has no option
for it.

A multicast copy skips each run of non-subscribers with one
``getrandbits`` call instead of drawing and discarding a delay per
receiver.  :func:`per_draw_delivery` restores the per-receiver draw loop,
which must give the same run in every field, cost counters included.
"""

import contextlib
import copy

from repro.net.network import Network

FIXTURE_DIR = "tests/data"

#: The grid the pre-scenario fixtures were captured with (seed 0, runs 2).
TABLE4_ARGS = ["--system", "frodo3,upnp,jini2", "--rates", "0,20,40", "--runs", "2"]

#: Per-run sweeps of the non-legacy Jini family, pinned before the Jini
#: roles and their federated subclasses were merged: scenario ->
#: (fixture path, sweep arguments).
FAMILY_FIXTURES = {
    "table4": (
        f"{FIXTURE_DIR}/jini_family_pre_merge_sweep.json",
        [
            "--system",
            "jini@k=8",
            "--system",
            "jini@k=4,mode=pull",
            "--system",
            "jini@assign=partition,k=4,mode=gossip,topology=ring",
        ],
    ),
    "partition": (
        f"{FIXTURE_DIR}/jini_family_pre_merge_partition_sweep.json",
        [
            "--system",
            "jini@k=4,mode=pull",
            "--system",
            "jini@k=4,mode=gossip",
            "--scenario",
            "partition",
        ],
    ),
}

#: RunTelemetry counters that count calendar events and deliveries, which
#: interest filtering moves: section -> keys.  ``net.filtered`` (schema
#: version 4) counts the deliveries it saves; the fixtures predate it.
COST_TELEMETRY = {
    "engine": ("events_scheduled", "events_fired"),
    "net": ("delivered", "dropped_rx", "filtered"),
}

#: RunTelemetry counters that describe the calendar heap's shape rather than
#: the work done: section -> keys.  The fixtures were pinned while timers
#: had a heap of their own; with one calendar the engine pair measures a
#: different heap and the timers pair is gone (schema version 3).  Every
#: count of work (keys drawn, events fired and cancelled, timers armed and
#: disarmed) is unchanged.
CALENDAR_SHAPE = {
    "engine": ("heap_hwm", "heap_compactions"),
    "timers": ("heap_hwm", "compactions"),
}


def strip_scenario_telemetry(data):
    """Remove the fields the scenario layer added to per-run telemetry.

    The simulation itself must be untouched by the scenario layer; only the
    *reporting* grew (schema version 2: a ``failures`` section and the
    ``net.link_losses`` counter; version 4: the ``net.filtered`` counter).
    Schema version 3 only dropped calendar shape counters, which
    :func:`without_calendar_shape` leaves out.
    """
    for run in data["runs"]:
        telemetry = run["details"]["telemetry"]
        assert telemetry["version"] == 4
        telemetry.pop("failures", None)
        assert telemetry["net"].pop("link_losses") == 0  # table4 has no loss windows
        del telemetry["net"]["filtered"]
    return data


def _without_shape(run):
    """A copy of one run's dict without the schema version and ``CALENDAR_SHAPE``."""
    run = copy.deepcopy(run)
    telemetry = run["details"]["telemetry"]
    del telemetry["version"]
    for section, keys in CALENDAR_SHAPE.items():
        for key in keys:
            telemetry[section].pop(key, None)
    return run


def without_cost_counters(run):
    """A copy of one run's dict without the counters filtering lowers."""
    run = _without_shape(run)
    details = run["details"]
    del details["executed_events"]
    telemetry = details["telemetry"]
    for section, keys in COST_TELEMETRY.items():
        for key in keys:
            telemetry[section].pop(key, None)  # fixtures have no ``filtered``
    return run


def _map_runs(data, strip):
    data = dict(data)
    data["runs"] = [strip(run) for run in data["runs"]]
    return data


def without_calendar_shape(data):
    """A per-run sweep dict with only every run's heap-shape counters left out."""
    return _map_runs(data, _without_shape)


def results_only(data):
    """A per-run sweep dict with every run's cost counters left out."""
    return _map_runs(data, without_cost_counters)


def cost_counters(data):
    """Every run's coordinates and cost counters (the cost fixture's layout)."""
    return [
        {
            "system": run["system"],
            "failure_rate": run["failure_rate"],
            "seed": run["seed"],
            "executed_events": run["details"]["executed_events"],
            **{
                section: run["details"]["telemetry"][section]
                for section in ("engine", "timers", "net")
            },
        }
        for run in data["runs"]
    ]


@contextlib.contextmanager
def broadcast_delivery():
    """Deliver every multicast copy to every endpoint, as before filtering.

    Every endpoint that joins a network meanwhile subscribes to all kinds
    (``kinds = None``).  It patches this process only, so use it with
    serial runs.
    """
    join = Network.join

    def join_everything(self, endpoint):
        endpoint.kinds = None
        return join(self, endpoint)

    Network.join = join_everything
    try:
        yield
    finally:
        Network.join = join


def _emit_per_draw(self, message, sender_ep, state, copies):
    """``Network._emit_multicast_copy`` as it was before skip-ahead.

    Every non-sender endpoint, in join order, runs the cut check and the
    loss and delay draws; only subscribers are posted to.
    """
    if self._endpoints.get(message.sender) is not sender_ep:
        return False
    if not sender_ep.interface.can_send():
        sender_ep.interface.counters.dropped_tx += 1
        return False
    if not state["recorded"]:
        state["recorded"] = True
        self.record_send(message, copies)
    sender_ep.interface.counters.sent += 1
    config = self.config
    sender = message.sender
    for address, endpoint in self._endpoints.items():
        if address == sender:
            continue
        if self._cut_links and frozenset((sender, address)) in self._cut_links:
            self.link_cut_drops += 1
            continue
        if self._loss_p and self._loss_rand() < self._loss_p:
            self.link_losses += 1
            continue
        delay = config.min_delay + (config.max_delay - config.min_delay) * self._rand()
        if endpoint.kinds is None or message.kind in endpoint.kinds:
            self.sim.post(delay, endpoint.deliver, message)
        else:
            self.filtered += 1
    return True


@contextlib.contextmanager
def per_draw_delivery():
    """Draw one delay per multicast receiver, as before skip-ahead.

    It patches this process only, so use it with serial runs.
    """
    emit = Network._emit_multicast_copy
    Network._emit_multicast_copy = _emit_per_draw
    try:
        yield
    finally:
        Network._emit_multicast_copy = emit
