"""Regression battery for the flattened simulator core.

Pins the semantics the large-N hot path must preserve: timers, posts and
events share one calendar and fire in one total order (program order at
equal time and priority), Event cancel/fired state transitions,
fire-and-forget posting, and — critically — that lazy heap compaction keeps
the *same list object*, because the engine's run loop aliases the heap for
the whole run.  A process holding thousands of live handles pays amortised
O(1) bookkeeping per :meth:`~repro.sim.process.Process.after`.
"""

import pytest

from repro.sim.engine import EventHandle, SimulationError, Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.process import Process
from repro.sim.timers import OneShotTimer, PeriodicTimer


# --------------------------------------------------------------- Event record
def test_event_cancel_and_fired_state_transitions():
    event = Event(1.0, 0, 7, lambda: None)
    assert not event.cancelled and not event.fired
    assert event.key == (1.0, 0, 7)
    assert event.fire() is None  # callback returns None
    assert event.fired
    cancelled = Event(2.0, 0, 8, lambda: pytest.fail("must not run"))
    cancelled.cancelled = True
    assert cancelled.fire() is None  # cancelled events never execute
    assert not cancelled.fired


def test_event_ordering_is_time_then_priority_then_sequence():
    a = Event(1.0, 0, 1, lambda: None)
    b = Event(1.0, 0, 2, lambda: None)
    c = Event(1.0, -1, 3, lambda: None)
    d = Event(0.5, 5, 4, lambda: None)
    assert d < c < a < b


# ---------------------------------------------------- one calendar, one order
def _arm(sim, delay, callback, *args):
    timer = OneShotTimer(sim, callback)
    timer.start(delay, *args)
    return timer


def test_timers_and_events_fire_in_one_total_order():
    """Timers draw calendar keys like any event: interleaved schedules at the
    same instant fire in program order."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "event-1")
    _arm(sim, 1.0, fired.append, "timer-1")
    sim.post(1.0, fired.append, "post-1")
    PeriodicTimer(sim, 1.0, lambda: fired.append("periodic")).start()
    _arm(sim, 1.0, fired.append, "timer-2")
    sim.schedule(1.0, fired.append, "event-2")
    sim.run(until=1.0)
    assert fired == ["event-1", "timer-1", "post-1", "periodic", "timer-2", "event-2"]
    assert sim.executed_events == 6


def test_event_priority_beats_timer_insertion_order():
    sim = Simulator()
    fired = []
    _arm(sim, 1.0, fired.append, "timer")
    sim.schedule(1.0, fired.append, "urgent-event", priority=-1)
    sim.run()
    assert fired == ["urgent-event", "timer"]


def test_run_until_leaves_future_timers_armed():
    sim = Simulator()
    fired = []
    late = _arm(sim, 10.0, fired.append, "late-timer")
    sim.schedule(1.0, fired.append, "early")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0
    assert sim.pending_events == 1
    assert late.armed
    sim.run()
    assert fired == ["early", "late-timer"]


def test_timers_reject_negative_delays():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        OneShotTimer(sim, lambda: None).start(-1.0)
    assert sim.pending_events == 0 and sim.timers_scheduled == 0


def test_timer_cancellation_and_live_count():
    sim = Simulator()
    fired = []
    keep = _arm(sim, 2.0, fired.append, "kept")
    drop = _arm(sim, 1.0, fired.append, "dropped")
    assert sim.pending_events == 2
    drop.cancel()
    drop.cancel()  # disarming a disarmed timer is a no-op
    assert sim.pending_events == 1
    assert sim._queue.peek_time() == 2.0
    sim.run()
    assert fired == ["kept"]
    assert sim.pending_events == 0
    keep.cancel()  # fired timers cannot be cancelled
    assert (sim.timers_scheduled, sim.timers_cancelled) == (2, 1)
    assert sim._queue.cancelled_total == 1


# ------------------------------------------------- compaction aliasing (bugfix)
def _trigger_compaction(schedule, cancel, count=200):
    """Arm ``count`` entries and cancel them all, crossing the compaction
    threshold (dead > 64 and dead > half the heap)."""
    handles = [schedule(float(i + 1)) for i in range(count)]
    for handle in handles:
        cancel(handle)


def _timer_churn(sim, offset=0.0, count=200):
    _trigger_compaction(
        lambda t: _arm(sim, t + offset, lambda: None),
        OneShotTimer.cancel,
        count=count,
    )


def test_timer_churn_compaction_keeps_heap_list_identity():
    """Compaction must mutate the heap in place: the run loop aliases the
    list, so rebinding it silently orphans every later-armed timer."""
    sim = Simulator()
    queue = sim._queue
    alias = queue._heap
    _timer_churn(sim)
    assert queue.compactions >= 1
    assert queue._heap is alias
    assert sim.pending_events == 0


def test_queue_compaction_keeps_heap_list_identity():
    queue = EventQueue()
    alias = queue._heap
    _trigger_compaction(
        lambda t: queue.push(t, lambda: None),
        queue.cancel,
    )
    assert queue._heap is alias
    assert len(queue) == 0


def test_timers_scheduled_after_mid_run_compaction_still_fire():
    """End-to-end form of the aliasing regression: cross the compaction
    threshold while the run loop is active, then re-arm — the re-armed
    timers must still fire."""
    sim = Simulator()
    fired = []

    def churn() -> None:
        compactions = sim._queue.compactions
        _timer_churn(sim, offset=50.0)
        assert sim._queue.compactions > compactions
        _arm(sim, 1.0, fired.append, "after-timer-compaction")
        handles = [sim.schedule(60.0, lambda: None) for _ in range(200)]
        for handle in handles:
            handle.cancel()
        sim.post(2.0, fired.append, "after-event-compaction")

    sim.schedule(1.0, churn)
    sim.run(until=100.0)
    assert fired == ["after-timer-compaction", "after-event-compaction"]


def test_periodic_timer_survives_heavy_cancellation_churn():
    """A renewal-style periodic timer must keep ticking while other nodes'
    timers are cancelled en masse (the FRODO large-N pattern)."""
    sim = Simulator()
    ticks = []
    renewal = PeriodicTimer(sim, 10.0, lambda: ticks.append(sim.now))
    renewal.start()

    churn_timer = PeriodicTimer(sim, 7.0, lambda: _timer_churn(sim, offset=100.0, count=80))
    churn_timer.start()
    sim.run(until=100.0)
    assert ticks == [10.0 * i for i in range(1, 11)]
    assert sim._queue.compactions >= 1


# ----------------------------------------------------------- timer helpers
def test_one_shot_timer_restart_replaces_deadline():
    sim = Simulator()
    fired = []
    timer = OneShotTimer(sim, lambda tag: fired.append((sim.now, tag)))
    timer.start(5.0, "first")
    assert timer.armed
    timer.start(2.0, "second")  # re-arm replaces the pending deadline
    sim.run()
    assert fired == [(2.0, "second")]
    assert not timer.armed


def test_one_shot_timer_cancel_disarms():
    sim = Simulator()
    timer = OneShotTimer(sim, lambda: pytest.fail("must not fire"))
    timer.start(1.0)
    timer.cancel()
    assert not timer.armed
    sim.run()


def test_periodic_timer_initial_delay_and_stop():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, 10.0, lambda: ticks.append(sim.now))
    timer.start(initial_delay=3.0)
    assert timer.running
    sim.schedule(25.0, timer.stop)
    sim.run(until=100.0)
    assert ticks == [3.0, 13.0, 23.0]
    assert not timer.running



def test_periodic_timer_restarted_from_its_callback_ticks_once_per_interval():
    """A callback that restarts its own timer re-arms it; the tick must not
    arm a second, orphaned entry on top (which would double every tick)."""
    sim = Simulator()
    ticks = []

    def restart_once() -> None:
        ticks.append(sim.now)
        if len(ticks) == 1:
            timer.start()

    timer = PeriodicTimer(sim, 10.0, restart_once)
    timer.start()
    sim.run(until=50.0)
    assert ticks == [10.0, 20.0, 30.0, 40.0, 50.0]
    timer.stop()
    assert sim.pending_events == 0  # no orphan left that stop() cannot reach


def test_periodic_timer_stopped_from_its_callback_stays_stopped():
    sim = Simulator()
    ticks = []

    def once() -> None:
        ticks.append(sim.now)
        timer.stop()

    timer = PeriodicTimer(sim, 10.0, once)
    timer.start()
    sim.run(until=50.0)
    assert ticks == [10.0]
    assert not timer.running and sim.pending_events == 0


# --------------------------------------------------------------- process handles
def test_after_prunes_owned_handles_in_amortised_linear_time(monkeypatch):
    checks = 0
    active = EventHandle.active.fget

    def counted(handle):
        nonlocal checks
        checks += 1
        return active(handle)

    monkeypatch.setattr(EventHandle, "active", property(counted))
    sim = Simulator()
    process = Process(sim, "holder")
    n = 5000
    # Half the handles fire before the rest are made: the owned list holds
    # spent handles as well as live ones.
    early = [process.after(float(i), lambda: None) for i in range(n // 2)]
    sim.run(until=float(n))
    live = [process.after(float(i), lambda: None) for i in range(n)]
    assert checks <= 4 * n  # a rescan on every call would be O(n**2)
    monkeypatch.undo()

    process.stop()
    assert all(handle._event.fired for handle in early)
    assert all(handle._event.cancelled for handle in live)
    assert sim._queue.cancelled_total == n
    assert len(sim._queue) == 0
