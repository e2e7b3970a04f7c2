"""The simulation engine.

:class:`Simulator` owns the clock and the event calendar.  Protocol models
schedule callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the engine executes them in
deterministic time order.

Two scheduling tiers share the one calendar:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`EventHandle` for cancellation — use these when the caller may need
  to disarm the callback;
* :meth:`Simulator.post` / :meth:`Simulator.post_at` are the flattened
  fire-and-forget tier (message deliveries, retransmissions): no handle and
  no per-event object is allocated, which is what keeps large-N simulations
  (thousands of in-flight deliveries) cheap.

Per-node timers (:mod:`repro.sim.timers`) are ordinary cancellable calendar
entries; the engine only keeps their scheduled/cancelled counts.  Every
entry draws its ``(time, priority, sequence)`` key from the calendar's one
sequence counter, so the firing order is the program order of scheduling.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventQueue, SimulationError
from repro.sim.tracing import Tracer

__all__ = ["EventHandle", "SimulationError", "Simulator"]


class EventHandle:
    """Opaque handle returned by the scheduling API; supports cancellation."""

    __slots__ = ("_event", "_queue")

    def __init__(self, event: Event, queue: EventQueue) -> None:
        self._event = event
        self._queue = queue

    @property
    def time(self) -> float:
        """Absolute time at which the underlying event fires."""
        return self._event.time

    @property
    def active(self) -> bool:
        """``True`` while the event has not been cancelled or fired."""
        event = self._event
        return not event.cancelled and not event.fired

    def cancel(self) -> bool:
        """Cancel the scheduled event.  Returns ``True`` if it was still live."""
        return self._queue.cancel(self._event)


class Simulator:
    """Single-threaded discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).
    tracer:
        Optional :class:`~repro.sim.tracing.Tracer` used by models to record
        structured events.  A fresh tracer is created when omitted.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_running",
        "_stopped",
        "tracer",
        "executed_events",
        "timers_scheduled",
        "timers_cancelled",
    )

    def __init__(self, start_time: float = 0.0, tracer: Optional[Tracer] = None) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self.tracer = tracer if tracer is not None else Tracer()
        self.executed_events = 0
        #: Timers armed / disarmed while live by :mod:`repro.sim.timers`.
        self.timers_scheduled = 0
        self.timers_cancelled = 0

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (not yet fired, not cancelled) events, timers included."""
        return len(self._queue)

    # -------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        queue = self._queue
        return EventHandle(queue.push(self._now + delay, callback, args, priority), queue)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time!r}, current time is {self._now!r}"
            )
        queue = self._queue
        return EventHandle(queue.push(time, callback, args, priority), queue)

    def post(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no per-event allocation.

        The push is inlined: deliveries run through here once per message on
        the hot path.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heappush(queue._heap, (self._now + delay, priority, seq, callback, args))
        if len(queue._heap) > queue.hwm:
            queue.hwm = len(queue._heap)

    def post_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Fire-and-forget :meth:`schedule_at`: no handle, no per-event allocation."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time!r}, current time is {self._now!r}"
            )
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heappush(queue._heap, (time, priority, seq, callback, args))
        if len(queue._heap) > queue.hwm:
            queue.hwm = len(queue._heap)

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a previously scheduled event."""
        return handle.cancel()

    # --------------------------------------------------------------- execution
    def run(self, until: Optional[float] = None) -> float:
        """Run until the calendar empties or the clock reaches ``until``.

        Returns the final simulation time.  When ``until`` is given the clock
        is advanced to exactly ``until`` even if the last event fired earlier.
        The heap is accessed directly here — this loop is the simulation's
        hot path.
        """
        self._running = True
        self._stopped = False
        queue = self._queue
        heap = queue._heap
        # ``inf`` sentinel keeps the per-event bound check to one C-level
        # float comparison instead of an ``is not None`` test plus a compare.
        limit = inf if until is None else until
        pop = heappop
        executed = 0
        try:
            while heap and not self._stopped:
                entry = pop(heap)
                time = entry[0]
                if time > limit:
                    heappush(heap, entry)
                    break
                if len(entry) == 5:
                    self._now = time
                    entry[3](*entry[4])
                else:
                    event = entry[3]
                    if event.cancelled:
                        queue._dead -= 1
                        continue
                    self._now = time
                    event.fired = True
                    event.callback(*event.args)
                executed += 1
        finally:
            self._running = False
            self.executed_events += executed
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def stop(self) -> None:
        """Request the current :meth:`run` loop to stop after the current event."""
        self._stopped = True

    def clear(self) -> None:
        """Drop every pending event and timer (teardown of a finished run)."""
        self._queue.clear()

    # ------------------------------------------------------------------ helpers
    def call_soon(self, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        return self.schedule(0.0, callback, *args)

    def trace(self, category: str, event: str, **fields: Any) -> None:
        """Record a structured trace entry at the current simulation time."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(self._now, category, event, **fields)
