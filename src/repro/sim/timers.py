"""Restartable timer helpers.

Protocol models arm one or more timers per node (renewals, announcements,
time-outs).  A timer is an ordinary cancellable entry in the engine's one
event calendar: arming pushes an :class:`~repro.sim.events.Event`, which
draws its ``(time, priority, sequence)`` key from the calendar's sequence
counter like every other event, and disarming is the calendar's O(1)
cancellation flag (dead entries are compacted away once they outnumber live
ones).  The helpers also keep the simulator's ``timers_scheduled`` /
``timers_cancelled`` counts, which RunTelemetry reports as ``timers.*``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

from repro.sim.events import Event, SimulationError

if TYPE_CHECKING:  # imported for annotations only (engine imports events)
    from repro.sim.engine import Simulator


def _arm(sim: "Simulator", delay: float, callback: Callable[..., Any], args: Tuple = ()) -> Event:
    """Push a timer ``delay`` seconds from now; returns its cancellation record."""
    if delay < 0:
        raise SimulationError(f"negative delay {delay!r}")
    sim.timers_scheduled += 1
    return sim._queue.push(sim._now + delay, callback, args)


def _disarm(sim: "Simulator", event: Event) -> None:
    """Cancel a timer's calendar entry, counting it if it was still live."""
    if sim._queue.cancel(event):
        sim.timers_cancelled += 1


class OneShotTimer:
    """A restartable single-shot timer.

    Used by the protocol models for time-outs (e.g. waiting for an
    acknowledgement): :meth:`start` arms the timer, :meth:`cancel` disarms
    it, and re-arming an armed timer replaces the previous deadline.
    """

    __slots__ = ("_sim", "_callback", "_event")

    def __init__(self, sim: "Simulator", callback: Callable[..., Any]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        """``True`` when a deadline is pending."""
        event = self._event
        return event is not None and not event.cancelled and not event.fired

    def start(self, delay: float, *args: Any) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        self.cancel()
        self._event = _arm(self._sim, delay, self._fire, args)

    def cancel(self) -> None:
        """Disarm the timer if it is armed."""
        event = self._event
        if event is not None:
            _disarm(self._sim, event)
            self._event = None

    def _fire(self, *args: Any) -> None:
        self._event = None
        self._callback(*args)


class PeriodicTimer:
    """A repeating timer with optional initial offset and per-tick jitter."""

    __slots__ = ("_sim", "interval", "_callback", "_jitter", "_event", "_running")

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[[], Any],
        jitter: Optional[Callable[[], float]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._jitter = jitter
        self._event: Optional[Event] = None
        self._running = False

    @property
    def running(self) -> bool:
        """``True`` while the timer is active."""
        return self._running

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Start ticking; the first tick fires after ``initial_delay`` (default: one interval)."""
        self.stop()
        self._running = True
        delay = self.interval if initial_delay is None else initial_delay
        self._event = _arm(self._sim, max(0.0, delay), self._tick)

    def stop(self) -> None:
        """Stop ticking."""
        self._running = False
        event = self._event
        if event is not None:
            _disarm(self._sim, event)
            self._event = None

    def _tick(self) -> None:
        event = self._event
        self._callback()
        # The callback may have stopped the timer, or restarted it (which
        # armed a new entry); either way this tick must not re-arm it.
        if not self._running or self._event is not event:
            return
        delay = self.interval
        if self._jitter is not None:
            delay = max(0.0, delay + self._jitter())
        self._event = _arm(self._sim, delay, self._tick)
