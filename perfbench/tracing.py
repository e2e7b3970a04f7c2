"""Layer attribution for the traced run, from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer in place
(class or module attributes) for the duration of one traced pass and puts
the originals back afterwards.  Every wrapper times its call with
``perf_counter`` and keeps a stack, so a span's *self time* is its duration
minus the time covered by the wrapped calls it made.  Spans of one sweep
cell share the cell key; harness spans outside any cell use ``HARNESS``.

Two kinds of span are kept in memory until :meth:`LayerTracer.write`:

* harness-level spans (sweep, runner set-up/execute/collect, the engine run,
  checkpoint, report, ...) are recorded one by one with start, end, self
  time and the id of the span that caused them;
* the per-message spans (deliveries, sends, handlers: about a million per
  fan-out cell) are folded into per-cell ``calls / total / self`` rows as
  they close, which keeps memory flat.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
from typing import Any, Callable, Dict, List, Tuple

HARNESS = "<harness>"

#: Protocol families whose node classes' ``handle_*`` methods are wrapped.
FAMILIES = ("frodo", "upnp", "jini", "federation")

# name -> [calls, total seconds, self seconds]
Slots = Dict[str, List[float]]


class LayerTracer:
    def __init__(self, cell_keys: Dict[Tuple[Any, ...], str]) -> None:
        #: (system, users, rate, seed, scenario token) -> sweep cell key.
        self.cell_keys = cell_keys
        self.cells: Dict[str, Slots] = {HARNESS: {}}
        #: Harness-level spans: (id, parent id, cell, name, start, end, self).
        self.spans: List[Tuple[int, int, str, str, float, float, float]] = []
        self._current: Slots = self.cells[HARNESS]
        self._cell = HARNESS
        # One frame per open span: [child seconds, is a protocol handler].
        self._stack: List[List[Any]] = []
        self._span_ids: List[int] = [0]
        self._origin = time.perf_counter()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ wrappers
    def _close(self, name: str, start: float, end: float, frame: List[Any]) -> float:
        total = end - start
        stack = self._stack
        if stack:
            stack[-1][0] += total
        slot = self._current.get(name)
        if slot is None:
            slot = self._current[name] = [0, 0.0, 0.0]
        slot[0] += 1
        slot[1] += total
        slot[2] += total - frame[0]
        return total - frame[0]

    def timed(self, name: str, fn: Callable[..., Any], handler: bool = False) -> Callable:
        """Wrap ``fn`` as a folded (per-cell aggregated) span."""
        stack = self._stack
        clock = time.perf_counter
        close = self._close
        dispatch = f"{name}.dispatch" if handler else None

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if dispatch is not None and not (stack and stack[-1][1]):
                # Outermost handler frame: one dispatched message (a super()
                # call into the parent family's handler is not a second one).
                slot = self._current.get(dispatch)
                if slot is None:
                    slot = self._current[dispatch] = [0, 0.0, 0.0]
                slot[0] += 1
            frame = [0.0, handler]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(name, start, end, frame)

        return wrapper

    def spanned(self, name: str, fn: Callable[..., Any]) -> Callable:
        """Wrap ``fn`` as an individually recorded harness-level span."""
        stack = self._stack
        span_ids = self._span_ids
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = len(self.spans) + 1
            parent = span_ids[-1]
            span_ids.append(span_id)
            self.spans.append(None)  # reserve the id; filled in on close
            frame = [0.0, False]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_ids.pop()
                own = self._close(name, start, end, frame)
                self.spans[span_id - 1] = (
                    span_id,
                    parent,
                    self._cell,
                    name,
                    start - self._origin,
                    end - self._origin,
                    own,
                )

        return wrapper

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable:
        """Wrap ``fn`` to count its calls only (no span)."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            slot = self._current.get(name)
            if slot is None:
                slot = self._current[name] = [0, 0.0, 0.0]
            slot[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _cell_run(self, fn: Callable[..., Any]) -> Callable:
        """``ExperimentRunner.run``: switch the span bucket to the cell's key."""
        inner = self.spanned("experiments.run", fn)

        def wrapper(runner: Any, spec: Any) -> Any:
            key = self.cell_keys[
                (spec.system, spec.n_users, spec.failure_rate, spec.seed, spec.scenario_token)
            ]
            outer_current, outer_cell = self._current, self._cell
            self._current = self.cells.setdefault(key, {})
            self._cell = key
            try:
                return inner(runner, spec)
            finally:
                self._current, self._cell = outer_current, outer_cell

        return wrapper

    def _tcp_send(self, fn: Callable[..., Any]) -> Callable:
        """``TcpTransport.send``: also time and count its ``on_rex`` callback."""
        timed = self.timed

        def send(transport: Any, message: Any, on_delivered: Any = None, on_rex: Any = None):
            if on_rex is not None:
                on_rex = timed("net.tcp_rex", on_rex)
            return fn(transport, message, on_delivered, on_rex)

        return self.timed("net.tcp", send)

    def _count_views(self, fn: Callable[..., Any]) -> Callable:
        return self.counted("core.views", fn)

    def _handler(self, name: str) -> Callable[[Any], Any]:
        return lambda fn: self.timed(name, fn, handler=True)

    # ------------------------------------------------------------------ install
    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from repro.core.consistency import ConsistencyTracker
        from repro.core.metrics import MetricSummary
        from repro.discovery.node import DiscoveryNode
        from repro.net.interfaces import Endpoint
        from repro.net.network import Network
        from repro.net.tcp import TcpTransport
        from repro.protocols.registry import DeploymentRegistry
        from repro.sim.engine import Simulator

        # Modules, not the same-named functions the package re-exports.
        report = importlib.import_module("repro.experiments.report")
        runner = importlib.import_module("repro.experiments.runner")
        sweep = importlib.import_module("repro.experiments.sweep")

        def spanned(name: str) -> Callable[[Any], Any]:
            return lambda fn: self.spanned(name, fn)

        def timed(name: str) -> Callable[[Any], Any]:
            return lambda fn: self.timed(name, fn)

        runner_cls = runner.ExperimentRunner
        self._patch(sweep, "sweep", spanned("experiments.sweep"))
        self._patch(sweep.SweepSpec, "validate", spanned("experiments.plan"))
        self._patch(sweep.SweepSpec, "expand", spanned("experiments.plan"))
        self._patch(sweep, "append_checkpoint", spanned("experiments.checkpoint"))
        self._patch(report, "sweep_to_dict", spanned("experiments.report"))
        self._patch(report, "to_json", spanned("experiments.report"))
        self._patch(runner_cls, "run", self._cell_run)
        self._patch(runner_cls, "setup", spanned("experiments.setup"))
        self._patch(runner_cls, "execute", spanned("experiments.execute"))
        self._patch(runner_cls, "collect", spanned("experiments.collect"))
        self._patch(runner, "collect_run_telemetry", spanned("obs.telemetry"))
        self._patch(DeploymentRegistry, "build", spanned("protocols.build"))
        self._patch(Simulator, "run", spanned("sim.run"))
        self._patch(MetricSummary, "from_runs", spanned("core.summary"))
        self._patch(Network, "transmit_unicast", timed("net.unicast"))
        self._patch(Network, "transmit_multicast", timed("net.multicast"))
        # Redundant multicast copies after the first are emitted from the
        # event calendar, not from inside transmit_multicast.
        if "_emit_multicast_copy" in Network.__dict__:
            self._patch(Network, "_emit_multicast_copy", timed("net.multicast"))
        self._patch(Endpoint, "deliver", timed("net.deliver"))
        self._patch(TcpTransport, "send", self._tcp_send)
        self._patch(DiscoveryNode, "on_unhandled", timed("discovery.unhandled"))
        self._patch(ConsistencyTracker, "record_view", self._count_views)
        for family, cls in _node_classes(DiscoveryNode):
            for attr, value in list(cls.__dict__.items()):
                if attr.startswith("handle_") and inspect.isfunction(value):
                    self._patch(cls, attr, self._handler(f"protocols.{family}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ results
    def calls(self, name: str) -> int:
        return int(sum(slots.get(name, (0,))[0] for slots in self.cells.values()))

    def total(self, name: str) -> float:
        return sum(slots[name][1] for slots in self.cells.values() if name in slots)

    def self_time(self, name: str) -> float:
        return sum(slots[name][2] for slots in self.cells.values() if name in slots)

    def self_time_mismatches(self, tolerance: float = 1e-6) -> List[str]:
        """Cells whose layer self times do not add up to their run span."""
        bad = []
        for key, slots in self.cells.items():
            if key == HARNESS:
                continue
            run_total = slots["experiments.run"][1]
            covered = sum(slot[2] for slot in slots.values())
            if abs(covered - run_total) > tolerance + 1e-9 * run_total:
                bad.append(f"{key}: self times {covered!r} != run span {run_total!r}")
        return bad

    def write(self, path: str) -> None:
        """Write every span and folded row as NDJSON."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                span_id, parent, cell, name, start, end, own = span
                record = {
                    "type": "span",
                    "id": span_id,
                    "parent": parent,
                    "cell": cell,
                    "name": name,
                    "start_s": start,
                    "end_s": end,
                    "self_s": own,
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            for cell, slots in self.cells.items():
                for name, (calls, total, own) in sorted(slots.items()):
                    record = {
                        "type": "folded",
                        "cell": cell,
                        "name": name,
                        "calls": int(calls),
                        "total_s": total,
                        "self_s": own,
                    }
                    handle.write(json.dumps(record, sort_keys=True) + "\n")


def _node_classes(base: type) -> List[Tuple[str, type]]:
    """(family, class) for every discovery-node class defined in a protocol family."""
    found = []
    for family in FAMILIES:
        package = importlib.import_module(f"repro.protocols.{family}")
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for module in modules:
            for value in vars(module).values():
                if (
                    isinstance(value, type)
                    and issubclass(value, base)
                    and value.__module__ == module.__name__
                ):
                    found.append((family, value))
    return found
