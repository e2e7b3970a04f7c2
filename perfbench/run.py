"""The repository benchmark: sweep workloads, end-to-end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Each workload (see ``workloads.py``) is swept serially in this process
through the public ``sweep()`` API, with a checkpoint journal and a JSON
report per grid, and every result passes the checks in ``checks.py``.

``--trace 0`` measures the end-to-end metrics with tracing off: ``setup_s``
from fresh interpreters (``setup_probe.py``), then passes of the workload on
fresh seeds until ``--seconds`` are spent (at least ``min_passes``).  Its
timings are scaled to a reference host with ``reference.py``; the raw host
values are printed next to them.

``--trace 1`` sweeps the workload's first pass twice, untraced and then
traced (``tracing.py``), requires byte-identical results JSON and per-cell
self times that add up to the cell's run span, and reports the per-layer
metrics in host time.  Spans go to ``.perfbench/trace-<workload>-seed<n>.ndjson``.

Human-readable lines go to stdout first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every check passed, 1 when one failed and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from reference import REFERENCE_S, kernel_seconds
from tracing import FAMILIES, LayerTracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Fresh interpreters timed for ``setup_s`` (after one untimed warm-up that
#: compiles the bytecode of a fresh checkout); the median is reported.
SETUP_REPEATS = 7

#: A cell running longer than this counts as failed (timed out).
CELL_TIMEOUT_S = 150.0

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_p50_s": "s",
    "cell_tail_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "sim.events_fired": "count",
    "sim.events_scheduled": "count",
    "sim.events_cancelled": "count",
    "sim.timers_scheduled": "count",
    "sim.timers_cancelled": "count",
    "sim.heap_hwm": "count",
    "sim.self_s": "s",
    "sim.host_us_per_event": "us",
    "net.sends": "count",
    "net.send_copies": "count",
    "net.multicast_sends": "count",
    "net.delivered": "count",
    "net.dropped_tx": "count",
    "net.dropped_rx": "count",
    "net.link_losses": "count",
    "net.link_cut_drops": "count",
    "net.multicast_s": "s",
    "net.deliver_s": "s",
    "net.unicast_s": "s",
    "net.tcp_exchanges": "count",
    "net.tcp_rex": "count",
    "net.tcp_s": "s",
    "discovery.unhandled": "count",
    "discovery.unhandled_s": "s",
    "discovery.handled_ratio": "ratio",
    **{f"protocols.{family}.handled": "count" for family in FAMILIES},
    **{f"protocols.{family}.handler_s": "s" for family in FAMILIES},
    "protocols.build_s": "s",
    "core.update_messages": "count",
    "core.views_recorded": "count",
    "core.summary_s": "s",
    "experiments.setup_s": "s",
    "experiments.plan_s": "s",
    "experiments.execute_s": "s",
    "experiments.collect_s": "s",
    "experiments.harness_s": "s",
    "experiments.checkpoint_s": "s",
    "experiments.checkpoint_bytes": "bytes",
    "experiments.report_s": "s",
    "experiments.report_bytes": "bytes",
    "experiments.cells_retried": "count",
    "obs.telemetry_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


class CellClock:
    """Sweep progress hook that keeps each executed cell's host seconds."""

    def __init__(self) -> None:
        self.walls: List[float] = []

    def start(self, total: int, resumed: int = 0) -> None:
        pass

    def cell_done(self, key: str, wall_seconds: Optional[float] = None) -> None:
        self.walls.append(wall_seconds)

    def cell_failed(self, key: str, error: str) -> None:
        pass

    def finish(self) -> None:
        pass


@dataclass
class Pass:
    """One pass of a workload: every grid swept, checked and reported."""

    results: List[Any]
    report: str
    wall: float
    cell_walls: List[float]
    checkpoint_bytes: int
    retried: int
    cells: int
    failed: int
    messages: List[str] = field(default_factory=list)


def run_pass(specs: Sequence[Any], work_dir: str) -> Pass:
    from checks import check_sweep
    from repro.experiments import ResiliencePolicy, SerialExecutor

    # Through module attributes, so the traced run's wrappers are the ones called.
    sweep_module = importlib.import_module("repro.experiments.sweep")
    report = importlib.import_module("repro.experiments.report")
    policy = ResiliencePolicy(cell_timeout=CELL_TIMEOUT_S, max_cell_failures=1 << 30)
    clock = CellClock()
    results, reports = [], []
    journal_bytes = retried = 0
    started = time.perf_counter()
    for index, spec in enumerate(specs):
        journal = os.path.join(work_dir, f"grid{index}.jsonl")
        if os.path.exists(journal):
            os.remove(journal)
        executor = SerialExecutor()
        result = sweep_module.sweep(
            spec, executor=executor, checkpoint=journal, progress=clock, policy=policy
        )
        text = report.to_json(report.sweep_to_dict(result, include_runs=True))
        with open(os.path.join(work_dir, f"grid{index}.json"), "w", encoding="utf-8") as out:
            out.write(text)
        results.append(result)
        reports.append(text)
        journal_bytes += os.path.getsize(journal)
        retried += executor.last_stats.retried_cells
    wall = time.perf_counter() - started
    done = Pass(results, "".join(reports), wall, clock.walls, journal_bytes, retried, 0, 0)
    for spec, result in zip(specs, results):
        failed, messages = check_sweep(result)
        done.cells += spec.total_runs
        done.failed += failed
        done.messages.extend(messages)
    return done


def time_setup(workload: str, seed: int) -> Tuple[List[float], List[float]]:
    """``setup_s`` samples, one fresh interpreter each, and the kernel times between them."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples, kernels = [], [kernel_seconds()]
    for attempt in range(SETUP_REPEATS + 1):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if attempt:
            samples.append(float(done.stdout.strip().splitlines()[-1]) - started)
            kernels.append(kernel_seconds())
    return samples, kernels


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def measure_end_to_end(workload: Any, seed: int, seconds: float, work_dir: str):
    from checks import cost_counters, results_digest

    setup, setup_kernels = time_setup(workload.name, seed)
    passes: List[Pass] = []
    kernels = [kernel_seconds()]
    started = time.perf_counter()
    while True:
        passes.append(run_pass(workload.specs(seed, len(passes)), work_dir))
        kernels.append(kernel_seconds())
        if len(passes) > 1:
            # Only pass 0 is reported on; keeping every pass would make
            # peak_rss_mb grow with the number of passes that fit.
            passes[-1].results, passes[-1].report = [], ""
        elapsed = time.perf_counter() - started
        if len(passes) >= workload.min_passes and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    tail_pct = workload.tail_percentile()
    attempted = sum(done.cells for done in passes)

    def summary(setup_factor: float, factor: float) -> Dict:
        walls = [wall * factor for done in passes for wall in done.cell_walls]
        return {
            "setup_s": statistics.median(setup) * setup_factor,
            "cells_per_s": attempted / sum(done.wall for done in passes) / factor,
            "cell_p50_s": statistics.median(walls),
            "cell_tail_s": percentile(walls, tail_pct),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    metrics = summary(
        REFERENCE_S / statistics.median(setup_kernels), REFERENCE_S / statistics.median(kernels)
    )
    host = summary(1.0, 1.0)
    failed = sum(done.failed for done in passes)
    print(f"{workload.name}: {len(passes)} passes, {attempted} cells, seed {seed}")
    print(f"  {'metric':<18} {'reference':>14} {'host':>14}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<18} {metrics[name]:>14.6g} {host[name]:>14.6g} {unit}")
    print(f"  {'cells_failed_frac':<18} {failed / attempted:>14.6g} ({failed}/{attempted})")
    cells = sum(len(done.cell_walls) for done in passes)
    print(f"  cell_tail_s is p{tail_pct} of {cells} cells; setup_s of {len(setup)} starts")
    rates = " ".join(f"{done.cells / done.wall:.4g}" for done in passes)
    print(f"  per-pass host cells/s: {rates}")
    print(f"  reference kernel ms: {' '.join(f'{1000 * k:.3g}' for k in setup_kernels + kernels)}")
    print(f"  pass-0 digest {results_digest(passes[0].results)}")
    print(f"  pass-0 counts {json.dumps(cost_counters(passes[0].results), sort_keys=True)}")
    messages = [message for done in passes for message in done.messages]
    out = {name: metric(metrics[name], unit) for name, unit in END_TO_END.items()}
    return out, attempted, failed, messages


def layer_metrics(untraced: Pass, traced: Pass, tracer: Any) -> Dict[str, float]:
    engine = ("events_fired", "events_scheduled", "events_cancelled")
    sums: Dict[str, float] = {f"sim.{name}": 0 for name in engine}
    sums.update({"sim.timers_scheduled": 0, "sim.timers_cancelled": 0, "sim.heap_hwm": 0})
    net = ("sends", "send_copies", "multicast_sends", "delivered", "dropped_tx", "dropped_rx")
    sums.update({f"net.{name}": 0 for name in net + ("link_losses", "link_cut_drops")})
    sums["core.update_messages"] = 0
    for result in untraced.results:
        for run in result.runs:
            telemetry = run.details["telemetry"]
            for name in engine:
                sums[f"sim.{name}"] += telemetry["engine"][name]
            sums["sim.timers_scheduled"] += telemetry["timers"]["scheduled"]
            sums["sim.timers_cancelled"] += telemetry["timers"]["cancelled"]
            sums["sim.heap_hwm"] = max(sums["sim.heap_hwm"], telemetry["engine"]["heap_hwm"])
            for name in net + ("link_losses",):
                sums[f"net.{name}"] += telemetry["net"][name]
            sums["net.link_cut_drops"] += telemetry.get("failures", {}).get("link_cut_drops", 0)
            sums["core.update_messages"] += run.update_message_count
    self_s = tracer.self_time
    unhandled = tracer.calls("discovery.unhandled")
    delivered = sums["net.delivered"]
    harness_s = tracer.total("experiments.sweep") - tracer.total("experiments.run")
    sums.update(
        {
            "sim.self_s": self_s("sim.run"),
            "sim.host_us_per_event": 1e6 * sum(untraced.cell_walls) / sums["sim.events_fired"],
            "net.multicast_s": self_s("net.multicast"),
            "net.deliver_s": self_s("net.deliver"),
            "net.unicast_s": self_s("net.unicast"),
            "net.tcp_exchanges": tracer.calls("net.tcp"),
            "net.tcp_rex": tracer.calls("net.tcp_rex"),
            "net.tcp_s": self_s("net.tcp") + self_s("net.tcp_rex"),
            "discovery.unhandled": unhandled,
            "discovery.unhandled_s": self_s("discovery.unhandled"),
            "discovery.handled_ratio": (delivered - unhandled) / delivered if delivered else 0.0,
            "protocols.build_s": self_s("protocols.build"),
            "core.views_recorded": tracer.calls("core.views"),
            "core.summary_s": self_s("core.summary"),
            "experiments.setup_s": self_s("experiments.setup"),
            "experiments.plan_s": self_s("experiments.plan"),
            # ExperimentRunner.run's own glue is part of executing the cell.
            "experiments.execute_s": self_s("experiments.execute") + self_s("experiments.run"),
            "experiments.collect_s": self_s("experiments.collect"),
            "experiments.harness_s": harness_s,
            "experiments.checkpoint_s": self_s("experiments.checkpoint"),
            "experiments.checkpoint_bytes": untraced.checkpoint_bytes,
            "experiments.report_s": self_s("experiments.report"),
            "experiments.report_bytes": len(untraced.report.encode("utf-8")),
            "experiments.cells_retried": untraced.retried + traced.retried,
            "obs.telemetry_s": self_s("obs.telemetry"),
            "bench.trace_overhead_frac": traced.wall / untraced.wall - 1,
        }
    )
    for family in FAMILIES:
        sums[f"protocols.{family}.handled"] = tracer.calls(f"protocols.{family}.dispatch")
        sums[f"protocols.{family}.handler_s"] = self_s(f"protocols.{family}")
    return sums


def measure_layers(workload: Any, seed: int, work_dir: str):
    specs = workload.specs(seed)
    keys = {
        (
            cell.scenario.system,
            cell.scenario.n_users,
            cell.scenario.failure_rate,
            cell.scenario.seed,
            cell.scenario.scenario_token,
        ): cell.key
        for spec in specs
        for cell in spec.expand()
    }
    untraced = run_pass(specs, work_dir)
    tracer = LayerTracer(keys)
    with tracer:
        traced = run_pass(specs, work_dir)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.ndjson")
    tracer.write(trace_path)

    messages = untraced.messages + traced.messages
    failed = untraced.failed + traced.failed
    if traced.report != untraced.report:
        messages.append("traced results JSON differs from the untraced results JSON")
        failed += traced.cells
    mismatches = tracer.self_time_mismatches()
    messages.extend(mismatches)
    failed += len(mismatches)
    values = layer_metrics(untraced, traced, tracer)
    print(f"{workload.name}: traced pass of {traced.cells} cells, seed {seed} -> {trace_path}")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<30} {values[name]:>16.6g} {unit}")
    print(
        f"  discovery.handled_ratio base: {values['net.delivered']:.0f} deliveries, "
        f"{values['discovery.unhandled']:.0f} unhandled"
    )
    out = {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
    return out, untraced.cells + traced.cells, min(failed, untraced.cells + traced.cells), messages


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to benchmark at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; known: all, {', '.join(WORKLOADS)}")

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir)
    metrics: Dict[str, Any] = {}
    attempted = failed = 0
    messages: List[str] = []
    try:
        for workload in chosen:
            if args.trace:
                found = measure_layers(workload, args.seed, work_dir)
            else:
                found = measure_end_to_end(workload, args.seed, args.seconds, work_dir)
            values, tried, bad, problems = found
            prefix = "" if len(chosen) == 1 else f"{workload.name}/"
            metrics.update({prefix + name: value for name, value in values.items()})
            attempted += tried
            failed += bad
            messages.extend(problems)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for message in messages:
        print(f"check failed: {message}")
    correct = failed == 0 and not messages
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
