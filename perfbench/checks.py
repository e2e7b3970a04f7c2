"""Output checks, result digests and deterministic cost counters.

The checks hold for any RNG layout, so a change that reorders random draws
still passes them:

* every table4 cell at lambda=0 of a registered bare system name sends
  exactly y = m'(N) update messages and updates every User (the zero-failure
  invariant the conformance battery asserts);
* every cell summary has 0 <= F <= 1 and G <= 1;
* every User update time lies in [change_time, deadline].

The digest hashes the paper-metric result fields of every run and summary,
leaving out the host- and layout-dependent ``details.telemetry`` and
``details.executed_events``: a change that only makes the simulator faster
keeps it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.metrics import RunResult
from repro.experiments.report import summary_to_dict
from repro.experiments.sweep import SweepResult
from repro.protocols.registry import SYSTEMS


def run_problems(run: RunResult, n_users: int, scenario: str) -> List[str]:
    """Check violations of one run of a grid of ``n_users`` Users."""
    problems = []
    for user, when in run.user_update_times.items():
        if when is not None and not run.change_time <= when <= run.deadline:
            problems.append(f"user {user} updated at {when!r} outside [C, D]")
    if scenario == "table4" and run.failure_rate == 0.0 and run.system in SYSTEMS.names():
        m_prime = SYSTEMS.resolve(run.system).m_prime(n_users)
        if run.update_message_count != m_prime:
            problems.append(f"y={run.update_message_count} at lambda=0, expected m'={m_prime}")
        if run.users_updated() != n_users:
            problems.append(f"{run.users_updated()}/{n_users} users updated at lambda=0")
    return problems


def check_sweep(result: SweepResult) -> Tuple[int, List[str]]:
    """(cells failed, messages) for one finished sweep."""
    spec = result.spec
    messages = [f"{failure.key}: {failure.error}: {failure.message}" for failure in result.failures]
    failed = len(result.failures)
    for run in result.runs:
        problems = run_problems(run, spec.n_users, spec.scenario_token)
        if problems:
            failed += 1
            messages.append(f"{run.system} lambda={run.failure_rate} seed={run.seed}: {problems}")
    for summary in result.summaries:
        if not (0.0 <= summary.effectiveness <= 1.0 and summary.efficiency_degradation <= 1.0):
            # A bad summary condemns every run of its cell.
            failed += summary.runs
            messages.append(
                f"{summary.system} lambda={summary.failure_rate}: "
                f"F={summary.effectiveness!r} G={summary.efficiency_degradation!r}"
            )
    missing = spec.total_runs - len(result.runs) - len(result.failures)
    if missing:
        failed += missing
        messages.append(f"{missing} cells missing from the sweep result")
    return min(failed, spec.total_runs), messages


def results_digest(results: Sequence[SweepResult]) -> str:
    """SHA-256 over the paper-metric fields of every run and summary."""
    payload = []
    for result in results:
        runs = []
        for run in result.runs:
            data = run.to_dict()
            data["details"] = {
                key: value
                for key, value in data["details"].items()
                if key not in ("telemetry", "executed_events")
            }
            runs.append(data)
        payload.append(
            {
                "spec": result.spec.grid_dict(),
                "runs": runs,
                "summaries": [summary_to_dict(summary) for summary in result.summaries],
            }
        )
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cost_counters(results: Sequence[SweepResult]) -> Dict[str, int]:
    """Seed-exact work counters summed over every run (from RunTelemetry)."""
    totals = {
        "cells": 0,
        "events_fired": 0,
        "events_scheduled": 0,
        "timers_scheduled": 0,
        "sends": 0,
        "send_copies": 0,
        "delivered": 0,
        "update_messages": 0,
    }
    for result in results:
        for run in result.runs:
            telemetry: Dict[str, Any] = run.details["telemetry"]
            engine, net = telemetry["engine"], telemetry["net"]
            totals["cells"] += 1
            totals["events_fired"] += engine["events_fired"]
            totals["events_scheduled"] += engine["events_scheduled"]
            totals["timers_scheduled"] += telemetry["timers"]["scheduled"]
            totals["sends"] += net["sends"]
            totals["send_copies"] += net["send_copies"]
            totals["delivered"] += net["delivered"]
            totals["update_messages"] += run.update_message_count
    return totals
