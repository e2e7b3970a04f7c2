"""Fault-tolerant sweep execution: timeouts, retries, quarantine, fault hook.

A multi-hour sweep must survive the failure modes of its own harness — a
hung cell, a crashed worker process, a poisoned cell that raises on every
attempt — without losing the work it already did.  This module carries the
pieces the executors (:mod:`repro.experiments.executors`) and the sweep
driver (:mod:`repro.experiments.sweep`) compose into that guarantee:

* :class:`ResiliencePolicy` — per-cell wall-clock timeout, deterministic
  immediate retries, the ``--max-cell-failures`` graceful-degradation
  budget, and the pool-rebuild cap for ``BrokenProcessPool`` recovery.
* :func:`run_cell_guarded` — the guarded task body both executors use: it
  applies the fault hook, arms the timeout, retries transient failures, and
  wraps a finally-failed cell into :class:`CellExecutionError` carrying a
  typed :class:`CellFailure` record (the checkpoint journal's ``cell_error``
  payload).
* The ``REPRO_FAULT_INJECT`` environment hook — the CI chaos gate's way to
  kill one worker or poison one cell mid-sweep without patching any code.

Determinism rules
-----------------
A retried cell is byte-identical to a first-try cell: every attempt rebuilds
the *entire* stack (simulator, RNG registry, network, deployment) from the
spec's own derived seed, and the runner tears the previous attempt down in a
``finally`` block — so retries never consume scenario RNG streams, never
leak state between attempts, and never depend on which attempt succeeded.
A cell is a pure function of its seed, so waiting between attempts cannot
change what the next attempt does: retries run immediately.  They help only
with faults outside the cell (a timeout on a loaded host, an injected fault
that fires once).
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # imported for annotations only
    from repro.core.metrics import RunResult

#: Environment variable holding fault directives: ``;``-separated
#: ``kill:<key-substring>`` (the worker process exits hard, breaking the
#: pool) and ``poison:<key-substring>`` (the cell raises
#: :class:`InjectedFaultError`) entries, matched against the cell key.
FAULT_ENV = "REPRO_FAULT_INJECT"

#: Environment variable naming a directory for once-only fault markers.
#: With it set, each directive fires exactly once across every process of a
#: sweep *and its resumes* — the crash-recovery identity gate relies on the
#: retried/resumed attempt running clean.  Without it, directives fire on
#: every match (a deterministically-poisoned cell).
FAULT_STATE_ENV = "REPRO_FAULT_STATE"

#: Exit code of a ``kill:`` directive — distinguishable from a Python crash.
KILL_EXIT_CODE = 87


class CellTimeoutError(RuntimeError):
    """A cell exceeded its per-cell wall-clock timeout."""


class InjectedFaultError(RuntimeError):
    """A ``poison:`` directive of the fault hook fired for this cell."""


class FailureBudgetExceededError(ValueError):
    """More cells failed than ``--max-cell-failures`` allows."""


class PoolRecoveryError(RuntimeError):
    """The worker pool kept breaking beyond the rebuild cap."""


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the executors respond to cell failures."""

    #: Per-cell wall-clock timeout in seconds (``None`` = unlimited).  Armed
    #: via ``SIGALRM`` where available (main thread, POSIX); elsewhere the
    #: timeout is silently unenforced rather than unsupported.
    cell_timeout: Optional[float] = None
    #: Re-attempts per failed cell before it counts as failed.  Retries are
    #: deterministic: each attempt rebuilds the full stack from the cell's
    #: derived seed (see the module docstring).
    max_retries: int = 0
    #: Failure budget: up to this many failed cells are quarantined as typed
    #: ``cell_error`` journal records and reported as gaps; one more aborts
    #: the sweep.
    max_cell_failures: int = 0
    #: How often a broken process pool is rebuilt (unfinished chunks are
    #: resubmitted) before giving up with :class:`PoolRecoveryError`.
    max_pool_rebuilds: int = 2

    def validate(self) -> "ResiliencePolicy":
        """Raise :class:`ValueError` on an inconsistent policy."""
        timeout = self.cell_timeout
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"cell_timeout must be positive and finite, got {timeout!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.max_cell_failures < 0:
            raise ValueError(
                f"max_cell_failures must be >= 0, got {self.max_cell_failures!r}"
            )
        if self.max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds!r}"
            )
        return self


#: The executors' default: no timeout, no retries, no failure budget — a
#: failing cell propagates exactly as it always did — but broken-pool
#: recovery stays on (worker death is an infrastructure fault, not a result).
DEFAULT_POLICY = ResiliencePolicy()


@dataclass(frozen=True)
class CellFailure:
    """One quarantined cell: the typed ``cell_error`` checkpoint record."""

    key: str
    #: Exception type name (``"CellTimeoutError"``, ``"InjectedFaultError"``, ...).
    error: str
    message: str
    attempts: int

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (checkpoint journal / report payload)."""
        return {
            "key": self.key,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellFailure":
        """Inverse of :meth:`to_dict`."""
        return cls(
            key=data["key"],
            error=data["error"],
            message=data["message"],
            attempts=int(data["attempts"]),
        )


class CellExecutionError(RuntimeError):
    """A cell failed after exhausting its retries (carries the original)."""

    def __init__(self, key: str, attempts: int, original: BaseException) -> None:
        super().__init__(
            f"cell {key!r} failed after {attempts} attempt(s): "
            f"{type(original).__name__}: {original}"
        )
        self.key = key
        self.attempts = attempts
        self.original = original

    def failure(self) -> CellFailure:
        """The typed quarantine record of this failure."""
        return CellFailure(
            key=self.key,
            error=type(self.original).__name__,
            message=str(self.original)[:500],
            attempts=self.attempts,
        )


@dataclass
class ExecutionStats:
    """What an executor's last ``run_scenarios`` call had to do to finish.

    Purely observational (telemetry journal header, progress notes): none of
    these figures ever enter results, so byte-identity gates stay unaffected
    by how bumpy the execution happened to be.
    """

    #: Cell key -> attempts the cell took (1 = first try succeeded).
    attempts: Dict[str, int] = field(default_factory=dict)
    retried_cells: int = 0
    failed_cells: int = 0
    pool_rebuilds: int = 0

    def record(self, key: str, attempts: int, failed: bool = False) -> None:
        """Account one finished (or finally-failed) cell."""
        self.attempts[key] = attempts
        if attempts > 1:
            self.retried_cells += 1
        if failed:
            self.failed_cells += 1


# --------------------------------------------------------------------------- fault hook
def parse_fault_directives(text: str) -> List[Tuple[str, str]]:
    """Parse :data:`FAULT_ENV`: ``"kill:frodo3~5u@0.2#1;poison:upnp"`` ->
    ``[("kill", ...), ("poison", ...)]``.  Raises :class:`ValueError` on a
    malformed directive."""
    directives: List[Tuple[str, str]] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        action, sep, pattern = part.partition(":")
        action = action.strip()
        if not sep or not pattern or action not in ("kill", "poison"):
            raise ValueError(
                f"bad {FAULT_ENV} directive {part!r}; expected "
                f"kill:<key-substring> or poison:<key-substring>"
            )
        directives.append((action, pattern))
    return directives


def _claim_fault(action: str, pattern: str) -> bool:
    """``True`` when the directive may fire now (once-only via the state dir).

    The marker is created *before* the fault fires, so a ``kill`` that takes
    the whole worker down has already burned its one shot — the resubmitted
    chunk runs clean, which is what lets a chaotic sweep converge to the
    undisturbed output.
    """
    state_dir = os.environ.get(FAULT_STATE_ENV)
    if not state_dir:
        return True
    os.makedirs(state_dir, exist_ok=True)
    digest = hashlib.sha1(pattern.encode("utf-8")).hexdigest()[:16]
    marker = os.path.join(state_dir, f"{action}-{digest}")
    try:
        with open(marker, "x"):
            return True
    except FileExistsError:
        return False


def maybe_inject_fault(key: str) -> None:
    """Fire any :data:`FAULT_ENV` directive matching ``key`` (test/CI hook).

    ``kill`` exits the process hard (``os._exit``), which in a pool worker
    surfaces as ``BrokenProcessPool`` in the parent; ``poison`` raises
    :class:`InjectedFaultError`, exercising the retry/quarantine path.
    """
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    for action, pattern in parse_fault_directives(spec):
        if pattern not in key:
            continue
        if not _claim_fault(action, pattern):
            continue
        if action == "kill":
            os._exit(KILL_EXIT_CODE)
        raise InjectedFaultError(
            f"injected fault poisoned cell {key!r} (directive poison:{pattern})"
        )


# --------------------------------------------------------------------------- timeouts
@contextmanager
def cell_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`CellTimeoutError` in the block after ``seconds`` of wall time.

    Implemented with ``SIGALRM``/``setitimer``, which both executor paths can
    use because cells always run on the main thread of their process (the
    serial executor in the caller's process, pool tasks in the worker's).
    Where signals are unavailable (non-POSIX, non-main thread) the block runs
    unguarded — a missing timeout only weakens resilience, never correctness.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum: int, frame: Any) -> None:
        raise CellTimeoutError(f"cell exceeded its {seconds:g}s wall-clock timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# --------------------------------------------------------------------------- guarded runs
def run_cell_guarded(
    runner: Any,
    scenario: Any,
    key: str,
    policy: ResiliencePolicy = DEFAULT_POLICY,
) -> Tuple["RunResult", int]:
    """Run one cell under ``policy``; returns ``(result, attempts)``.

    Applies the fault hook, arms the per-cell timeout, and retries transient
    failures immediately.  When every attempt failed, raises
    :class:`CellExecutionError` wrapping the last exception.
    ``KeyboardInterrupt``/``SystemExit`` always propagate immediately — an
    interrupt must never be retried away.
    """
    attempt = 0
    while True:
        attempt += 1
        try:
            maybe_inject_fault(key)
            with cell_deadline(policy.cell_timeout):
                return runner.run(scenario), attempt
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            if attempt > policy.max_retries:
                raise CellExecutionError(key, attempt, exc) from exc
