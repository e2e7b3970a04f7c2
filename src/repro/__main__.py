"""``python -m repro`` — the experiment command line.

Subcommands
-----------
* ``sweep``   — run the failure-rate sweep and emit JSON (and optionally CSV):
  ``python -m repro sweep --system frodo3 --rates 0,10,20 --runs 20 --out results.json``.
  ``--jobs N`` runs cells on a process pool (output stays byte-identical to
  serial); ``--resume ck.json`` checkpoints every finished cell there and
  skips cells the file already contains.  Observability (never changes the
  results): ``--trace-dir out/`` streams one NDJSON trace per cell plus a
  ``telemetry.ndjson`` journal, ``--progress`` prints live cells/s and ETA
  to stderr.  Fault tolerance: ``--cell-timeout``/``--retries`` bound and
  retry individual cells, ``--max-cell-failures N`` quarantines up to N
  poisoned cells instead of aborting (their gaps stay explicit; exit 3),
  and Ctrl-C flushes completed cells to ``--resume`` and prints the exact
  resume command.
* ``run``     — execute a single scenario and print its RunResult as JSON;
  ``--trace t.ndjson`` streams the full event trace there.
* ``trace``   — analyse captured NDJSON traces:
  ``python -m repro trace summarize out/`` (record/kind histograms),
  ``trace kinds`` (message kinds only), ``trace timeline`` (record listing);
  all accept ``--since/--until`` (inclusive) and ``--category`` filters.
* ``profile`` — cProfile one scenario and print the hottest functions
  (``python -m repro profile --system frodo3 --users 1000``), the
  entry point of the profile-first optimisation workflow in EXPERIMENTS.md.
* ``bench``   — time the standard sweep workloads serial vs parallel and
  write the perf trajectory file (default ``BENCH_sweep.json``);
  ``--baseline`` gates the run against a committed bench file.
* ``systems`` — list the deployable systems of the protocol registry.
* ``scenarios`` — list the disruption-scenario families of the scenario
  registry (selectable on ``sweep``/``run``/``profile`` via
  ``--scenario churn@rate=0.1``; default ``table4`` is the paper's model).

Rates are given in percent (``--rates 0,10,20`` sweeps lambda = 0, 0.1, 0.2).
The sweep's ``--users`` accepts a comma-separated list of topology sizes
(``--users 5,100,1000``), forming a full systems x users x rates grid.
Output is deterministic for a given ``--seed``: re-running the same command
produces byte-identical JSON.  ``--out -`` writes to stdout.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import shlex
import sys
from typing import List, Optional, Sequence

from repro.bench.harness import (
    bench_to_dict,
    check_regression,
    format_bench_table,
    load_baseline,
    run_bench,
    write_bench_json,
)
from repro.bench.workloads import find_workload, standard_workloads
from repro.experiments.executors import make_executor
from repro.experiments.resilience import PoolRecoveryError, ResiliencePolicy
from repro.experiments.report import (
    format_summary_table,
    run_to_dict,
    summaries_to_csv,
    to_json,
    write_sweep_json,
    write_text,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenario import (
    DEFAULT_CHANGE_TIME,
    DEFAULT_SIM_DURATION,
    ScenarioSpec,
)
from repro.experiments.scenarios import SCENARIOS, UnknownScenarioError, parse_scenario
from repro.experiments.tokens import format_option_value, split_token_list
from repro.experiments.sweep import SweepSpec, sweep
from repro.obs.analyze import (
    format_kinds,
    format_summary,
    format_timeline,
    iter_records,
    kind_counts,
    summarize,
)
from repro.obs.progress import SweepProgress
from repro.protocols.registry import SYSTEMS, UnknownSystemError


def _parse_percent(token: str) -> float:
    """Parse one failure rate in percent into a fraction."""
    percent = float(token)
    if not 0.0 <= percent <= 100.0:
        raise argparse.ArgumentTypeError(f"rate {token!r} not in [0, 100] percent")
    return percent / 100.0


def _parse_rates(text: str) -> List[float]:
    """Parse ``"0,10,20"`` (percent) into ``[0.0, 0.1, 0.2]``."""
    rates = [_parse_percent(token.strip()) for token in text.split(",") if token.strip()]
    if not rates:
        raise argparse.ArgumentTypeError("no failure rates given")
    return rates


def _parse_users(text: str) -> List[int]:
    """Parse ``"5,100,1000"`` into a list of topology sizes."""
    sizes: List[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        size = int(token)
        if size < 1:
            raise argparse.ArgumentTypeError(f"users count {token!r} must be >= 1")
        sizes.append(size)
    if not sizes:
        raise argparse.ArgumentTypeError("no user counts given")
    return sizes


def _add_scenario_arguments(parser: argparse.ArgumentParser, users_grid: bool = False) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    if users_grid:
        parser.add_argument(
            "--users",
            type=_parse_users,
            default=[5],
            help="comma-separated numbers of Users, a grid axis (default: 5)",
        )
    else:
        parser.add_argument("--users", type=int, default=5, help="number of Users (default: 5)")
    parser.add_argument(
        "--change-time",
        type=float,
        default=DEFAULT_CHANGE_TIME,
        help=f"service-change time in seconds (default: {DEFAULT_CHANGE_TIME:g})",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=DEFAULT_SIM_DURATION,
        help=f"measurement deadline in seconds (default: {DEFAULT_SIM_DURATION:g})",
    )
    parser.add_argument(
        "--scenario",
        default="table4",
        metavar="NAME[@K=V,...]",
        help=(
            "disruption-scenario family and options, e.g. churn@rate=0.1 "
            "(default: table4, the paper's model; see `python -m repro scenarios`)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Failure-rate experiments for the service-discovery reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sweep_parser = subparsers.add_parser("sweep", help="run the failure-rate sweep")
    sweep_parser.add_argument(
        "--system",
        dest="systems",
        action="append",
        required=True,
        help=(
            "system to deploy; repeatable and/or comma-separated, bare name "
            "or name@key=value,... token, e.g. --system frodo3 "
            "--system upnp,jini@k=8,mode=gossip (see 'systems')"
        ),
    )
    sweep_parser.add_argument(
        "--rates",
        type=_parse_rates,
        default=[0.0],
        help="comma-separated failure rates in percent (default: 0)",
    )
    sweep_parser.add_argument(
        "--runs", type=int, default=20, help="replications per cell (default: 20)"
    )
    _add_scenario_arguments(sweep_parser, users_grid=True)
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; >1 runs cells on a process pool (default: 1)",
    )
    sweep_parser.add_argument(
        "--resume",
        default=None,
        metavar="CHECKPOINT",
        help=(
            "checkpoint file: completed cells found there are skipped, new "
            "completions are persisted after every cell"
        ),
    )
    sweep_parser.add_argument(
        "--out", default="-", help="JSON output path, or - for stdout (default: -)"
    )
    sweep_parser.add_argument(
        "--csv", default=None, help="also write the summary table as CSV to this path"
    )
    sweep_parser.add_argument(
        "--per-run", action="store_true", help="include every RunResult in the JSON"
    )
    sweep_parser.add_argument(
        "--table", action="store_true", help="print the summary table to stderr"
    )
    sweep_parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help=(
            "stream one NDJSON trace per executed cell into DIR and write a "
            "telemetry.ndjson journal there (results are unchanged)"
        ),
    )
    sweep_parser.add_argument(
        "--progress",
        action="store_true",
        help="print live progress (cells done, cells/s, ETA) to stderr",
    )
    sweep_parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per cell attempt; an over-budget cell fails (and may retry)",
    )
    sweep_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="times to re-run a failed cell before quarantining it (default: 0)",
    )
    sweep_parser.add_argument(
        "--max-cell-failures",
        type=int,
        default=0,
        metavar="N",
        help=(
            "quarantined cells tolerated before aborting the sweep; tolerated "
            "failures leave explicit gaps in the output and exit status 3 "
            "(default: 0)"
        ),
    )

    run_parser = subparsers.add_parser("run", help="execute one scenario")
    run_parser.add_argument("--system", required=True, help="system to deploy")
    run_parser.add_argument(
        "--rate", type=_parse_percent, default=0.0, help="failure rate in percent (default: 0)"
    )
    _add_scenario_arguments(run_parser)
    run_parser.add_argument(
        "--out", default="-", help="JSON output path, or - for stdout (default: -)"
    )
    run_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="stream the full event trace to PATH as NDJSON (results are unchanged)",
    )

    profile_parser = subparsers.add_parser(
        "profile", help="cProfile one scenario and print the hottest functions"
    )
    profile_parser.add_argument("--system", required=True, help="system to deploy")
    profile_parser.add_argument(
        "--rate", type=_parse_percent, default=0.0, help="failure rate in percent (default: 0)"
    )
    _add_scenario_arguments(profile_parser)
    profile_parser.add_argument(
        "--top", type=int, default=25, help="functions to print (default: 25)"
    )
    profile_parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "calls"),
        default="cumulative",
        help="pstats sort order (default: cumulative)",
    )
    profile_parser.add_argument(
        "--out", default="-", help="report output path, or - for stdout (default: -)"
    )

    bench_parser = subparsers.add_parser(
        "bench", help="time the standard sweep workloads serial vs parallel"
    )
    bench_parser.add_argument(
        "--quick", action="store_true", help="CI-sized grids (fewer rates and replications)"
    )
    bench_parser.add_argument(
        "--jobs", type=int, default=2, help="parallel worker processes (default: 2)"
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=1, help="timed attempts per path, best wins (default: 1)"
    )
    bench_parser.add_argument(
        "--workload",
        action="append",
        default=None,
        help="run only this workload (repeatable); see the emitted JSON for names",
    )
    bench_parser.add_argument(
        "--out",
        default="BENCH_sweep.json",
        help="bench JSON output path (default: BENCH_sweep.json)",
    )
    bench_parser.add_argument(
        "--table", action="store_true", help="print the bench table to stderr"
    )
    bench_parser.add_argument(
        "--baseline",
        default=None,
        metavar="BENCH_JSON",
        help=(
            "committed bench file to gate against: fail if any matching "
            "workload's serial throughput regressed beyond --tolerance"
        ),
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="fractional serial-throughput drop allowed by --baseline (default: 0.20)",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="analyse NDJSON traces captured by sweep --trace-dir / run --trace"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    def _add_trace_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "paths",
            nargs="+",
            metavar="PATH",
            help="trace files and/or trace directories (a --trace-dir)",
        )
        sub.add_argument(
            "--since",
            type=float,
            default=None,
            help="keep records at or after this simulation time (inclusive)",
        )
        sub.add_argument(
            "--until",
            type=float,
            default=None,
            help="keep records at or before this simulation time (inclusive)",
        )
        sub.add_argument(
            "--category", default=None, help="keep only this record category (e.g. net)"
        )

    summarize_parser = trace_sub.add_parser(
        "summarize", help="record counts, time span, and per-category/event/kind histograms"
    )
    _add_trace_arguments(summarize_parser)

    kinds_parser = trace_sub.add_parser(
        "kinds", help="message-kind histogram from the net/send records"
    )
    _add_trace_arguments(kinds_parser)
    kinds_parser.add_argument(
        "--update-related",
        action="store_true",
        help="count only sends flagged as update-related",
    )

    timeline_parser = trace_sub.add_parser(
        "timeline", help="print the filtered records, one per line"
    )
    _add_trace_arguments(timeline_parser)
    timeline_parser.add_argument(
        "--event", default=None, help="keep only this event name (e.g. send)"
    )
    timeline_parser.add_argument(
        "--limit", type=int, default=50, help="records to print before truncating (default: 50)"
    )
    timeline_parser.add_argument(
        "--show-source",
        action="store_true",
        help="prefix every line with the trace file it came from",
    )

    subparsers.add_parser("systems", help="list deployable systems")
    subparsers.add_parser("scenarios", help="list disruption-scenario families")
    return parser


def _split_systems(values: Sequence[str]) -> List[str]:
    """Flatten repeated/comma-separated ``--system`` values into canonical tokens.

    Values may be bare names or parameterised ``name@k=v,...`` tokens; a
    comma-separated segment containing ``=`` belongs to the preceding
    token's option list (``--system upnp,jini@k=8,mode=gossip,frodo3``),
    anything else starts a new selection.  Each selection is resolved
    against the registry here so bad names/options fail before any cycles
    are spent, and canonicalised so equal selections share cell keys.
    """
    tokens = [token for value in values for token in split_token_list(value)]
    return [SYSTEMS.resolve(token).token for token in tokens]


def _command_sweep(args: argparse.Namespace) -> int:
    scenario_name, scenario_options = parse_scenario(args.scenario)
    spec = SweepSpec(
        systems=tuple(_split_systems(args.systems)),
        failure_rates=tuple(args.rates),
        runs_per_cell=args.runs,
        base_seed=args.seed,
        n_users=args.users[0],
        users=tuple(args.users),
        change_time=args.change_time,
        deadline=args.deadline,
        scenario_name=scenario_name,
        scenario_options=scenario_options,
    )
    policy = ResiliencePolicy(
        cell_timeout=args.cell_timeout,
        max_retries=args.retries,
        max_cell_failures=args.max_cell_failures,
    )
    result = sweep(
        spec,
        executor=make_executor(args.jobs),
        checkpoint=args.resume,
        trace_dir=args.trace_dir,
        progress=SweepProgress(stream=sys.stderr) if args.progress else None,
        policy=policy,
    )
    write_sweep_json(result, args.out, include_runs=args.per_run)
    if args.csv is not None:
        write_text(summaries_to_csv(result.summaries), args.csv)
    if args.table:
        sys.stderr.write(format_summary_table(result.summaries))
    if result.failures:
        keys = ", ".join(failure.key for failure in result.failures)
        print(
            f"warning: {len(result.failures)} cell(s) quarantined after exhausting "
            f"retries ({keys}); the output has explicit gaps for them",
            file=sys.stderr,
        )
        return 3
    return 0


def _command_run(args: argparse.Namespace) -> int:
    scenario_name, scenario_options = parse_scenario(args.scenario)
    spec = ScenarioSpec(
        system=SYSTEMS.resolve(args.system).token,
        failure_rate=args.rate,
        seed=args.seed,
        n_users=args.users,
        change_time=args.change_time,
        deadline=args.deadline,
        trace_path=args.trace,
        scenario=scenario_name,
        scenario_options=scenario_options,
    )
    result = ExperimentRunner().run(spec)
    write_text(to_json(run_to_dict(result)), args.out)
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    since, until, category = args.since, args.until, args.category
    if args.trace_command == "summarize":
        summary = summarize(args.paths, since=since, until=until, category=category)
        sys.stdout.write(format_summary(summary))
    elif args.trace_command == "kinds":
        pairs = iter_records(args.paths, since=since, until=until, category=category)
        update_related = True if args.update_related else None
        counts = kind_counts((record for _path, record in pairs), update_related=update_related)
        sys.stdout.write(format_kinds(counts))
    else:  # timeline
        pairs = iter_records(
            args.paths, since=since, until=until, category=category, event=args.event
        )
        sys.stdout.write(format_timeline(pairs, limit=args.limit, show_source=args.show_source))
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    scenario_name, scenario_options = parse_scenario(args.scenario)
    spec = ScenarioSpec(
        system=SYSTEMS.resolve(args.system).token,
        failure_rate=args.rate,
        seed=args.seed,
        n_users=args.users,
        change_time=args.change_time,
        deadline=args.deadline,
        scenario=scenario_name,
        scenario_options=scenario_options,
    )
    runner = ExperimentRunner()
    profiler = cProfile.Profile()
    profiler.enable()
    result = runner.run(spec)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    header = (
        f"# profile {spec.describe()}: "
        f"{result.details['executed_events']} events executed\n"
    )
    write_text(header + buffer.getvalue(), args.out)
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    workloads = standard_workloads(quick=args.quick)
    if args.workload:
        workloads = [find_workload(name, workloads) for name in args.workload]
    records = run_bench(workloads, jobs=args.jobs, repeats=args.repeats, quick=args.quick)
    write_bench_json(bench_to_dict(records, quick=args.quick, repeats=args.repeats), args.out)
    if args.table:
        sys.stderr.write(format_bench_table(records))
    if not all(record.identical for record in records):
        broken = ", ".join(record.name for record in records if not record.identical)
        print(f"error: parallel output diverged from serial for: {broken}", file=sys.stderr)
        return 1
    if args.baseline is not None:
        failures = check_regression(
            records, load_baseline(args.baseline), tolerance=args.tolerance
        )
        if failures:
            for failure in failures:
                print(f"error: perf regression: {failure}", file=sys.stderr)
            return 1
        print(f"baseline check passed ({args.baseline})", file=sys.stderr)
    return 0


def _command_systems() -> int:
    for entry in sorted(SYSTEMS, key=lambda e: e.name):
        form = entry.m_prime_form or str(entry.m_prime_at(5))
        line = f"{entry.name:<10} m'={form}"
        if entry.frozen and entry.alias_of:
            line += f"  [= {entry.alias_of}]"
        elif entry.params:
            options = ",".join(
                f"{key}={format_option_value(value)}"
                for key, value in sorted(entry.params.items())
            )
            line += f"  [{options}]"
        if entry.description:
            line += f"  {entry.description}"
        print(line)
    return 0


def _command_scenarios() -> int:
    for family in sorted(SCENARIOS, key=lambda f: f.name):
        options = ",".join(
            f"{key}={value}" for key, value in sorted(family.defaults.items())
        )
        line = f"{family.name:<12} [{options or 'no options'}]"
        if family.description:
            line += f"  {family.description}"
        print(line)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "run":
            return _command_run(args)
        if args.command == "profile":
            return _command_profile(args)
        if args.command == "bench":
            return _command_bench(args)
        if args.command == "trace":
            return _command_trace(args)
        if args.command == "scenarios":
            return _command_scenarios()
        return _command_systems()
    except KeyboardInterrupt:
        # Completed cells were flushed to the checkpoint before the
        # interrupt propagated (the executors drain finished work first),
        # so re-running the very same command resumes where this run died.
        checkpoint = getattr(args, "resume", None)
        if checkpoint:
            command = "python -m repro " + " ".join(shlex.quote(token) for token in argv)
            print(
                f"interrupted: completed cells are checkpointed in {checkpoint!r}; "
                f"resume with:\n  {command}",
                file=sys.stderr,
            )
        else:
            print(
                "interrupted: no --resume checkpoint was given, progress is lost",
                file=sys.stderr,
            )
        return 130
    except (
        UnknownSystemError,
        UnknownScenarioError,
        PoolRecoveryError,
        ValueError,
        OSError,
    ) as exc:
        # Bad grids (e.g. --runs 0), unwritable --out paths, exhausted
        # failure budgets, and unrecoverable worker pools surface as clean
        # CLI errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
