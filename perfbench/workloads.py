"""The benchmark's workloads: what each one runs and why it was chosen.

A workload turns the benchmark seed into one *pass*: a list of
:class:`~repro.experiments.sweep.SweepSpec` grids that the harness sweeps
in order, each with a checkpoint journal and a JSON report, exactly as a
user of ``python -m repro sweep`` would.  The program only ever sees the
generated specs.

Pass ``i`` of a run uses the base seed ``seed * PASS_STRIDE + i``: the first
pass is the workload at its stated size (the one the traced run and the
deterministic counters use), later passes are fresh inputs of the same
shape, so a longer measurement averages over more inputs instead of
re-timing the same ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.experiments.sweep import SweepSpec
from repro.protocols.registry import SYSTEMS

#: Base seeds of consecutive passes of one run are ``seed * PASS_STRIDE + i``.
PASS_STRIDE = 1000

#: The five systems of the paper's Table 4 comparison.
PAPER_SYSTEMS = ("upnp", "jini1", "jini2", "frodo2", "frodo3")

#: lambda in {0, 10, ..., 90 %}, the paper's failure-rate axis.
PAPER_RATES = tuple(step / 10 for step in range(10))


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: why the workload is in the benchmark (copied to BENCHMARK.json).
    why: str
    #: base seed -> the grids of one pass.
    grids: Callable[[int], List[SweepSpec]]
    #: Passes a timed run always makes, however long they take.
    min_passes: int

    def specs(self, seed: int, pass_index: int = 0) -> List[SweepSpec]:
        """The canonical, validated grids of one pass."""
        return [
            SweepSpec(
                systems=tuple(SYSTEMS.resolve(token).token for token in spec.systems),
                failure_rates=spec.failure_rates,
                runs_per_cell=spec.runs_per_cell,
                base_seed=spec.base_seed,
                n_users=spec.n_users,
                scenario_name=spec.scenario_name,
                scenario_options=dict(spec.scenario_options),
            )
            for spec in self.grids(seed * PASS_STRIDE + pass_index)
        ]

    def cells_per_pass(self) -> int:
        return sum(spec.total_runs for spec in self.grids(0))

    def tail_percentile(self) -> int:
        """The highest whole percentile with at least ten cells beyond it.

        Fixed per workload from the cells a run is guaranteed to time
        (``min_passes`` passes), so every run reports the same percentile.
        """
        n = self.min_passes * self.cells_per_pass()
        return max(0, (100 * (n - 10)) // n)


def _paper_grid(base_seed: int) -> List[SweepSpec]:
    return [
        SweepSpec(
            systems=PAPER_SYSTEMS,
            failure_rates=PAPER_RATES,
            runs_per_cell=2,
            base_seed=base_seed,
            n_users=5,
        )
    ]


def _fanout(base_seed: int) -> List[SweepSpec]:
    # The host time of one cell varies by a factor of four with the seed, so
    # a run must time many seeds: N=40 (frodo3 at 3x that, as it is cheaper
    # per User) keeps a cell near a quarter second, letting a run cover about
    # 35 seeds per system while over 80 % of deliveries stay unhandled.
    return [
        SweepSpec(
            systems=("upnp", "jini1"),
            failure_rates=(0.2,),
            runs_per_cell=3,
            base_seed=base_seed,
            n_users=40,
        ),
        SweepSpec(
            systems=("frodo3",),
            failure_rates=(0.2,),
            runs_per_cell=3,
            base_seed=base_seed,
            n_users=120,
        ),
    ]


def _federation_churn(base_seed: int) -> List[SweepSpec]:
    def grid(systems: Tuple[str, ...], scenario: str = "table4") -> SweepSpec:
        return SweepSpec(
            systems=systems,
            failure_rates=(0.0, 0.2),
            runs_per_cell=1,
            base_seed=base_seed,
            n_users=20,
            scenario_name=scenario,
        )

    return [
        grid(("jini@k=8", "jini@assign=partition,k=4,mode=gossip,topology=ring")),
        grid(("jini@k=4,mode=pull",), "partition"),
        grid(("frodo3", "upnp"), "churn"),
        grid(("frodo3", "jini2"), "lossy"),
    ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-grid",
            why=(
                "the Table-4 sweep a paper reader runs: 5 systems x lambda 0-90% x 2 runs a "
                "pass at N=5, so per-cell setup, collection, checkpoint and report show"
            ),
            grids=_paper_grid,
            min_passes=10,
        ),
        Workload(
            name="fanout",
            why=(
                "large-N single-registry cells (upnp@40, jini1@40, frodo3@120, lambda=20%, "
                "3 seeds a pass): multicast fan-out, most deliveries unhandled, engine-bound"
            ),
            grids=_fanout,
            min_passes=10,
        ),
        Workload(
            name="federation-churn",
            why=(
                "federated Jini push/gossip/pull plus churn, lossy and partition scenarios "
                "at N=20: unicast, TCP and membership changes instead of multicast"
            ),
            grids=_federation_churn,
            min_passes=9,
        ),
    )
}
