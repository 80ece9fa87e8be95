"""Experiment E7: failure probability batteries (Theorems 2 and 10).

Both theorems claim success probability at least ``1 - 1/n``.  The
battery runs each algorithm across a spread of topologies and many
seeds, reporting failure rates with Wilson intervals and the breakdown
by failure kind (undecided / independence / domination).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...constants import ConstantsProfile
from ...core import CDMISProtocol, NoCDEnergyMISProtocol
from ...radio.models import CD, NO_CD
from ..runner import TrialSummary, run_trials
from ..tables import render_table
from ..workloads import build_workload

__all__ = ["CorrectnessCell", "CorrectnessReport", "run_correctness_battery"]


#: Topology families of the battery, by workload-catalog name, so
#: battery names match CLI names everywhere.
_TOPOLOGIES = ("gnp", "gnp-dense", "udg", "tree", "grid", "path", "star", "hard")


@dataclass(frozen=True)
class CorrectnessCell:
    """Failure measurements for one (protocol, topology) pair."""

    protocol: str
    model: str
    topology: str
    trials: int
    failures: int
    failure_rate: float
    interval: Tuple[float, float]
    kind_counts: Dict[str, int]


@dataclass
class CorrectnessReport:
    """E7 output."""

    n: int
    cells: List[CorrectnessCell]

    def to_table(self) -> str:
        headers = [
            "protocol",
            "topology",
            "trials",
            "failures",
            "rate",
            "95% CI",
            "kinds",
        ]
        rows = []
        for cell in self.cells:
            low, high = cell.interval
            kinds = (
                ",".join(f"{kind}:{count}" for kind, count in cell.kind_counts.items())
                or "-"
            )
            rows.append(
                (
                    cell.protocol,
                    cell.topology,
                    cell.trials,
                    cell.failures,
                    cell.failure_rate,
                    f"[{low:.3f},{high:.3f}]",
                    kinds,
                )
            )
        return render_table(
            headers, rows, title=f"E7 correctness battery (n={self.n})"
        )

    @property
    def worst_rate(self) -> float:
        return max((cell.failure_rate for cell in self.cells), default=0.0)


def run_correctness_battery(
    n: int = 64,
    trials: int = 20,
    constants: Optional[ConstantsProfile] = None,
    base_seed: int = 0,
) -> CorrectnessReport:
    """Run the failure-rate battery."""
    constants = constants or ConstantsProfile.practical()
    protocols = [
        (CDMISProtocol(constants=constants), CD),
        (NoCDEnergyMISProtocol(constants=constants), NO_CD),
    ]

    cells: List[CorrectnessCell] = []
    for protocol, model in protocols:
        for topology_name in _TOPOLOGIES:
            seeds = [base_seed + 31 * trial + 1 for trial in range(trials)]
            summary: TrialSummary = run_trials(
                lambda seed: build_workload(topology_name, n, seed),
                protocol,
                model,
                seeds,
                graph_spec=f"workload:{topology_name}/n={n}",
            )
            kind_counts: Dict[str, int] = {}
            for outcome in summary.outcomes:
                for kind in outcome.failure_kinds:
                    kind_counts[kind] = kind_counts.get(kind, 0) + 1
            cells.append(
                CorrectnessCell(
                    protocol=protocol.name,
                    model=model.name,
                    topology=topology_name,
                    trials=summary.trials,
                    failures=summary.failures,
                    failure_rate=summary.failure_rate,
                    interval=summary.failure_rate_interval(),
                    kind_counts=kind_counts,
                )
            )
    return CorrectnessReport(n=n, cells=cells)
