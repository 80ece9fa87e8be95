"""Experiment E10: Algorithm 2's energy breakdown (Figure 2's classes).

Figure 2 color-codes the no-CD algorithm's stages by their per-node
energy class:

* ``O(log^2 n loglog n)`` — LowDegreeMIS and the accumulated
  committed-mode competition listens,
* ``O(log n log Delta)``  — deep checks and the pre-commit listens,
* ``O(log n)``            — sender backoffs (one awake round per
  iteration),
* ``O(log Delta)``        — shallow checks,
* ``O(1)``                — shallow announces (a single backoff
  iteration's transmissions).

The instrumented protocol tags every awake round with its component;
this experiment aggregates the worst-case per-node ledger and maps each
component to its claimed class so the shape of Figure 2 can be checked
numerically.

One (graph, seed) run is :func:`energy_breakdown_record`, a JSON-safe
record of its per-component worst and total rounds;
:func:`fold_energy_breakdown` turns records into the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ...constants import ConstantsProfile
from ...core import NoCDEnergyMISProtocol
from ...exec.cache import graph_fingerprint
from ...graphs.graph import Graph
from ...radio.engine import run_protocol
from ...radio.models import NO_CD
from ..runner import _harness_records
from ..tables import render_table

__all__ = ["ComponentRow", "EnergyBreakdownReport", "energy_breakdown_record",
           "fold_energy_breakdown", "run_energy_breakdown", "COMPONENT_CLASSES"]

#: component -> (Figure 2 energy class, description)
COMPONENT_CLASSES: Dict[str, str] = {
    "competition-send": "O(log n) per phase -> O(log^2 n) total",
    "competition-listen": "O(log n log D) first-0-bit + O(log n loglog n) committed",
    "deep-check": "O(log n log D)",
    "mis-announce-deep": "O(log n) per phase",
    "low-degree-mis": "O(log^2 n loglog n), once per node",
    "mis-announce-shallow": "O(1) per phase",
    "shallow-check": "O(log D) per phase",
}


@dataclass(frozen=True)
class ComponentRow:
    """Aggregates for one ledger component."""

    component: str
    energy_class: str
    worst_node_rounds: int
    mean_node_rounds: float
    share_of_total: float


@dataclass
class EnergyBreakdownReport:
    """E10 output."""

    n: int
    runs: int
    rows: List[ComponentRow]
    worst_total: int

    def to_table(self) -> str:
        headers = ["component", "worst node", "mean node", "share", "paper class"]
        table_rows = [
            (
                row.component,
                row.worst_node_rounds,
                row.mean_node_rounds,
                f"{100.0 * row.share_of_total:.1f}%",
                row.energy_class,
            )
            for row in self.rows
        ]
        return render_table(
            headers,
            table_rows,
            title=(
                f"E10 Algorithm 2 energy breakdown "
                f"(n={self.n}, {self.runs} runs, worst total={self.worst_total})"
            ),
        )


def energy_breakdown_record(
    graph: Graph, seed: int, constants: ConstantsProfile
) -> Dict[str, object]:
    """One (graph, seed) run of Algorithm 2's per-component ledger.

    ``components`` lists ``[component, worst node, total]`` in the order
    the ledger first shows each component; the fold's ranking breaks
    ties by that order.
    """
    protocol = NoCDEnergyMISProtocol(constants=constants)
    result = run_protocol(graph, protocol, NO_CD, seed=seed)
    worst: Dict[str, int] = {}
    totals: Dict[str, int] = {}
    for stats in result.node_stats:
        for component, rounds in stats.energy_by_component.items():
            worst[component] = max(worst.get(component, 0), rounds)
            totals[component] = totals.get(component, 0) + rounds
    return {
        "num_nodes": graph.num_nodes,
        "max_energy": result.max_energy,
        "components": [[c, worst[c], totals[c]] for c in worst],
    }


def fold_energy_breakdown(records: Iterable[Dict]) -> EnergyBreakdownReport:
    """The E10 report over per-run records."""
    worst: Dict[str, int] = {}
    totals: Dict[str, int] = {}
    node_count = 0
    worst_total = 0
    runs = 0
    n_reference = 0

    for record in records:
        n_reference = max(n_reference, record["num_nodes"])
        runs += 1
        node_count += record["num_nodes"]
        worst_total = max(worst_total, record["max_energy"])
        for component, component_worst, total in record["components"]:
            worst[component] = max(worst.get(component, 0), component_worst)
            totals[component] = totals.get(component, 0) + total

    grand_total = sum(totals.values()) or 1
    rows = [
        ComponentRow(
            component=component,
            energy_class=COMPONENT_CLASSES.get(component, "?"),
            worst_node_rounds=worst[component],
            mean_node_rounds=totals[component] / max(1, node_count),
            share_of_total=totals[component] / grand_total,
        )
        for component in sorted(worst, key=lambda c: -worst[c])
    ]
    return EnergyBreakdownReport(
        n=n_reference, runs=runs, rows=rows, worst_total=worst_total
    )


def run_energy_breakdown(
    graphs: Sequence[Graph],
    seeds: Sequence[int],
    constants: Optional[ConstantsProfile] = None,
) -> EnergyBreakdownReport:
    """Aggregate Algorithm 2's per-component ledger over several runs:
    one cached record per (graph, seed), graph-major."""
    constants = constants or ConstantsProfile.practical()
    return fold_energy_breakdown(
        _harness_records(
            "energy-breakdown",
            NoCDEnergyMISProtocol(constants=constants),
            lambda g, seed: energy_breakdown_record(graphs[g], seed, constants),
            [graph_fingerprint(graph) for graph in graphs],
            seeds,
        )
    )
