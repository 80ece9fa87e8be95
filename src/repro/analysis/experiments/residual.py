"""Experiment E8: residual-graph shrinkage (Lemma 5 and Lemma 20).

* **CD (Lemma 5)** — in Algorithm 1, the expected edge count of the
  residual graph (undecided nodes) at the end of a Luby phase is at most
  half its previous value.
* **no-CD (Lemma 20)** — in Algorithm 2, the residual graph (everyone
  except OUT_MIS nodes, Definition 18) loses at least a 1/64 fraction of
  its edges per phase in expectation.

Both are measured from instrumented runs: protocols record each node's
decision phase, from which the per-phase residual vertex sets — and thus
edge counts — are reconstructed.  We also measure idealized Luby as the
reference process.

One (graph, seed) run is :func:`residual_record`, a JSON-safe record of
the three residual-edge series; :func:`fold_residual` turns records into
the report.  Both :func:`run_residual_shrinkage` and ``claims verify``
cache the records as executor trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ...baselines import luby_mis
from ...constants import ConstantsProfile
from ...core import CDMISProtocol, NoCDEnergyMISProtocol
from ...exec.cache import graph_fingerprint
from ...graphs.graph import Graph
from ...radio.engine import run_protocol
from ...radio.models import CD, NO_CD
from ...radio.node import Decision
from ..runner import _harness_records
from ..stats import summarize
from ..tables import render_table

__all__ = [
    "ShrinkageSeries",
    "ResidualReport",
    "residual_edges_cd",
    "residual_edges_nocd",
    "residual_record",
    "fold_residual",
    "run_residual_shrinkage",
]

#: The series of one run's record, in the order the report lists them.
RESIDUAL_LABELS = ("cd-mis", "luby-ideal", "nocd-energy-mis")


@dataclass
class ShrinkageSeries:
    """Per-phase residual edge counts of one run plus derived ratios."""

    label: str
    edges: List[int]  # edges[i] = |E_i|; edges[0] = |E_0|

    @property
    def ratios(self) -> List[float]:
        """``|E_i| / |E_{i-1}|`` over phases with a non-empty predecessor."""
        return [
            self.edges[i] / self.edges[i - 1]
            for i in range(1, len(self.edges))
            if self.edges[i - 1] > 0
        ]


def residual_edges_cd(graph: Graph, result) -> List[int]:
    """Reconstruct |E_i| for Algorithm 1 (residual = undecided nodes)."""
    decided_phase = [info.get("decided_phase") for info in result.node_info]
    phases = max(
        (phase for phase in decided_phase if phase is not None), default=-1
    )
    series = [graph.num_edges]
    for phase in range(phases + 1):
        alive = {
            node
            for node in graph.nodes
            if decided_phase[node] is None or decided_phase[node] > phase
        }
        series.append(len(graph.edges_within(alive)))
    return series


def residual_edges_nocd(graph: Graph, result) -> List[int]:
    """Reconstruct |E_i| for Algorithm 2 (residual = non-OUT nodes, Def 18)."""
    out_phase = {}
    for stats, info in zip(result.node_stats, result.node_info):
        if stats.decision is Decision.OUT_MIS:
            out_phase[stats.node] = info.get("decided_phase")
    phases = max(
        (phase for phase in out_phase.values() if phase is not None), default=-1
    )
    series = [graph.num_edges]
    for phase in range(phases + 1):
        alive = {
            node
            for node in graph.nodes
            if node not in out_phase
            or out_phase[node] is None
            or out_phase[node] > phase
        }
        series.append(len(graph.edges_within(alive)))
    return series


@dataclass
class ResidualReport:
    """E8 output: shrinkage ratios per process."""

    series: List[ShrinkageSeries]

    def to_table(self) -> str:
        headers = ["process", "runs", "mean ratio", "max ratio", "paper bound"]
        bounds = {"cd-mis": 0.5, "nocd-energy-mis": 63.0 / 64.0, "luby-ideal": 0.5}
        grouped = {}
        for item in self.series:
            grouped.setdefault(item.label, []).extend(item.ratios)
        rows = []
        counts = {}
        for item in self.series:
            counts[item.label] = counts.get(item.label, 0) + 1
        for label, ratios in grouped.items():
            if not ratios:
                continue
            summary = summarize(ratios)
            rows.append(
                (
                    label,
                    counts[label],
                    summary.mean,
                    summary.maximum,
                    bounds.get(label, "-"),
                )
            )
        return render_table(
            headers, rows, title="E8 residual-edge shrinkage per Luby phase"
        )

    def mean_ratio(self, label: str) -> float:
        ratios = [r for item in self.series if item.label == label for r in item.ratios]
        return sum(ratios) / len(ratios) if ratios else 0.0


def residual_record(
    graph: Graph, seed: int, constants: ConstantsProfile
) -> Dict[str, List[int]]:
    """One (graph, seed) run: residual-edge series per process label."""
    result = run_protocol(
        graph, CDMISProtocol(constants=constants, instrument=True), CD, seed=seed
    )
    record = {"cd-mis": residual_edges_cd(graph, result)}
    ideal = luby_mis(graph, seed=seed, constants=constants)
    record["luby-ideal"] = list(ideal.residual_edges)
    protocol = NoCDEnergyMISProtocol(constants=constants, instrument=True)
    result = run_protocol(graph, protocol, NO_CD, seed=seed)
    record["nocd-energy-mis"] = residual_edges_nocd(graph, result)
    return record


def fold_residual(records: Iterable[Dict[str, List[int]]]) -> ResidualReport:
    """The E8 report over per-run records, in record order."""
    return ResidualReport(
        series=[
            ShrinkageSeries(label, list(record[label]))
            for record in records
            for label in RESIDUAL_LABELS
            if label in record
        ]
    )


def run_residual_shrinkage(
    graphs: Sequence[Graph],
    seeds: Sequence[int],
    constants: Optional[ConstantsProfile] = None,
) -> ResidualReport:
    """Measure shrinkage for Algorithm 1, Algorithm 2, and idealized Luby:
    one cached record per (graph, seed), graph-major."""
    constants = constants or ConstantsProfile.practical()
    return fold_residual(
        _harness_records(
            "residual",
            CDMISProtocol(constants=constants, instrument=True),
            lambda g, seed: residual_record(graphs[g], seed, constants),
            [graph_fingerprint(graph) for graph in graphs],
            seeds,
        )
    )
