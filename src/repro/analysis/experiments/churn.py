"""Dynamic-topology churn: repair cost as a function of churn rate.

The paper's guarantees are stated for a static graph; the churn fault
layer (:mod:`repro.faults.churn`) asks how expensive it is to *keep* an
MIS when the topology drifts underneath a finished protocol.  This
experiment sweeps the edge-churn rate across graph families and records
what repair costs: rounds spent inside violation windows, awake rounds
charged to repair restarts, and how often the network restabilizes to a
valid MIS of the final graph.

Expectations (the shape-tier churn claims point here):

* repair cost grows with the churn rate — more toggles break more
  decided nodes, so violation windows open more often and repair
  restarts burn more energy;
* the post-churn output is a valid MIS of the *final* graph in almost
  every run — the runtime's final scan guarantees convergence, so only
  budget exhaustion can spoil a cell.

One churned run is :func:`churn_record`, a JSON-safe record;
:func:`run_churn_study` folds records into the table, and ``claims
verify`` caches them as executor trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...constants import ConstantsProfile
from ...core import CDMISProtocol
from ...errors import SimulationError
from ...faults import ChurnPlan, FaultPlan
from ...graphs.generators import gnp_random_graph, random_bounded_degree_graph
from ...graphs.graph import Graph
from ...radio.engine import run_protocol
from ...radio.models import CD, CollisionModel
from ...radio.node import Protocol
from ..tables import render_table

__all__ = ["ChurnReport", "churn_record", "run_churn_study"]

#: Edge-churn window: toggles land in rounds ``[_CHURN_START,
#: _CHURN_STOP)``.  Fixed across rates so the expected event count is
#: proportional to the rate — the x-axis of the repair-cost table.
_CHURN_START = 8
_CHURN_STOP = 128


@dataclass
class ChurnReport:
    """Repair-cost-vs-rate rows for :func:`run_churn_study`."""

    n: int
    trials: int
    rates: Tuple[float, ...]
    rows: List[Tuple] = field(default_factory=list)

    def to_table(self) -> str:
        return render_table(
            [
                "family",
                "rate",
                "events",
                "valid",
                "restab",
                "repair rds",
                "repair E",
                "viol window",
            ],
            self.rows,
            title=(
                f"repair cost vs churn rate (n={self.n}, "
                f"{self.trials} trials/cell, "
                f"window {_CHURN_START}..{_CHURN_STOP})"
            ),
        )

    def cells(self, family: str) -> List[Tuple]:
        """This family's rows, in ascending rate order."""
        return [row for row in self.rows if row[0] == family]


def churn_record(
    graph: Graph,
    protocol: Protocol,
    model: CollisionModel,
    seed: int,
    churn: ChurnPlan,
) -> Dict[str, object]:
    """One run under ``churn`` (plan seeded by ``seed``): validity of the
    output against the final graph, restabilization, and repair cost.

    A run that exhausts its round budget records as neither valid nor
    restabilized, at zero cost.
    """
    plan = FaultPlan(seed=seed, churn=churn)
    try:
        result = run_protocol(graph, protocol, model, seed=seed, faults=plan)
    except SimulationError:
        return {
            "valid": False,
            "restabilized": False,
            "repair_rounds": 0,
            "repair_energy": 0,
            "violation": 0,
            "churn_events": 0,
        }
    return {
        "valid": result.is_valid_mis(),
        "restabilized": result.time_to_stabilize() is not None,
        "repair_rounds": result.repair_rounds,
        "repair_energy": result.repair_energy,
        "violation": result.mis_violation_window,
        "churn_events": sum(count for _, count in result.churn_events),
    }


def run_churn_study(
    n: int = 64,
    trials: int = 4,
    rates: Sequence[float] = (0.0, 0.02, 0.08, 0.2),
    constants: Optional[ConstantsProfile] = None,
    base_seed: int = 0,
) -> ChurnReport:
    """Sweep edge-churn rate x graph family and score repair cost.

    Deterministic in ``(n, trials, rates, constants, base_seed)``: the
    trial seed feeds both the topology draw and the churn plan, so
    reruns reproduce bit-identically.  A run that exhausts its round
    budget counts against both the valid and restabilized fractions —
    non-termination under churn is degradation, not an error.
    """
    constants = constants or ConstantsProfile.practical()
    protocol = CDMISProtocol(constants=constants)
    degree = 8.0 / (n - 1)
    families: Tuple[Tuple[str, Callable[[int], Graph]], ...] = (
        ("gnp", lambda seed: gnp_random_graph(n, degree, seed=seed)),
        ("bounded-deg", lambda seed: random_bounded_degree_graph(n, 6, seed=seed)),
    )
    report = ChurnReport(n=n, trials=trials, rates=tuple(rates))
    for family, factory in families:
        for rate in rates:
            churn = ChurnPlan(
                edge_p=rate, start=_CHURN_START, stop=_CHURN_STOP
            )
            records = [
                churn_record(factory(seed), protocol, CD, seed, churn)
                for seed in range(base_seed, base_seed + trials)
            ]

            def mean(field: str, places: int) -> float:
                return round(sum(r[field] for r in records) / trials, places)

            report.rows.append(
                (
                    family,
                    rate,
                    sum(r["churn_events"] for r in records),
                    mean("valid", 3),
                    mean("restabilized", 3),
                    mean("repair_rounds", 1),
                    mean("repair_energy", 1),
                    mean("violation", 1),
                )
            )
    return report
