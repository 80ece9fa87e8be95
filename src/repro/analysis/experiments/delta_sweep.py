"""Experiment E11: Delta-parametrization of the round complexity.

Theorem 10's round bound is ``O(log^3 n log Delta)`` and the improved
Davies algorithm runs in ``O(log^2 n log Delta)`` — both scale
logarithmically in the degree bound at fixed n.  The sweep holds n
fixed, grows Delta through bounded-degree random graphs, and measures
rounds and energy for Algorithm 2 and the Davies-style baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ...baselines import LowDegreeMISProtocol
from ...constants import ConstantsProfile
from ...core import NoCDEnergyMISProtocol
from ...graphs.generators import random_bounded_degree_graph
from ...radio.models import NO_CD
from ..runner import run_trials
from ..tables import render_table

__all__ = ["DeltaPoint", "DeltaSweepReport", "run_delta_sweep"]


@dataclass(frozen=True)
class DeltaPoint:
    """Aggregates for one (protocol, Delta) cell."""

    protocol: str
    delta: int
    rounds_mean: float
    max_energy_mean: float
    failure_rate: float


@dataclass
class DeltaSweepReport:
    """E11 output."""

    n: int
    points: List[DeltaPoint]

    def to_table(self) -> str:
        headers = ["protocol", "Delta", "rounds mean", "maxE mean", "fail%"]
        rows = [
            (
                point.protocol,
                point.delta,
                point.rounds_mean,
                point.max_energy_mean,
                100.0 * point.failure_rate,
            )
            for point in self.points
        ]
        return render_table(
            headers, rows, title=f"E11 Delta sweep at fixed n={self.n}"
        )

    def series(self, protocol: str, metric: str = "rounds_mean") -> List[float]:
        return [
            getattr(point, metric)
            for point in self.points
            if point.protocol == protocol
        ]

    def deltas(self, protocol: str) -> List[int]:
        return [point.delta for point in self.points if point.protocol == protocol]


def run_delta_sweep(
    n: int = 128,
    deltas: Sequence[int] = (4, 8, 16, 32, 64),
    trials: int = 6,
    constants: Optional[ConstantsProfile] = None,
    base_seed: int = 0,
) -> DeltaSweepReport:
    """Sweep the degree bound at fixed n on bounded-degree random graphs."""
    constants = constants or ConstantsProfile.practical()
    protocols = (
        NoCDEnergyMISProtocol(constants=constants),
        LowDegreeMISProtocol(constants=constants),
    )
    points: List[DeltaPoint] = []
    for protocol in protocols:
        for delta in deltas:
            summary = run_trials(
                lambda seed: random_bounded_degree_graph(n, delta, seed=seed),
                protocol,
                NO_CD,
                [base_seed + 101 * trial + delta for trial in range(trials)],
                graph_spec=f"bounded-degree:n={n}/delta={delta}",
            )
            points.append(
                DeltaPoint(
                    protocol=protocol.name,
                    delta=delta,
                    rounds_mean=summary.rounds_summary().mean,
                    max_energy_mean=summary.max_energy_summary().mean,
                    failure_rate=summary.failure_rate,
                )
            )
    return DeltaSweepReport(n=n, points=points)
