"""Parameter sweeps: the scaling experiments' shared harness.

A sweep runs one or more protocols across a grid of network sizes (or
degree bounds), aggregates per-size trial statistics, and exposes the
series the scaling experiments (E1-E5, E11) fit and print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..graphs.graph import Graph
from ..radio.models import CollisionModel
from ..radio.node import Protocol
from .complexity_fit import PolylogFit, fit_polylog
from .runner import TrialSummary, run_trials
from .tables import render_table

__all__ = ["SweepPoint", "SweepResult", "run_size_sweep", "sweep_seeds"]

#: graph factory signature: (n, seed) -> Graph
SizedGraphFactory = Callable[[int, int], Graph]
#: protocol factory signature: (n) -> Protocol
ProtocolFactory = Callable[[int], Protocol]


@dataclass(frozen=True)
class SweepPoint:
    """Aggregates for one (protocol, size) grid cell."""

    n: int
    trials: int
    failure_rate: float
    max_energy_mean: float
    max_energy_max: float
    mean_energy_mean: float
    rounds_mean: float
    rounds_max: float


@dataclass
class SweepResult:
    """Full sweep output for one protocol."""

    protocol_name: str
    model_name: str
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def sizes(self) -> List[int]:
        return [point.n for point in self.points]

    def series(self, metric: str) -> List[float]:
        """Extract one metric as a list aligned with :attr:`sizes`."""
        return [getattr(point, metric) for point in self.points]

    def fit(self, metric: str = "max_energy_mean") -> PolylogFit:
        """Log-power fit (no ``loglog`` factor) of a metric against the
        swept sizes."""
        return fit_polylog(self.sizes, self.series(metric), loglog_powers=(0,))

    def to_table(self) -> str:
        """Render the sweep as an aligned table."""
        headers = [
            "n",
            "trials",
            "fail%",
            "maxE(mean)",
            "maxE(max)",
            "meanE",
            "rounds(mean)",
        ]
        rows = [
            (
                point.n,
                point.trials,
                100.0 * point.failure_rate,
                point.max_energy_mean,
                point.max_energy_max,
                point.mean_energy_mean,
                point.rounds_mean,
            )
            for point in self.points
        ]
        return render_table(headers, rows, title=f"{self.protocol_name}@{self.model_name}")


def sweep_seeds(base_seed: int, n: int, trials: int) -> List[int]:
    """Master seeds of one sweep cell: ``base_seed + 7919 * trial + n``.

    Campaign cells and the service's sweep jobs use the same rule, so
    their trials share cache keys with ``repro sweep``.
    """
    return [base_seed + 7_919 * trial + n for trial in range(trials)]


def run_size_sweep(
    sizes: Sequence[int],
    graph_factory: SizedGraphFactory,
    protocol_factory: ProtocolFactory,
    model: CollisionModel,
    trials: int = 10,
    base_seed: int = 0,
    *,
    graph_spec: Optional[str] = None,
) -> SweepResult:
    """Sweep network sizes for one protocol family.

    Each grid cell runs ``trials`` independent trials; topology is drawn
    fresh per trial via ``graph_factory(n, seed)``.  Cells run through
    :func:`~repro.analysis.runner.run_trials` under the installed
    execution defaults (jobs, cache, engine, progress, ...).  Caching
    requires ``graph_spec``, a stable name of the topology family (the
    per-cell spec appends ``/n=<size>``).
    """
    result: Optional[SweepResult] = None
    for n in sizes:
        protocol = protocol_factory(n)
        if result is None:
            result = SweepResult(protocol_name=protocol.name, model_name=model.name)
        summary: TrialSummary = run_trials(
            lambda seed, n=n: graph_factory(n, seed),
            protocol,
            model,
            sweep_seeds(base_seed, n, trials),
            graph_spec=f"{graph_spec}/n={n}" if graph_spec else None,
        )
        if summary.outcomes:
            energy = summary.max_energy_summary()
            mean_energy = summary.mean_energy_summary()
            rounds = summary.rounds_summary()
            point = SweepPoint(
                n=n,
                trials=summary.trials,
                failure_rate=summary.failure_rate,
                max_energy_mean=energy.mean,
                max_energy_max=energy.maximum,
                mean_energy_mean=mean_energy.mean,
                rounds_mean=rounds.mean,
                rounds_max=rounds.maximum,
            )
        else:
            # Every trial of the cell quarantined (retry policy gave up
            # on all seeds): no distribution to average — report NaN.
            nan = float("nan")
            point = SweepPoint(
                n=n,
                trials=summary.trials,
                failure_rate=summary.failure_rate,
                max_energy_mean=nan,
                max_energy_max=nan,
                mean_energy_mean=nan,
                rounds_mean=nan,
                rounds_max=nan,
            )
        result.points.append(point)
    assert result is not None, "sizes must be non-empty"
    return result
