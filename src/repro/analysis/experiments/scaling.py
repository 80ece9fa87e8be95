"""Scaling sweeps (experiments E2-E5): energy and rounds vs n.

One harness serves all four experiments: it sweeps network sizes for a
suite of protocols on a common topology family and reports, per
protocol, the measured series, log-power fits, and pairwise ratios.
The CD suite covers E2/E3, the no-CD suite covers E4/E5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ...baselines import (
    LowDegreeMISProtocol,
    NaiveBackoffMISProtocol,
    NaiveCDLubyProtocol,
)
from ...constants import ConstantsProfile
from ...core import CDMISProtocol, NoCDEnergyMISProtocol
from ...graphs.graph import Graph
from ...radio.models import CollisionModel
from ...radio.node import Protocol
from ..sweep import SweepResult, run_size_sweep
from ..tables import render_table
from ..workloads import build_workload

__all__ = [
    "ScalingReport",
    "cd_protocol_suite",
    "nocd_protocol_suite",
    "default_graph_factory",
    "run_scaling_comparison",
]


def default_graph_factory(n: int, seed: int) -> Graph:
    """The sweeps' default workload: sparse G(n, p) with expected degree 8.

    Keeping the expected degree fixed while n grows isolates the
    ``log n`` factors from Delta effects (Delta gets its own sweep, E11).
    It is the ``gnp`` workload, so both name the same graph family.
    """
    return build_workload("gnp", n, seed)


def cd_protocol_suite(
    constants: Optional[ConstantsProfile] = None,
) -> Dict[str, Callable[[int], Protocol]]:
    """CD-model contenders: Algorithm 1 vs the naive Luby strawman."""
    constants = constants or ConstantsProfile.practical()
    return {
        "cd-mis": lambda n: CDMISProtocol(constants=constants),
        "naive-cd-luby": lambda n: NaiveCDLubyProtocol(constants=constants),
    }


def nocd_protocol_suite(
    constants: Optional[ConstantsProfile] = None,
    include_naive: bool = True,
) -> Dict[str, Callable[[int], Protocol]]:
    """no-CD contenders: Algorithm 2 vs Davies-style vs naive backoff."""
    constants = constants or ConstantsProfile.practical()
    suite: Dict[str, Callable[[int], Protocol]] = {
        "nocd-energy-mis": lambda n: NoCDEnergyMISProtocol(constants=constants),
        "davies-low-degree-mis": lambda n: LowDegreeMISProtocol(constants=constants),
    }
    if include_naive:
        suite["naive-backoff-mis"] = lambda n: NaiveBackoffMISProtocol(
            constants=constants
        )
    return suite


@dataclass
class ScalingReport:
    """Sweep results for a suite of protocols on one model."""

    model_name: str
    sizes: List[int]
    sweeps: Dict[str, SweepResult] = field(default_factory=dict)

    def metric_table(self, metric: str, metric_label: str) -> str:
        """Side-by-side table of one metric for every protocol."""
        headers = ["n"] + list(self.sweeps)
        rows = []
        for index, n in enumerate(self.sizes):
            row = [n]
            for sweep in self.sweeps.values():
                row.append(sweep.points[index].__getattribute__(metric))
            rows.append(row)
        return render_table(
            headers, rows, title=f"{metric_label} vs n ({self.model_name})"
        )

    def fits_table(self, metric: str = "max_energy_mean") -> str:
        """Log-power fit summary per protocol."""
        headers = ["protocol", "fit exponent", "best log-power", "coefficient"]
        rows = []
        for name, sweep in self.sweeps.items():
            fit = sweep.fit(metric)
            rows.append(
                (name, fit.exponent, fit.best_integer_exponent, fit.coefficient)
            )
        return render_table(headers, rows, title=f"log-power fits of {metric}")

    def ratio_series(
        self, numerator: str, denominator: str, metric: str = "max_energy_mean"
    ) -> List[float]:
        """Per-size ratio between two protocols' metrics."""
        top = self.sweeps[numerator].series(metric)
        bottom = self.sweeps[denominator].series(metric)
        return [t / b if b else float("inf") for t, b in zip(top, bottom)]


def run_scaling_comparison(
    sizes: Sequence[int],
    suite: Dict[str, Callable[[int], Protocol]],
    model: CollisionModel,
    trials: int = 8,
    base_seed: int = 0,
) -> ScalingReport:
    """Sweep every protocol of ``suite`` over ``sizes`` on the default
    workload; its trials cache under the CLI's ``workload:gnp/n=<n>``
    keys."""
    report = ScalingReport(model_name=model.name, sizes=list(sizes))
    for name, factory in suite.items():
        report.sweeps[name] = run_size_sweep(
            sizes,
            default_graph_factory,
            factory,
            model,
            trials=trials,
            base_seed=base_seed,
            graph_spec="workload:gnp",
        )
    return report
