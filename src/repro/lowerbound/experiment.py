"""The Theorem 1 experiment: failure probability vs energy budget.

For a grid of budgets ``b`` the harness runs an energy-``b`` strategy on
the hard instance many times, records the empirical failure rate and the
realized worst-case energy, and lines the numbers up against the
analytic curves from :mod:`repro.lowerbound.analytic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from ..analysis.runner import run_trials
from ..radio.models import CD
from ..radio.node import Protocol
from .analytic import (
    sync_coin_failure,
    theorem1_exact_pair_bound,
    theorem1_failure_lower_bound,
)
from .hard_instance import hard_instance

__all__ = ["BudgetPoint", "LowerBoundReport", "run_lower_bound_experiment"]


@dataclass(frozen=True)
class BudgetPoint:
    """Measurements for one energy budget."""

    budget: int
    trials: int
    failures: int
    max_energy_seen: int
    analytic_lower_bound: float  # 1 - e^{-n/4^{b+1}}
    analytic_pair_bound: float  # 1 - (1 - 4^-b)^{n/4}
    sync_coin_prediction: float  # exact law of the coin strategy

    @property
    def empirical_failure(self) -> float:
        return self.failures / self.trials if self.trials else 0.0


@dataclass
class LowerBoundReport:
    """Full sweep output for one strategy family."""

    n: int
    strategy_name: str
    points: List[BudgetPoint]

    def rows(self) -> List[dict]:
        """Table rows for rendering/serialization."""
        return [
            {
                "b": point.budget,
                "empirical": point.empirical_failure,
                "thm1_bound": point.analytic_lower_bound,
                "pair_bound": point.analytic_pair_bound,
                "coin_exact": point.sync_coin_prediction,
                "max_energy": point.max_energy_seen,
            }
            for point in self.points
        ]


def run_lower_bound_experiment(
    n: int,
    budgets: Sequence[int],
    strategy_factory: Callable[[int], Protocol],
    trials: int = 50,
    seed: int = 0,
) -> LowerBoundReport:
    """Sweep energy budgets on the hard instance under the CD model.

    ``strategy_factory(b)`` must return an energy-``b`` protocol (e.g.
    ``SynchronizedCoinStrategy``).  A trial *fails* if the output is not
    a valid MIS of the hard instance.  Each budget is one
    :func:`~repro.analysis.runner.run_trials` battery on the fixed
    graph, so its trials run on their master seeds and cache under the
    graph's fingerprint.
    """
    graph = hard_instance(n)
    points: List[BudgetPoint] = []
    strategy_name = "strategy"

    for budget in budgets:
        protocol = strategy_factory(budget)
        strategy_name = protocol.name
        summary = run_trials(
            graph,
            protocol,
            CD,
            [seed * 1_000_003 + trial * 7_919 + budget for trial in range(trials)],
        )
        points.append(
            BudgetPoint(
                budget=budget,
                trials=summary.trials,
                failures=summary.failures,
                max_energy_seen=max(
                    (outcome.max_energy for outcome in summary.outcomes),
                    default=0,
                ),
                analytic_lower_bound=theorem1_failure_lower_bound(n, budget),
                analytic_pair_bound=theorem1_exact_pair_bound(n, budget),
                sync_coin_prediction=sync_coin_failure(n, budget),
            )
        )
    return LowerBoundReport(n=n, strategy_name=strategy_name, points=points)
