"""Experiment E1: the headline complexity table (Section 1.3).

Regenerates, as measurements, the paper's summary of results: for each
algorithm, its measured worst-case energy and rounds at a reference size
alongside the claimed asymptotic, plus the pairwise improvement factors
the paper highlights (Algorithm 1 vs naive CD Luby; Algorithm 2 vs
Davies-style vs naive no-CD).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ...baselines import (
    LowDegreeMISProtocol,
    NaiveBackoffMISProtocol,
    NaiveCDLubyProtocol,
)
from ...constants import ConstantsProfile
from ...core import BeepingMISProtocol, CDMISProtocol, NoCDEnergyMISProtocol
from ...radio.models import BEEPING, CD, NO_CD
from ..runner import run_trials
from ..tables import render_table
from .scaling import default_graph_factory

__all__ = ["HeadlineRow", "HeadlineReport", "run_headline_table"]

#: Claimed asymptotics, straight out of Section 1.3 / Section 4.2 (the
#: claims report renders the same column from this table).
PAPER_CLAIMS = {
    "cd-mis": ("O(log n)", "O(log^2 n)"),
    "beeping-mis": ("O(log n)", "O(log^2 n)"),
    "naive-cd-luby": ("O(log^2 n)", "O(log^2 n)"),
    "nocd-energy-mis": ("O(log^2 n loglog n)", "O(log^3 n log D)"),
    "davies-low-degree-mis": ("O(log^2 n log D)", "O(log^2 n log D)"),
    "naive-backoff-mis": ("O(log^4 n)", "O(log^4 n)"),
}


@dataclass(frozen=True)
class HeadlineRow:
    """One algorithm's measured and claimed complexities."""

    protocol: str
    model: str
    paper_energy: str
    paper_rounds: str
    max_energy_mean: float
    max_energy_max: float
    rounds_mean: float
    failure_rate: float


@dataclass
class HeadlineReport:
    """E1 output."""

    n: int
    trials: int
    rows: List[HeadlineRow]

    def to_table(self) -> str:
        headers = [
            "algorithm",
            "model",
            "paper energy",
            "paper rounds",
            "maxE mean",
            "maxE max",
            "rounds mean",
            "fail%",
        ]
        table_rows = [
            (
                row.protocol,
                row.model,
                row.paper_energy,
                row.paper_rounds,
                row.max_energy_mean,
                row.max_energy_max,
                row.rounds_mean,
                100.0 * row.failure_rate,
            )
            for row in self.rows
        ]
        return render_table(
            headers,
            table_rows,
            title=f"E1 headline complexities (n={self.n}, {self.trials} trials)",
        )


def run_headline_table(
    n: int = 256,
    trials: int = 8,
    constants: Optional[ConstantsProfile] = None,
    base_seed: int = 0,
) -> HeadlineReport:
    """Measure every algorithm at one reference size on G(n, p)."""
    constants = constants or ConstantsProfile.practical()
    contenders = [
        (CDMISProtocol(constants=constants), CD),
        (BeepingMISProtocol(constants=constants), BEEPING),
        (NaiveCDLubyProtocol(constants=constants), CD),
        (NoCDEnergyMISProtocol(constants=constants), NO_CD),
        (LowDegreeMISProtocol(constants=constants), NO_CD),
        (NaiveBackoffMISProtocol(constants=constants), NO_CD),
    ]

    rows: List[HeadlineRow] = []
    seeds = [base_seed + 104_729 * trial for trial in range(trials)]
    for protocol, model in contenders:
        summary = run_trials(
            lambda seed: default_graph_factory(n, seed),
            protocol,
            model,
            seeds,
            graph_spec=f"workload:gnp/n={n}",
        )
        energy = summary.max_energy_summary()
        rounds = summary.rounds_summary()
        paper_energy, paper_rounds = PAPER_CLAIMS.get(protocol.name, ("?", "?"))
        rows.append(
            HeadlineRow(
                protocol=protocol.name,
                model=model.name,
                paper_energy=paper_energy,
                paper_rounds=paper_rounds,
                max_energy_mean=energy.mean,
                max_energy_max=energy.maximum,
                rounds_mean=rounds.mean,
                failure_rate=summary.failure_rate,
            )
        )
    return HeadlineReport(n=n, trials=trials, rows=rows)
