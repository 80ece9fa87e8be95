"""Channel sweep: the multichannel energy/round tradeoff (CHANNELS).

Lifting the radio onto C frequencies dilutes contention — the
channel-hopping protocol (:class:`~repro.baselines.multichannel_mis.
MultichannelMISProtocol`) runs C rank tournaments in parallel, so each
phase can elect up to C independent winners per neighborhood instead of
one.  The price is the serialized announce block: every phase ends with
C time-multiplexed slots on channel 0, so per-phase cost grows linearly
in C while per-phase progress saturates once C approaches the degree.

This experiment sweeps C and regenerates the energy-vs-rounds table
against the single-channel strawmen (``naive-cd-luby`` under CD,
``naive-backoff-mis`` under no-CD).  On dense topologies the curve is
non-monotone: energy falls from C=1 to a sweet spot (C around 4 at
these sizes), then the announce overhead claws it back — the
``channel_sweep`` claim pins that window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ...baselines import (
    MultichannelMISProtocol,
    NaiveBackoffMISProtocol,
    NaiveCDLubyProtocol,
)
from ...constants import ConstantsProfile
from ...radio.models import CD, NO_CD
from ..runner import run_trials
from ..tables import render_table
from ..workloads import build_workload

__all__ = ["ChannelSweepReport", "run_channel_sweep_study"]


@dataclass
class ChannelSweepReport:
    """Energy/round rows per channel count for the CHANNELS table."""

    n: int
    trials: int
    channel_counts: Tuple[int, ...]
    topology: str
    rows: List[Tuple] = field(default_factory=list)

    def to_table(self) -> str:
        return render_table(
            ["protocol", "model", "C", "valid", "rounds", "max E", "mean E"],
            self.rows,
            title=(
                f"channel sweep on {self.topology} (n={self.n}, "
                f"{self.trials} trials/cell)"
            ),
        )

    def cell(self, protocol: str, channels: int) -> Optional[Tuple]:
        """The row for one (protocol, channel count), or None."""
        for row in self.rows:
            if row[0] == protocol and row[2] == channels:
                return row
        return None


def run_channel_sweep_study(
    n: int = 64,
    trials: int = 4,
    channel_counts: Sequence[int] = (1, 2, 4, 8, 16),
    topology: str = "gnp-dense",
    constants: Optional[ConstantsProfile] = None,
    base_seed: int = 0,
) -> ChannelSweepReport:
    """Sweep the channel count and tabulate energy/round means.

    Deterministic in its arguments: trial seeds are ``base_seed +
    trial``, shared across every cell so all protocols see the same
    topology draws.  The multichannel cells hand ``channels=C`` to
    :func:`~repro.analysis.runner.run_trials`, which lifts the CD model
    per cell (``cd@cC``) and falls back to the scalar engine.
    """
    constants = constants or ConstantsProfile.practical()
    seeds = [base_seed + trial for trial in range(trials)]
    factory = lambda seed: build_workload(topology, n, seed)  # noqa: E731
    spec = f"workload:{topology}/n={n}"  # the CLI's key for the same trials
    report = ChannelSweepReport(
        n=n,
        trials=trials,
        channel_counts=tuple(channel_counts),
        topology=topology,
    )

    def add_row(name, model_label, channels, summary):
        outcomes = summary.outcomes
        count = max(1, len(outcomes))
        report.rows.append(
            (
                name,
                model_label,
                channels,
                round((len(outcomes) - summary.failures) / count, 3),
                round(sum(o.rounds for o in outcomes) / count, 1),
                round(sum(o.max_energy for o in outcomes) / count, 1),
                round(sum(o.mean_energy for o in outcomes) / count, 1),
            )
        )

    for channels in channel_counts:
        summary = run_trials(
            factory,
            MultichannelMISProtocol(constants=constants, channels=channels),
            CD,
            seeds,
            channels=channels,
            graph_spec=spec,
        )
        add_row("mc-luby", summary.model_name, channels, summary)

    # Single-channel strawmen the sweep is measured against.
    add_row(
        "naive-cd-luby",
        "cd",
        1,
        run_trials(
            factory,
            NaiveCDLubyProtocol(constants=constants),
            CD,
            seeds,
            graph_spec=spec,
        ),
    )
    add_row(
        "naive-backoff-mis",
        "no-cd",
        1,
        run_trials(
            factory,
            NaiveBackoffMISProtocol(constants=constants),
            NO_CD,
            seeds,
            graph_spec=spec,
        ),
    )
    return report
