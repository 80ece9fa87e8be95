"""Per-run engine telemetry: what the round-engine hot path actually did.

The scalar engine's hot path (zero- and one-transmitter fast paths, a
dict scatter tally, a bucketed round calendar, listen windows and
transmit schedules off the calendar) is not visible from a run's
result.  :class:`EngineTelemetry` is its flight recorder: one cheap
per-round counter set, materialized on :attr:`repro.radio.metrics.RunResult.
telemetry` when a run is invoked with ``telemetry=True`` and ``None``
otherwise.  The field is excluded from ``RunResult`` equality, so
telemetry-enabled runs stay bit-identical to the specification oracle
(the golden tests enforce this).

The per-protocol-component energy aggregate exposes the quantities the
paper's analyses budget directly (per-phase awake rounds, the
Ghaffari–Portmann / Cornejo–Kuhn accounting style) without every
benchmark recomputing them from per-node ledgers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .registry import Registry

__all__ = ["EngineTelemetry"]


@dataclass
class EngineTelemetry:
    """Counters for one :func:`repro.radio.engine.run_protocol` run.

    Round-shape counters partition the processed (populated) rounds:
    ``rounds_processed == zero_tx_rounds + one_tx_rounds +
    scatter_dict_rounds``.
    """

    #: Populated rounds the main loop processed.
    rounds_processed: int = 0
    #: Empty rounds the calendar clock jumped over (sleep fast-forward).
    rounds_skipped: int = 0
    #: Rounds resolved by the 0-transmitter fast path (silence for all).
    zero_tx_rounds: int = 0
    #: Rounds resolved by the lone-transmitter fast path.
    one_tx_rounds: int = 0
    #: Multi-transmitter rounds tallied by the dict scatter.
    scatter_dict_rounds: int = 0
    #: Node coroutine resumes (``generator.send`` calls): boots,
    #: restarts, awake rounds that did not re-park a listen window or a
    #: transmit schedule, and one per yielded sleep.
    resumes: int = 0
    #: Listen-window rounds listened without resuming the node
    #: (re-parked, or charged off the calendar).
    window_rounds: int = 0
    #: Transmit-schedule rounds after which the node's next transmit
    #: was re-parked without resuming it (all but a schedule's last).
    schedule_rounds: int = 0
    #: Wall-clock duration of the run, seconds.
    wall_s: float = 0.0
    #: Aggregate energy ledger over all nodes, by protocol component.
    energy_by_component: Dict[str, int] = field(default_factory=dict)
    #: Rounds with any action on a nonzero channel.  0 for every
    #: single-channel run.
    multichannel_rounds: int = 0
    #: Multichannel rounds each channel carried >= 1 transmitter.
    channel_tx_rounds: Dict[int, int] = field(default_factory=dict)
    #: Multichannel rounds each channel was contended (>= 2 transmitters).
    channel_collision_rounds: Dict[int, int] = field(default_factory=dict)

    @property
    def total_energy(self) -> int:
        """Sum of the per-component energy ledger (== awake node-rounds)."""
        return sum(self.energy_by_component.values())

    def to_record(self) -> Dict[str, object]:
        """JSON-serializable flat record (the JSONL ``run`` payload)."""
        return {
            "rounds_processed": self.rounds_processed,
            "rounds_skipped": self.rounds_skipped,
            "zero_tx_rounds": self.zero_tx_rounds,
            "one_tx_rounds": self.one_tx_rounds,
            "scatter_dict_rounds": self.scatter_dict_rounds,
            "resumes": self.resumes,
            "window_rounds": self.window_rounds,
            "schedule_rounds": self.schedule_rounds,
            "wall_s": self.wall_s,
            "energy_by_component": dict(self.energy_by_component),
            "multichannel_rounds": self.multichannel_rounds,
            # JSON keys are strings; stringify the channel indices.
            "channel_tx_rounds": {
                str(ch): count for ch, count in self.channel_tx_rounds.items()
            },
            "channel_collision_rounds": {
                str(ch): count
                for ch, count in self.channel_collision_rounds.items()
            },
        }

    def publish(self, registry: Registry) -> None:
        """Accumulate this run into ``registry`` under ``engine.*`` names."""
        registry.counter("engine.runs").inc()
        registry.counter("engine.rounds.processed").inc(self.rounds_processed)
        registry.counter("engine.rounds.skipped").inc(self.rounds_skipped)
        registry.counter("engine.rounds.zero_tx").inc(self.zero_tx_rounds)
        registry.counter("engine.rounds.one_tx").inc(self.one_tx_rounds)
        registry.counter("engine.rounds.scatter_dict").inc(
            self.scatter_dict_rounds
        )
        registry.counter("engine.resumes").inc(self.resumes)
        registry.counter("engine.rounds.window").inc(self.window_rounds)
        registry.counter("engine.rounds.scheduled").inc(self.schedule_rounds)
        for component, rounds in sorted(self.energy_by_component.items()):
            registry.counter(f"engine.energy.{component}").inc(rounds)
        if self.multichannel_rounds:
            registry.counter("engine.channels.rounds").inc(
                self.multichannel_rounds
            )
            for ch, rounds in sorted(self.channel_tx_rounds.items()):
                registry.counter(f"engine.channels.tx.{ch}").inc(rounds)
            for ch, rounds in sorted(self.channel_collision_rounds.items()):
                registry.counter(f"engine.channels.collisions.{ch}").inc(
                    rounds
                )
        registry.histogram("engine.wall_s").observe(self.wall_s)
