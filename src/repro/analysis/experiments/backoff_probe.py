"""Experiment E9: the backoff primitives' guarantees (Lemmas 8 and 9).

Lemma 8 (energy): on a ``k``-repeated backoff over degree bound Delta,
a sender is awake exactly ``k`` rounds while a receiver is awake
``O(k log Delta_est)`` rounds — the asymmetry the whole no-CD algorithm
leans on.

Lemma 9 (delivery): a receiver with at least one sending neighbor (and
at most ``Delta_est`` of them) returns true with probability at least
``1 - (7/8)^k``.

The probe assigns roles on a star: the hub is the receiver, a chosen
number of leaves are senders, the rest sleep.  Role assignment is a
harness device (the probe measures a primitive, not an anonymous
algorithm).

One probe run is :func:`backoff_record`, a JSON-safe record;
:func:`run_backoff_experiment` folds records into the report; both it
and ``claims verify`` cache them as executor trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ...core.backoff import backoff_rounds, rec_ebackoff, snd_ebackoff
from ...errors import ConfigurationError
from ...graphs.generators import star_graph
from ...graphs.graph import Graph
from ...radio.actions import Sleep
from ...radio.engine import run_protocol
from ...radio.models import NO_CD
from ...radio.node import NodeContext, Protocol, ProtocolRun
from ..runner import _record_keys, run_records
from ..stats import wilson_interval
from ..tables import render_table

__all__ = [
    "BackoffProbe",
    "BackoffPoint",
    "BackoffReport",
    "backoff_record",
    "run_backoff_experiment",
]


class BackoffProbe(Protocol):
    """Role-driven probe: node 0 receives, nodes 1..senders send."""

    name = "backoff-probe"
    compatible_models = ("no-cd", "cd", "beep")

    def __init__(
        self,
        k: int,
        delta: int,
        senders: int,
        delta_est: Optional[int] = None,
    ):
        if senders < 0:
            raise ConfigurationError(f"senders must be non-negative, got {senders}")
        self.k = k
        self.delta = delta
        self.senders = senders
        self.delta_est = delta_est

    def max_rounds_hint(self, n: int, delta: int) -> int:
        return backoff_rounds(self.k, self.delta) + 1

    def run(self, ctx: NodeContext) -> ProtocolRun:
        if ctx.node == 0:
            ctx.set_component("receiver")
            heard = yield from rec_ebackoff(ctx, self.k, self.delta, self.delta_est)
            ctx.info["heard"] = heard
        elif ctx.node <= self.senders:
            ctx.set_component("sender")
            yield from snd_ebackoff(ctx, self.k, self.delta)
        else:
            yield Sleep(backoff_rounds(self.k, self.delta))


@dataclass(frozen=True)
class BackoffPoint:
    """Measurements for one (k, senders) cell."""

    k: int
    senders: int
    trials: int
    heard: int
    sender_energy: int
    receiver_energy: int
    lemma9_bound: float  # 1 - (7/8)^k

    @property
    def heard_rate(self) -> float:
        return self.heard / self.trials if self.trials else 0.0


@dataclass
class BackoffReport:
    """E9 output."""

    delta: int
    points: List[BackoffPoint]

    def to_table(self) -> str:
        headers = [
            "k",
            "senders",
            "trials",
            "heard rate",
            "95% CI",
            "1-(7/8)^k",
            "sender E",
            "receiver E",
        ]
        rows = []
        for point in self.points:
            low, high = wilson_interval(point.heard, max(1, point.trials))
            rows.append(
                (
                    point.k,
                    point.senders,
                    point.trials,
                    point.heard_rate,
                    f"[{low:.3f},{high:.3f}]",
                    point.lemma9_bound,
                    point.sender_energy,
                    point.receiver_energy,
                )
            )
        return render_table(
            headers, rows, title=f"E9 backoff guarantees (Delta={self.delta})"
        )


def backoff_record(
    graph: Graph, probe: BackoffProbe, seed: int
) -> Dict[str, object]:
    """One probe run on ``graph``: whether the receiver heard, and the
    receiver's and the senders' extreme energies (0 with no senders)."""
    result = run_protocol(graph, probe, NO_CD, seed=seed)
    sender_awake = [
        result.node_stats[node].awake_rounds
        for node in range(1, probe.senders + 1)
    ]
    return {
        "heard": bool(result.node_info[0].get("heard")),
        "receiver_energy": result.node_stats[0].awake_rounds,
        "sender_energy_max": max(sender_awake, default=0),
        "sender_energy_min": min(sender_awake, default=0),
    }


def run_backoff_experiment(
    delta: int = 32,
    k_values: Sequence[int] = (1, 2, 4, 8, 16),
    sender_counts: Sequence[int] = (1, 4, 16, 32),
    trials: int = 100,
    base_seed: int = 0,
) -> BackoffReport:
    """Sweep (k, sender-count) cells on a star of ``delta`` leaves; each
    cell is one cached :func:`backoff_record` battery."""
    graph = star_graph(delta + 1)
    points: List[BackoffPoint] = []
    for k in k_values:
        for senders in sender_counts:
            if senders > delta:
                continue
            probe = BackoffProbe(k=k, delta=delta, senders=senders)
            records = run_records(
                lambda seed: backoff_record(graph, probe, seed),
                [base_seed + 7_907 * t + 13 * k for t in range(trials)],
                _record_keys(probe, NO_CD.name, f"backoff:star/delta={delta}"),
            )
            points.append(
                BackoffPoint(
                    k=k,
                    senders=senders,
                    trials=len(records),
                    heard=sum(r["heard"] for r in records),
                    sender_energy=max(
                        (r["sender_energy_max"] for r in records), default=0
                    ),
                    receiver_energy=max(
                        (r["receiver_energy"] for r in records), default=0
                    ),
                    lemma9_bound=1.0 - (7.0 / 8.0) ** k,
                )
            )
    return BackoffReport(delta=delta, points=points)
