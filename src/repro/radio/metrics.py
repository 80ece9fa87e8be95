"""Run statistics: the quantities the paper's theorems are about.

*Energy complexity* is the maximum, over nodes, of rounds spent awake
(transmitting or listening); *round complexity* is the number of rounds
until every node has terminated.  :class:`RunResult` carries both plus
per-node breakdowns and the instrumentation protocols recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

from ..graphs.graph import Graph
from ..obs.telemetry import EngineTelemetry
from .node import Decision

__all__ = ["FrozenLedger", "NodeStats", "RunResult"]


class FrozenLedger(dict):
    """Immutable, hashable ``component -> rounds`` energy ledger.

    :class:`NodeStats` is a frozen dataclass, but historically carried a
    plain mutable ``Dict`` — so "frozen" stats could be silently edited
    in place and ``hash(stats)`` raised.  A ``dict`` subclass keeps
    every read path (``items()``, equality with plain dicts, JSON
    serialization) intact while all mutators raise ``TypeError``.
    """

    __slots__ = ()

    def _immutable(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError(
            "NodeStats.energy_by_component is immutable; "
            "build a new NodeStats instead of mutating the ledger"
        )

    __setitem__ = _immutable
    __delitem__ = _immutable
    __ior__ = _immutable
    clear = _immutable
    pop = _immutable
    popitem = _immutable
    setdefault = _immutable
    update = _immutable

    def __hash__(self) -> int:  # type: ignore[override]
        return hash(frozenset(self.items()))


@dataclass(frozen=True)
class NodeStats:
    """Per-node accounting for one run.

    Fully immutable (and therefore hashable): the energy ledger is
    coerced to a :class:`FrozenLedger` on construction, whatever mapping
    the caller passed.
    """

    node: int
    transmit_rounds: int
    listen_rounds: int
    finish_round: int
    decision: Decision
    energy_by_component: Mapping[str, int] = field(default_factory=dict)
    #: True iff the node was crash-stopped by fault injection.
    crashed: bool = False
    #: Crash–recovery restarts this node went through (0 without them).
    restarts: int = 0
    #: Round at which the node's latest restart began (-1 = never).
    last_restart_round: int = -1
    #: True iff the node departed the network under topology churn
    #: (distinct from a crash: its incident edges were removed too).
    left: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.energy_by_component, FrozenLedger):
            object.__setattr__(
                self,
                "energy_by_component",
                FrozenLedger(self.energy_by_component),
            )

    @property
    def awake_rounds(self) -> int:
        """Energy spent by this node (transmit + listen rounds)."""
        return self.transmit_rounds + self.listen_rounds


@dataclass
class RunResult:
    """Outcome of simulating one protocol on one graph.

    ``rounds`` is the round complexity (rounds until the last node
    terminated); ``max_energy`` / ``total_energy`` summarize the energy
    ledger.  ``node_info`` holds each node's free-form instrumentation
    dict (phase logs, statuses, ...), used by the lemma-validation
    experiments.

    ``telemetry`` carries the engine's hot-path flight recorder
    (:class:`~repro.obs.telemetry.EngineTelemetry`) when the run was
    invoked with ``telemetry=True`` and ``None`` otherwise.  It is
    excluded from equality so telemetry-enabled runs compare equal to
    the frozen reference engine's output (the golden tests rely on
    this).
    """

    graph: Graph
    protocol_name: str
    model_name: str
    seed: int
    rounds: int
    node_stats: Tuple[NodeStats, ...]
    node_info: Tuple[Dict[str, Any], ...]
    telemetry: Optional[EngineTelemetry] = field(
        default=None, compare=False, repr=False
    )
    #: Topology after the last churn event (``None`` for static runs).
    #: Excluded from equality — the bit-identity suites compare the
    #: final graphs explicitly via their edge lists instead.
    final_graph: Optional[Graph] = field(default=None, compare=False, repr=False)
    #: Rounds processed while a churn violation window was open.
    repair_rounds: int = 0
    #: Awake rounds charged to churn-restarted nodes after their first
    #: repair restart.
    repair_energy: int = 0
    #: Total rounds during which the decided set was (detectably) not a
    #: valid MIS of the then-current graph.
    mis_violation_window: int = 0
    #: Per churn event: ``(event_round, rounds_to_restabilize)`` —
    #: 0 when the event broke nothing, ``None`` when the repair window
    #: covering it never closed.
    time_to_restabilize: Tuple[Tuple[int, Optional[int]], ...] = ()
    #: Applied churn events by kind, e.g. ``(("join", 2), ("toggle", 5))``.
    churn_events: Tuple[Tuple[str, int], ...] = ()

    # ------------------------------------------------------------------
    # MIS output
    # ------------------------------------------------------------------

    @property
    def mis(self) -> FrozenSet[int]:
        """Nodes that decided ``IN_MIS`` (departed nodes excluded — a
        leaver is no longer part of the network's output)."""
        return frozenset(
            stats.node
            for stats in self.node_stats
            if stats.decision is Decision.IN_MIS and not stats.left
        )

    @property
    def undecided(self) -> FrozenSet[int]:
        """Nodes that never decided (should be empty on success).
        Departed nodes are excluded: a leaver owes no decision."""
        return frozenset(
            stats.node
            for stats in self.node_stats
            if stats.decision is Decision.UNDECIDED and not stats.left
        )

    @property
    def left_nodes(self) -> FrozenSet[int]:
        """Nodes that departed the network under topology churn."""
        return frozenset(stats.node for stats in self.node_stats if stats.left)

    def is_valid_mis(self) -> bool:
        """True iff every node decided and the IN_MIS set is an MIS.

        For churned runs the check runs against ``final_graph`` (the
        topology after the last event), with departed nodes out of
        scope: they neither need domination nor may veto maximality.
        """
        if self.undecided:
            return False
        graph = self.final_graph if self.final_graph is not None else self.graph
        left = self.left_nodes
        if not left:
            return graph.is_maximal_independent_set(self.mis)
        mis = self.mis
        for node in mis:
            if graph.neighbor_set(node) & mis:
                return False
        for node in graph.nodes:
            if node in left or node in mis:
                continue
            if not graph.neighbor_set(node) & mis:
                return False
        return True

    # ------------------------------------------------------------------
    # Fault-injection views
    # ------------------------------------------------------------------

    @property
    def crashed_nodes(self) -> FrozenSet[int]:
        """Nodes crash-stopped by fault injection (empty without it)."""
        return frozenset(stats.node for stats in self.node_stats if stats.crashed)

    def surviving_mis_independent(self) -> bool:
        """Is the IN_MIS set restricted to survivors independent?"""
        survivors_in_mis = self.mis - self.crashed_nodes
        return self.graph.is_independent_set(survivors_in_mis)

    def surviving_coverage(self) -> float:
        """Fraction of surviving nodes in, or adjacent to, surviving MIS.

        The robustness metric for crash experiments: 1.0 means the
        surviving output still dominates the surviving network.
        """
        crashed = self.crashed_nodes
        survivors = [node for node in self.graph.nodes if node not in crashed]
        if not survivors:
            return 1.0
        mis = self.mis - crashed
        covered = sum(
            1
            for node in survivors
            if node in mis or self.graph.neighbor_set(node) & mis
        )
        return covered / len(survivors)

    @property
    def restarted_nodes(self) -> FrozenSet[int]:
        """Nodes that went through at least one crash–recovery restart."""
        return frozenset(
            stats.node for stats in self.node_stats if stats.restarts
        )

    def independence_violation_rate(self) -> float:
        """Fraction of surviving MIS nodes with a surviving MIS neighbor.

        Under crash–recovery or channel noise a restarted node can join
        the MIS beside an already-committed neighbor, so independence is
        no longer guaranteed — this measures how often that happens.
        0.0 means the surviving output is still an independent set.
        """
        mis = self.mis - self.crashed_nodes
        if not mis:
            return 0.0
        violating = sum(
            1 for node in mis if self.graph.neighbor_set(node) & mis
        )
        return violating / len(mis)

    def time_to_stabilize(self) -> Optional[int]:
        """Rounds the last restarted node needed to re-terminate.

        Maximum of ``finish_round - last_restart_round`` over restarted
        nodes (0 without restarts): how long recovery took to settle
        after the final crash–recovery event.  Returns ``None`` when the
        run never restabilized — some restarted node never re-finished —
        instead of silently reporting a finite settle time.
        """
        settle = 0
        for stats in self.node_stats:
            if stats.restarts:
                if stats.finish_round < 0:
                    return None
                settle = max(settle, stats.finish_round - stats.last_restart_round)
        return settle

    # ------------------------------------------------------------------
    # Energy / round summaries
    # ------------------------------------------------------------------

    @property
    def max_energy(self) -> int:
        """Worst-case energy complexity: max awake rounds over nodes."""
        if not self.node_stats:
            return 0
        return max(stats.awake_rounds for stats in self.node_stats)

    @property
    def total_energy(self) -> int:
        """Sum of awake rounds over all nodes."""
        return sum(stats.awake_rounds for stats in self.node_stats)

    @property
    def mean_energy(self) -> float:
        """Node-averaged awake complexity."""
        if not self.node_stats:
            return 0.0
        return self.total_energy / len(self.node_stats)

    def energy_percentile(self, q: float) -> int:
        """The ``q``-th percentile (0..100) of per-node awake rounds."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.node_stats:
            return 0
        ordered = sorted(stats.awake_rounds for stats in self.node_stats)
        index = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
        return ordered[index]

    def energy_by_component(self) -> Dict[str, int]:
        """Aggregate energy ledger over all nodes, by component label."""
        totals: Dict[str, int] = {}
        for stats in self.node_stats:
            for component, rounds in stats.energy_by_component.items():
                totals[component] = totals.get(component, 0) + rounds
        return totals

    def max_energy_by_component(self) -> Dict[str, int]:
        """Per-component maximum over nodes (worst-case breakdown)."""
        totals: Dict[str, int] = {}
        for stats in self.node_stats:
            for component, rounds in stats.energy_by_component.items():
                totals[component] = max(totals.get(component, 0), rounds)
        return totals

    def decisions(self) -> Dict[int, Decision]:
        """Map node -> terminal decision."""
        return {stats.node: stats.decision for stats in self.node_stats}

    def summary(self) -> str:
        """One-line human-readable summary."""
        verdict = "MIS-OK" if self.is_valid_mis() else "INVALID"
        return (
            f"{self.protocol_name}@{self.model_name} on {self.graph.name}: "
            f"{verdict} |MIS|={len(self.mis)} rounds={self.rounds} "
            f"max_energy={self.max_energy} mean_energy={self.mean_energy:.1f}"
        )
