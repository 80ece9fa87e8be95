"""Composable, deterministically seeded fault plans.

A :class:`FaultPlan` describes every way this simulator can deviate from
the paper's fault-free synchronous model (Section 1.1):

* **channel noise** — each delivered observation is independently erased
  (read as silence) with probability ``drop_p``;
* **jamming** — an adversary forces the "many transmitters" outcome on
  the channel during :class:`JamWindow` round ranges (optionally only
  near a node subset), modelling the jamming adversaries of Daum et al.;
* **crashes** — nodes crash-stop, or crash and *recover* after a delay,
  restarting their protocol from scratch (:class:`CrashEvent`);
* **wake skew** — nodes start their protocol up to ``max_wake_skew``
  rounds late, at deterministically drawn offsets.

Everything a plan injects is a pure function of ``(plan, round, node)``:
the channel draws come from a stateless splitmix64-style hash (never
from the nodes' RNG streams), the crash samples and wake offsets from
seeds derived via :func:`repro.exec.seeds.derive_seed`.  Two engines
given the same plan therefore perturb identically — which is what lets
the golden bit-identity suite cover faulty runs — and a plan is an
ordinary frozen dataclass, so it participates in the content-addressed
trial cache key like any other trial ingredient.

A default-constructed plan injects nothing (``FaultPlan().is_noop`` is
true) and the engines normalize it to the ``faults=None`` fast path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..exec.seeds import derive_seed
from .churn import ChurnPlan

__all__ = ["CrashEvent", "JamWindow", "FaultPlan", "fault_roll"]

_MASK64 = (1 << 64) - 1

#: Salts separating the independent per-(round, node) channel draws.
DROP_SALT = 1
JAM_SALT = 2
_WAKE_SALT = 3


def _splitmix64(state: int) -> int:
    """One splitmix64 output step: a high-quality 64-bit mix."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    state = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    state = ((state ^ (state >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state ^ (state >> 31)


def fault_roll(seed: int, round_: int, node: int, salt: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one channel event.

    Stateless: the draw depends only on its arguments, never on how many
    draws happened before it, so both engines (which visit perceivers in
    different orders) roll identical outcomes for the same
    ``(round, node)``.
    """
    mixed = (
        seed * 0x9E3779B97F4A7C15
        + round_ * 0xC2B2AE3D27D4EB4F
        + node * 0x165667B19E3779F9
        + salt
    ) & _MASK64
    return _splitmix64(mixed) / 2.0 ** 64


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _is_int(value: object) -> bool:
    # bool is an int subclass but never a sensible round number.
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CrashEvent:
    """One crash of one node.

    ``recovery_delay=None`` is a crash-stop (the node never returns); a
    positive delay makes the node restart its protocol *from scratch*
    ``recovery_delay`` rounds after the crash: fresh RNG stream (derived
    from the run seed, the node, and the restart count), fresh
    decision/info state, local clock resumed at the restart round.
    Energy spent before the crash stays on the node's ledger.
    """

    round: int
    recovery_delay: Optional[int] = None

    def __post_init__(self) -> None:
        _require(
            _is_int(self.round) and self.round >= 0,
            f"crash round must be a non-negative int, got {self.round!r}",
        )
        if self.recovery_delay is not None:
            _require(
                _is_int(self.recovery_delay) and self.recovery_delay >= 1,
                f"crash recovery delay must be a positive int or None, "
                f"got {self.recovery_delay!r}",
            )


@dataclass(frozen=True)
class JamWindow:
    """Adversarial jamming over the half-open round range [start, stop).

    While a window is active every perceiving node (or only the nodes in
    ``nodes``, when given) reads the model's "many transmitters" outcome
    with probability ``probability`` per round: a collision under CD, a
    beep under beeping, and — faithfully to the model — silence under
    no-CD, where collisions are indistinguishable from a quiet channel.

    ``channel`` narrows the jammer to one frequency of a multichannel
    network (see :mod:`repro.radio.models`): only perceivers tuned to
    that channel are affected.  ``None`` (the default, and the only
    sensible setting for single-channel runs) jams every channel.
    """

    start: int
    stop: int
    probability: float = 1.0
    nodes: Optional[FrozenSet[int]] = None
    channel: Optional[int] = None

    def __post_init__(self) -> None:
        _require(
            _is_int(self.start) and self.start >= 0,
            f"jam window start must be a non-negative int, got {self.start!r}",
        )
        _require(
            _is_int(self.stop) and self.stop > self.start,
            f"jam window stop must be an int > start ({self.start}), "
            f"got {self.stop!r}",
        )
        _require(
            0.0 <= self.probability <= 1.0,
            f"jam probability must be in [0, 1], got {self.probability!r}",
        )
        if self.nodes is not None and not isinstance(self.nodes, frozenset):
            object.__setattr__(self, "nodes", frozenset(self.nodes))
        if self.channel is not None:
            _require(
                _is_int(self.channel) and self.channel >= 0,
                f"jam channel must be a non-negative int or None, "
                f"got {self.channel!r}",
            )

    def covers(self, round_: int, node: int, channel: int = 0) -> bool:
        """Whether this window targets ``node`` at ``round_`` on
        ``channel`` (before the probability roll)."""
        return (
            self.start <= round_ < self.stop
            and (self.nodes is None or node in self.nodes)
            and (self.channel is None or self.channel == channel)
        )


CrashSpec = Union["CrashEvent", int, Sequence["CrashEvent"]]


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic, composable description of every injected fault.

    Crashes come in two forms that compose: ``crashes`` names explicit
    per-node :class:`CrashEvent` lists, while ``crash_fraction`` crashes
    a random fraction of the network (sampled from a sub-seed of
    ``seed``) at ``crash_round``, recovering after ``crash_recovery``
    rounds (``None`` = crash-stop).  ``max_wake_skew`` delays each
    node's start by a deterministic offset in ``[0, max_wake_skew]``.
    ``churn`` attaches a :class:`~repro.faults.churn.ChurnPlan` of
    dynamic-topology events (edge churn, node join/leave), seeded from
    this plan's ``seed`` and composable with every other token.

    The default plan injects nothing; the engines treat it exactly like
    ``faults=None`` (the zero-overhead fast path).
    """

    seed: int = 0
    drop_p: float = 0.0
    jams: Tuple[JamWindow, ...] = ()
    crashes: Tuple[Tuple[int, Tuple[CrashEvent, ...]], ...] = ()
    crash_fraction: float = 0.0
    crash_round: int = 0
    crash_recovery: Optional[int] = None
    max_wake_skew: int = 0
    churn: Optional[ChurnPlan] = None

    def __post_init__(self) -> None:
        _require(
            _is_int(self.seed),
            f"fault plan seed must be an int, got {self.seed!r}",
        )
        _require(
            0.0 <= self.drop_p <= 1.0,
            f"drop probability must be in [0, 1], got {self.drop_p!r}",
        )
        jams = tuple(self.jams)
        for window in jams:
            _require(
                isinstance(window, JamWindow),
                f"jams must contain JamWindow entries, got {window!r}",
            )
        object.__setattr__(self, "jams", jams)
        object.__setattr__(self, "crashes", self._normalize_crashes(self.crashes))
        _require(
            0.0 <= self.crash_fraction <= 1.0,
            f"crash fraction must be in [0, 1], got {self.crash_fraction!r}",
        )
        _require(
            _is_int(self.crash_round) and self.crash_round >= 0,
            f"crash round must be a non-negative int, got {self.crash_round!r}",
        )
        if self.crash_recovery is not None:
            _require(
                _is_int(self.crash_recovery) and self.crash_recovery >= 1,
                f"crash recovery delay must be a positive int or None, "
                f"got {self.crash_recovery!r}",
            )
        _require(
            _is_int(self.max_wake_skew) and self.max_wake_skew >= 0,
            f"max wake skew must be a non-negative int, "
            f"got {self.max_wake_skew!r}",
        )
        if self.churn is not None:
            _require(
                isinstance(self.churn, ChurnPlan),
                f"churn must be a ChurnPlan or None, got {self.churn!r}",
            )

    @staticmethod
    def _normalize_crashes(
        crashes: Union[Mapping[int, CrashSpec], Sequence]
    ) -> Tuple[Tuple[int, Tuple[CrashEvent, ...]], ...]:
        """Coerce the accepted crash shorthands to the canonical tuple form.

        Accepts a mapping ``node -> CrashEvent | round-int | list/tuple
        of CrashEvent`` (or the already-canonical tuple of pairs) and
        returns node-sorted pairs with round-sorted event tuples.  A
        malformed round-int spec is rejected with a message naming its
        node.
        """
        items = crashes.items() if isinstance(crashes, Mapping) else crashes
        normalized: List[Tuple[int, Tuple[CrashEvent, ...]]] = []
        for node, spec in items:
            _require(
                _is_int(node) and node >= 0,
                f"crash node ids must be non-negative ints, got {node!r}",
            )
            if isinstance(spec, CrashEvent):
                events: Tuple[CrashEvent, ...] = (spec,)
            elif not isinstance(spec, (list, tuple)):
                _require(
                    _is_int(spec),
                    f"crash round for node {node} must be an int, got {spec!r}",
                )
                _require(
                    spec >= 0,
                    f"crash round for node {node} must be non-negative, "
                    f"got {spec}",
                )
                events = (CrashEvent(spec),)
            else:
                events = tuple(spec)
                for event in events:
                    _require(
                        isinstance(event, CrashEvent),
                        f"crash events for node {node} must be CrashEvent "
                        f"instances, got {event!r}",
                    )
            normalized.append(
                (node, tuple(sorted(events, key=lambda event: event.round)))
            )
        normalized.sort(key=lambda pair: pair[0])
        return tuple(normalized)

    # ------------------------------------------------------------------
    # Derived per-run schedules
    # ------------------------------------------------------------------

    @property
    def has_channel_faults(self) -> bool:
        """Whether any observation can be perturbed (drop or jam)."""
        return self.drop_p > 0.0 or bool(self.jams)

    @property
    def has_crashes(self) -> bool:
        return bool(self.crashes) or self.crash_fraction > 0.0

    @property
    def has_churn(self) -> bool:
        return self.churn is not None and not self.churn.is_noop

    @property
    def is_noop(self) -> bool:
        """True iff this plan injects nothing (the engines then take the
        ``faults=None`` fast path, bit-identical to a fault-free run)."""
        return (
            not self.has_channel_faults
            and not self.has_crashes
            and self.max_wake_skew == 0
            and not self.has_churn
        )

    def crash_events_for(
        self, num_nodes: int
    ) -> Dict[int, List[Tuple[int, Optional[int]]]]:
        """Materialize the per-node crash timeline for an n-node graph.

        Returns ``node -> [(crash_round, recovery_delay_or_None), ...]``
        sorted by round.  Explicit ``crashes`` entries for nodes outside
        the graph are dropped;
        the ``crash_fraction`` sample draws from a dedicated sub-seed of
        the plan seed, so it is independent of the protocol's coins.
        """
        events: Dict[int, List[Tuple[int, Optional[int]]]] = {}
        for node, node_events in self.crashes:
            if node < num_nodes:
                events[node] = [
                    (event.round, event.recovery_delay) for event in node_events
                ]
        if self.crash_fraction > 0.0:
            count = int(self.crash_fraction * num_nodes)
            if count:
                rng = random.Random(derive_seed(self.seed, "faults:crash"))
                for node in rng.sample(range(num_nodes), count):
                    events.setdefault(node, []).append(
                        (self.crash_round, self.crash_recovery)
                    )
        for node_events in events.values():
            node_events.sort(key=lambda event: event[0])
        return events

    def wake_schedule_for(self, num_nodes: int) -> Optional[Dict[int, int]]:
        """Deterministic wake offsets in ``[0, max_wake_skew]`` per node."""
        if self.max_wake_skew == 0:
            return None
        span = self.max_wake_skew + 1
        return {
            node: int(fault_roll(self.seed, 0, node, _WAKE_SALT) * span)
            for node in range(num_nodes)
        }

    def describe(self) -> str:
        """Short human-readable summary of the injected faults."""
        parts: List[str] = []
        if self.drop_p:
            parts.append(f"drop={self.drop_p:g}")
        for window in self.jams:
            scope = "" if window.nodes is None else f"/{len(window.nodes)} nodes"
            target = "" if window.channel is None else f":{window.channel}"
            parts.append(
                f"jam={window.start}..{window.stop}"
                f"@{window.probability:g}{target}{scope}"
            )
        if self.crashes:
            parts.append(f"crashes={len(self.crashes)} nodes")
        if self.crash_fraction:
            recovery = (
                "stop" if self.crash_recovery is None else f"+{self.crash_recovery}"
            )
            parts.append(
                f"crash={self.crash_fraction:g}@{self.crash_round}{recovery}"
            )
        if self.max_wake_skew:
            parts.append(f"wake<={self.max_wake_skew}")
        if self.has_churn:
            parts.append(self.churn.describe())
        if not parts:
            return "no faults"
        return f"seed={self.seed} " + " ".join(parts)
