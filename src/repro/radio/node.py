"""Per-node execution context and the protocol interface.

A *protocol* is the algorithm under test.  One protocol object is shared
by all nodes of a run (it holds only configuration); each node executes
``protocol.run(ctx)``, a generator that yields actions and receives
observations.  The :class:`NodeContext` is the node's window onto the
world: its identity, its private randomness, the global parameters the
model grants it (the bounds ``n`` and ``Delta``), the current round, and
the channels for reporting its decision and instrumentation.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from enum import Enum
from typing import Any, Dict, Generator, Optional

from ..errors import ProtocolError
from .actions import Action
from .observations import Observation

__all__ = ["Decision", "NodeContext", "Protocol", "ProtocolRun"]

ProtocolRun = Generator[Action, Optional[Observation], None]


class Decision(Enum):
    """Terminal MIS decision of a node."""

    UNDECIDED = "undecided"
    IN_MIS = "in-mis"
    OUT_MIS = "out-mis"


class NodeContext:
    """Execution context handed to ``protocol.run``.

    Attributes
    ----------
    node:
        This node's simulator identifier.  **Protocols must not use it
        as algorithmic input** — the model is anonymous (nodes have no
        predesignated IDs); it exists for instrumentation and tracing.
    rng:
        Private ``random.Random`` stream derived from the run's master
        seed; the only allowed source of randomness.
    n:
        The shared upper bound on the network size (known to all nodes
        per Section 1.1).
    delta:
        The shared upper bound on the maximum degree.
    """

    __slots__ = (
        "node",
        "rng",
        "n",
        "delta",
        "decision",
        "info",
        "restart_round",
        "_now",
        "_component",
        "energy_by_component",
    )

    def __init__(self, node: int, rng: random.Random, n: int, delta: int):
        self.node = node
        self.rng = rng
        self.n = n
        self.delta = delta
        self.decision = Decision.UNDECIDED
        #: Free-form instrumentation dict, surfaced in RunResult.node_info.
        self.info: Dict[str, Any] = {}
        #: Round at which a crash–recovery fault plan restarted this node
        #: with fresh protocol state, or None for a normal (round-0 or
        #: wake-scheduled) start.  Protocols whose barrier arithmetic is
        #: anchored to their start round consult this to re-anchor.
        self.restart_round: Optional[int] = None
        self._now = 0
        self._component = "default"
        self.energy_by_component: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Round clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """The round at which the node's *next yielded action* executes.

        Algorithm 2 computes its synchronization barriers from this
        clock (``SleepUntil(phase_start + T_C)`` etc.).
        """
        return self._now

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def decide(self, decision: Decision) -> None:
        """Irrevocably commit to an MIS decision.

        The problem definition requires irrevocable commitment; flipping
        a previous decision is a protocol bug and raises.
        """
        if self.decision is not Decision.UNDECIDED and decision is not self.decision:
            raise ProtocolError(
                f"node {self.node} attempted to change decision "
                f"{self.decision.value} -> {decision.value}"
            )
        self.decision = decision

    # ------------------------------------------------------------------
    # Energy ledger
    # ------------------------------------------------------------------

    def set_component(self, component: str) -> None:
        """Attribute subsequent awake rounds to ``component``.

        Regenerates the paper's Figure 2 color-coded energy classes
        (experiment E10).  Purely observational — no algorithmic effect.
        """
        self._component = component

    def _charge_awake_round(self) -> None:
        # The reference engine calls this; the optimized engine's resume
        # loop inlines the same charge (reading ``energy_by_component``
        # and ``_component`` directly) rather than paying a method call
        # per awake node per round.  Any change to the ledger semantics
        # here must be mirrored in ``repro.radio.engine`` — the golden
        # tests catch divergence.
        ledger = self.energy_by_component
        ledger[self._component] = ledger.get(self._component, 0) + 1

    def __repr__(self) -> str:
        return (
            f"NodeContext(node={self.node}, now={self._now}, "
            f"decision={self.decision.value})"
        )


class Protocol(ABC):
    """Base class for radio protocols.

    Subclasses hold run-wide configuration (the bounds ``n`` and
    ``Delta`` they assume, a constants profile, ...) and implement
    :meth:`run` as a per-node generator.  Protocol objects must be
    stateless across nodes: all per-node state lives in local variables
    of ``run`` and in the :class:`NodeContext`.
    """

    #: Short name used in reports.
    name: str = "protocol"

    #: Collision-model names this protocol is designed for (documentation
    #: and safety check; see :func:`repro.radio.engine.run_protocol`).
    compatible_models: tuple = ("cd", "no-cd", "beep")

    @abstractmethod
    def run(self, ctx: NodeContext) -> ProtocolRun:
        """Per-node behaviour: yield actions, receive observations."""

    def max_rounds_hint(self, n: int, delta: int) -> Optional[int]:
        """Optional upper bound on rounds, used as an engine watchdog.

        Return ``None`` when no a-priori bound is available.  Concrete
        algorithms override this with their paper round budgets; the
        engine multiplies by a safety slack.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
