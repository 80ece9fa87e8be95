"""Synchronous message-passing (CONGEST-style) engine.

The paper's context includes wired-network MIS algorithms
(SLEEPING-CONGEST and plain CONGEST — Luby, Ghaffari) that radio
algorithms simulate or are compared against.  This engine executes
*distributed node programs* under reliable synchronous broadcast:

* per round, every active node hands the engine one broadcast message
  (or ``None``),
* every node then receives the full map ``{neighbor: message}`` of its
  neighbors' messages — no collisions, no loss (that is precisely the
  power radio lacks),
* optional CONGEST enforcement caps message size at O(log n) bits.

Node programs mirror the radio API: generators that yield
:class:`Broadcast` actions and receive inbox dicts, with a
:class:`MsgNodeContext` for randomness, decisions, and instrumentation.
This keeps algorithm code directly comparable across the two substrates
(see ``repro.msgpass.algorithms`` for distributed Luby and Ghaffari).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from ..errors import MessageSizeError, ProtocolError, SimulationError
from ..graphs.graph import Graph
from ..radio.node import Decision

__all__ = [
    "Broadcast",
    "MsgNodeContext",
    "MessagePassingProtocol",
    "MsgRunResult",
    "run_message_passing",
]


def payload_bits(payload: Any) -> int:
    """Approximate size of a message in bits, for CONGEST checks.

    Integers count their binary length (at least 1 bit); bytes/str count
    8 bits per character; ``None`` is free.  Other payloads are charged
    via their ``repr`` as a conservative stand-in.
    """
    if payload is None:
        return 0
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length())
    if isinstance(payload, (bytes, str)):
        return 8 * len(payload)
    return 8 * len(repr(payload))


@dataclass(frozen=True)
class Broadcast:
    """One round's broadcast; ``message=None`` means stay silent.

    Silence is still a round spent participating (CONGEST nodes are
    always awake); the sleeping-model distinction only exists on the
    radio side.
    """

    message: Any = None


class MsgNodeContext:
    """Per-node execution context for message-passing programs."""

    __slots__ = ("node", "rng", "n", "degree", "decision", "info", "_round")

    def __init__(self, node: int, rng: random.Random, n: int, degree: int):
        self.node = node
        self.rng = rng
        self.n = n
        self.degree = degree
        self.decision = Decision.UNDECIDED
        self.info: Dict[str, Any] = {}
        self._round = 0

    @property
    def round(self) -> int:
        """The round the next yielded broadcast executes in."""
        return self._round

    def decide(self, decision: Decision) -> None:
        """Irrevocably commit to an MIS decision (same contract as radio)."""
        if self.decision is not Decision.UNDECIDED and decision is not self.decision:
            raise ProtocolError(
                f"node {self.node} attempted to change decision "
                f"{self.decision.value} -> {decision.value}"
            )
        self.decision = decision


NodeProgram = Generator[Broadcast, Dict[int, Any], None]


class MessagePassingProtocol(ABC):
    """Base class for message-passing node programs."""

    name: str = "msgpass-protocol"

    @abstractmethod
    def run(self, ctx: MsgNodeContext) -> NodeProgram:
        """Yield :class:`Broadcast`; receive ``{neighbor: message}``
        containing only the neighbors that sent something this round."""

    def max_rounds_hint(self, n: int) -> Optional[int]:
        """Optional watchdog bound, mirroring the radio API."""
        return None


@dataclass
class MsgRunResult:
    """Outcome of a message-passing run."""

    graph: Graph
    protocol_name: str
    seed: int
    rounds: int
    decisions: Dict[int, Decision]
    node_info: List[Dict[str, Any]]
    messages_sent: int

    @property
    def mis(self) -> frozenset:
        return frozenset(
            node
            for node, decision in self.decisions.items()
            if decision is Decision.IN_MIS
        )

    @property
    def undecided(self) -> frozenset:
        return frozenset(
            node
            for node, decision in self.decisions.items()
            if decision is Decision.UNDECIDED
        )

    def is_valid_mis(self) -> bool:
        return not self.undecided and self.graph.is_maximal_independent_set(self.mis)


#: Watchdog for programs that provide no hint.
DEFAULT_MAX_ROUNDS = 1_000_000


def run_message_passing(
    graph: Graph,
    protocol: MessagePassingProtocol,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    message_bits: Optional[int] = None,
) -> MsgRunResult:
    """Execute ``protocol`` on every node under reliable synchronous
    broadcast.  A node retires by returning from its generator; the run
    ends when every node has retired."""
    if max_rounds is None:
        hint = protocol.max_rounds_hint(graph.num_nodes)
        max_rounds = 4 * hint if hint else DEFAULT_MAX_ROUNDS

    contexts: List[MsgNodeContext] = []
    programs: List[Optional[NodeProgram]] = []
    pending: Dict[int, Broadcast] = {}

    for node in graph.nodes:
        rng = random.Random((seed * 0x9E3779B9 + node * 0xC2B2AE35) & 0xFFFFFFFF)
        ctx = MsgNodeContext(node, rng, graph.num_nodes, graph.degree(node))
        program = protocol.run(ctx)
        contexts.append(ctx)
        try:
            action = next(program)
        except StopIteration:
            programs.append(None)
            continue
        if not isinstance(action, Broadcast):
            raise ProtocolError(
                f"node {node} yielded {action!r}; expected Broadcast"
            )
        programs.append(program)
        pending[node] = action

    round_index = 0
    messages_sent = 0
    while pending:
        if round_index >= max_rounds:
            raise SimulationError(
                f"message-passing run exceeded max_rounds={max_rounds} "
                f"({len(pending)} nodes still active)"
            )
        # Gather this round's messages.
        outbox: Dict[int, Any] = {}
        for node, action in pending.items():
            if action.message is None:
                continue
            if message_bits is not None:
                bits = payload_bits(action.message)
                if bits > message_bits:
                    raise MessageSizeError(
                        f"node {node} broadcast {bits}-bit message; "
                        f"CONGEST budget is {message_bits} bits"
                    )
            outbox[node] = action.message
            messages_sent += 1

        # Deliver and advance every active node.
        next_pending: Dict[int, Broadcast] = {}
        for node in list(pending):
            inbox = {
                neighbor: outbox[neighbor]
                for neighbor in graph.neighbors(node)
                if neighbor in outbox and neighbor in pending
            }
            ctx = contexts[node]
            ctx._round = round_index + 1
            program = programs[node]
            assert program is not None
            try:
                action = program.send(inbox)
            except StopIteration:
                programs[node] = None
                continue
            if not isinstance(action, Broadcast):
                raise ProtocolError(
                    f"node {node} yielded {action!r}; expected Broadcast"
                )
            next_pending[node] = action
        pending = next_pending
        round_index += 1

    return MsgRunResult(
        graph=graph,
        protocol_name=protocol.name,
        seed=seed,
        rounds=round_index,
        decisions={ctx.node: ctx.decision for ctx in contexts},
        node_info=[ctx.info for ctx in contexts],
        messages_sent=messages_sent,
    )
