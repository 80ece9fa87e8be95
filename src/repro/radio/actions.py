"""Actions a protocol can take in a round.

The radio model gives each node exactly three per-round choices —
transmit, listen, or sleep (Section 1.1 of the paper).  Protocols are
generator coroutines that *yield* one of these action objects per
decision point and receive an :class:`~repro.radio.observations.Observation`
back (``None`` for transmit/sleep, since a transmitting node cannot hear
and a sleeping node's radio is off).

``Sleep`` and ``SleepUntil`` may span many rounds: the engine
fast-forwards them, which is what makes the paper's
``O(log^3 n log Delta)``-round executions cheap to simulate — the
simulation cost tracks *energy* (awake rounds), not wall-clock rounds.
``ListenFor`` is a listen window: the node listens round after round
until it hears something, and is resumed once for the whole window
instead of once per silent round; with ``through=True`` it listens
every round whatever it hears and is resumed once at the end.
``TransmitSchedule`` is its sender counterpart: sleeps and transmits
fixed in advance, resumed once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Tuple, Union

from ..errors import ProtocolError

__all__ = [
    "Transmit",
    "Listen",
    "ListenFor",
    "TransmitSchedule",
    "Sleep",
    "SleepUntil",
    "Action",
    "TAG_TRANSMIT",
    "TAG_LISTEN",
    "TAG_SLEEP",
    "TAG_SLEEP_UNTIL",
    "TAG_LISTEN_FOR",
    "TAG_TRANSMIT_SCHEDULE",
]

# Integer type tags for engine dispatch.  ``isinstance`` chains cost a
# C call per candidate class per action; the engine instead reads the
# inherited ``tag`` class attribute (one attribute load) and branches on
# small-int identity.  Subclasses of an action inherit its tag, so they
# dispatch exactly as ``isinstance`` would.
TAG_TRANSMIT = 0
TAG_LISTEN = 1
TAG_SLEEP = 2
TAG_SLEEP_UNTIL = 3
TAG_LISTEN_FOR = 4
TAG_TRANSMIT_SCHEDULE = 5


@dataclass(frozen=True)
class Transmit:
    """Transmit ``payload`` this round (the node cannot hear anything).

    The paper's algorithms perform unary communication — they only ever
    send the bit ``1`` — so ``payload`` defaults to ``1``.  No engine
    limits a payload's size.

    ``channel`` selects the frequency the transmission occupies in a
    multichannel network (Daum–Kuhn).  Channel 0 is the single-channel
    network of the source paper; the default keeps every pre-channels
    protocol, golden trace, and cache key bit-identical.
    """

    tag: ClassVar[int] = TAG_TRANSMIT

    payload: Any = 1
    channel: int = 0


@dataclass(frozen=True)
class Listen:
    """Listen this round; the observation depends on the collision model.

    ``channel`` selects the frequency the listener tunes to: only
    transmissions on the same channel reach it.  Channel 0 (the
    default) reproduces the single-channel radio model exactly.
    """

    tag: ClassVar[int] = TAG_LISTEN

    channel: int = 0


@dataclass(frozen=True)
class ListenFor:
    """Listen for up to ``rounds`` consecutive rounds on ``channel``.

    The node is resumed on the first round whose observation reports
    ``heard_something``, or after the last round, with that round's
    observation; ``ctx.now`` then tells how many rounds it listened.
    Every round is charged, traced and exposed to faults exactly as a
    single :class:`Listen` is, so a window and the same number of
    single listens that ignore silence produce identical runs.  A crash
    cuts a window exactly as it cuts the next single listen.

    With ``through=True`` (a *listen-through*) the node listens all
    ``rounds`` rounds whatever it hears and is resumed once, after the
    last, with ``None``, as after a :class:`TransmitSchedule`: the same
    run as that many single listens whose observations are ignored.

    A separate class rather than a ``rounds`` field on :class:`Listen`,
    which would make every single ``Listen()`` construction slower.
    """

    tag: ClassVar[int] = TAG_LISTEN_FOR

    rounds: int
    channel: int = 0
    through: bool = False

    def __post_init__(self) -> None:
        if type(self.rounds) is not int or self.rounds < 1:
            raise ProtocolError(
                f"ListenFor needs an int number of rounds >= 1, got {self.rounds!r}"
            )
        if type(self.through) is not bool:
            raise ProtocolError(
                f"ListenFor needs a bool through, got {self.through!r}"
            )


@dataclass(frozen=True)
class TransmitSchedule:
    """Sleep ``gaps[0]`` rounds, transmit, sleep ``gaps[1]``, transmit,
    ..., transmit, sleep ``gaps[-1]``: ``len(gaps) - 1`` transmits of
    ``payload`` on ``channel``.

    The node is resumed once, after the trailing sleep, with ``None``
    (also under sender-side detection).  Every transmit round is
    charged, traced, exposed to faults and crash-checked exactly as a
    single :class:`Transmit` is, so a schedule and the same sleeps and
    transmits yielded one by one produce identical runs.  Snd-EBackoff
    knows its whole schedule before its first transmit, which is what
    this action is for.

    A separate class rather than a field on :class:`Transmit`, which
    would make every single ``Transmit()`` construction slower.
    """

    tag: ClassVar[int] = TAG_TRANSMIT_SCHEDULE

    gaps: Tuple[int, ...]
    payload: Any = 1
    channel: int = 0

    def __post_init__(self) -> None:
        gaps = self.gaps
        if type(gaps) is tuple and len(gaps) >= 2:
            for gap in gaps:
                if type(gap) is not int or gap < 0:  # bools are not ints here
                    break
            else:
                return
        raise ProtocolError(
            "TransmitSchedule needs a tuple of at least 2 int gaps >= 0, "
            f"got {gaps!r}"
        )


@dataclass(frozen=True)
class Sleep:
    """Sleep for ``rounds`` consecutive rounds (radio off, zero energy)."""

    tag: ClassVar[int] = TAG_SLEEP

    rounds: int = 1

    def __post_init__(self) -> None:
        if type(self.rounds) is not int or self.rounds < 0:  # bools are not ints here
            raise ProtocolError(
                f"Sleep needs an int number of rounds >= 0, got {self.rounds!r}"
            )


@dataclass(frozen=True)
class SleepUntil:
    """Sleep until the absolute round ``target`` (exclusive).

    The node's next action executes exactly at round ``target``.  Used
    by Algorithm 2 for its synchronization barriers ("sleep until round
    (i-1)*T_L + T_C ...").  A target equal to the current round is a
    zero-duration no-op, which makes barrier code uniform.
    """

    tag: ClassVar[int] = TAG_SLEEP_UNTIL

    target: int

    def __post_init__(self) -> None:
        if type(self.target) is not int or self.target < 0:  # bools are not ints here
            raise ProtocolError(
                f"SleepUntil needs an int target round >= 0, got {self.target!r}"
            )


Action = Union[Transmit, Listen, ListenFor, TransmitSchedule, Sleep, SleepUntil]
