"""Energy-efficient backoff primitives (Algorithm 4, Lemmas 8-9).

These are the paper's no-CD workhorses.  A *k-repeated backoff* spans
exactly ``k * ceil(log Delta)`` rounds, split into ``k`` iterations of
``ceil(log Delta)`` slots:

* :func:`snd_ebackoff` — a sender transmits in exactly one slot per
  iteration, the slot drawn from a geometric(1/2) distribution capped at
  the last slot.  Awake ``k`` rounds total (Lemma 8).
* :func:`rec_ebackoff` — a receiver listens in the first
  ``ceil(log Delta_est)`` slots of each iteration until it hears a
  message, then sleeps out the remainder of the whole backoff.  Awake
  ``O(k log Delta_est)`` rounds (Lemma 8).  With at most ``Delta_est``
  simultaneously sending neighbors, each iteration delivers a message
  with probability >= 1/8 (Lemma 9), so ``k`` iterations fail with
  probability at most ``(7/8)^k``.
* :func:`snd_rec_ebackoff` — our combined variant used inside
  LowDegreeMIS: transmits in its geometric slot and listens (receiver
  logic) in the other slots.  The paper's model forbids send+listen in
  the *same* round; this primitive never does both in one round.

All three are generator *subroutines*: call them with ``yield from``
inside a protocol's ``run``; the boolean result of the receiver variants
is the generator's return value.

A matching pair of *traditional* (energy-oblivious) decay procedures is
included for the naive-simulation baseline: every participant stays
awake for all ``k * ceil(log Delta)`` rounds.

Every action a primitive yields costs one resume of the node's
coroutine chain, so each idle stretch is one ``Sleep``, each stretch of
listening is one :class:`~repro.radio.actions.ListenFor` window, which
resumes the node only when it hears something or the window ends, and a
sender's whole backoff is one
:class:`~repro.radio.actions.TransmitSchedule`.  Resumes per k-repeated
backoff:

* :func:`snd_ebackoff` — one (none when ``k <= 0``);
* :func:`rec_ebackoff` — one window and one sleep per iteration, or a
  single window when ``Delta_est`` leaves no idle slot, plus one sleep
  after hearing;
* :func:`snd_rec_ebackoff` — per iteration one transmit, at most two
  windows and at most two sleeps, plus one closing sleep;
* :func:`traditional_decay_sender` — per iteration one zero-gap
  schedule for its transmits and one listen-through (a
  ``ListenFor(..., through=True)``, which ignores what it hears) for the
  rest of the iteration, when any is left;
* :func:`traditional_decay_receiver` — one window, plus one
  listen-through for the rest of the backoff after it first hears.
"""

from __future__ import annotations

import random
from typing import Any, Generator, Optional

from ..constants import log2_ceil
from ..errors import ProtocolError
from ..radio.actions import Action, ListenFor, Sleep, Transmit, TransmitSchedule
from ..radio.node import NodeContext

__all__ = [
    "backoff_slots",
    "backoff_rounds",
    "geometric_slot",
    "snd_ebackoff",
    "rec_ebackoff",
    "snd_rec_ebackoff",
    "traditional_decay_sender",
    "traditional_decay_receiver",
]

BackoffRun = Generator[Action, Any, bool]


def backoff_slots(delta: int) -> int:
    """Slots per backoff iteration: ``ceil(log Delta) + 1``.

    The ``+1`` matters at small ``Delta``: with exactly ``ceil(log 2)=1``
    slot the capped geometric would make *every* sender transmit in slot
    1, so two adjacent senders would always collide — and in no-CD a
    collision reads as silence, silently breaking Lemma 9's 1/8 hearing
    guarantee.  One extra slot keeps ``P(slot=1) = 1/2`` at every
    ``Delta`` (the classical Decay convention) while leaving the
    asymptotics untouched.
    """
    return log2_ceil(max(2, delta)) + 1


def backoff_rounds(k: int, delta: int) -> int:
    """Total rounds of a k-repeated backoff: ``k * ceil(log Delta)``."""
    if k < 0:
        raise ProtocolError(f"backoff repetition count must be non-negative, got {k}")
    return k * backoff_slots(delta)


def geometric_slot(rng: random.Random, slots: int) -> int:
    """Draw the transmission slot: geometric(1/2) capped at ``slots``.

    Returns a 1-based slot ``x`` with ``P(x=j) = 2^-j`` for ``j < slots``
    and the capped remainder at ``j = slots`` — exactly Algorithm 4's
    ``min(Geom(1/2), ceil(log Delta))``.
    """
    slot = 1
    while slot < slots and rng.random() < 0.5:
        slot += 1
    return slot


def snd_ebackoff(ctx: NodeContext, k: int, delta: int, payload: Any = 1) -> BackoffRun:
    """Algorithm 4's Snd-EBackoff(k, Delta): transmit once per iteration.

    Spans ``k * ceil(log Delta)`` rounds; awake exactly ``k`` rounds.
    Always returns ``False`` (a sender hears nothing), so callers can use
    sender and receiver results uniformly.

    All ``k`` slots are drawn up front and the backoff is yielded as
    one :class:`TransmitSchedule`, so the node is resumed once, at the
    backoff's end.  The node's stream is private, so drawing early moves
    no draw.
    """
    if k <= 0:
        return False
    slots = backoff_slots(delta)
    gaps = []
    idle = 0
    for _ in range(k):
        slot = geometric_slot(ctx.rng, slots)
        gaps.append(idle + slot - 1)
        idle = slots - slot
    gaps.append(idle)
    yield TransmitSchedule(tuple(gaps), payload)
    return False


def rec_ebackoff(
    ctx: NodeContext,
    k: int,
    delta: int,
    delta_est: Optional[int] = None,
) -> BackoffRun:
    """Algorithm 4's Rec-EBackoff(k, Delta, Delta_est).

    Listens in the first ``ceil(log Delta_est)`` slots of each iteration
    while nothing has been heard; after hearing a message, sleeps out the
    remainder of the entire backoff.  Spans exactly
    ``k * ceil(log Delta)`` rounds regardless of ``delta_est``.  Returns
    whether a message was heard.

    Each iteration's listening slots are one :class:`ListenFor` window,
    and the whole backoff is one window when no idle slot separates the
    iterations (``Delta_est`` fixes as many slots as ``Delta``).
    """
    slots = backoff_slots(delta)
    listen_slots = min(slots, backoff_slots(delta_est if delta_est is not None else delta))
    end = ctx.now + k * slots
    idle = slots - listen_slots
    windows, window = (k, listen_slots) if idle else (min(k, 1), k * slots)
    for _ in range(windows):
        observation = yield ListenFor(window)
        if observation.heard_something:
            if ctx.now < end:
                yield Sleep(end - ctx.now)
            return True
        if idle:
            yield Sleep(idle)
    return False


def snd_rec_ebackoff(
    ctx: NodeContext,
    k: int,
    delta: int,
    delta_est: Optional[int] = None,
    payload: Any = 1,
) -> BackoffRun:
    """Combined sender/receiver backoff used inside LowDegreeMIS.

    Per iteration the node transmits in its geometric slot and listens in
    the other slots up to ``ceil(log Delta_est)`` (while nothing has been
    heard).  Never transmits and listens in the same round, honouring the
    radio constraint.  Returns whether a message was heard.

    This primitive is our addition (the paper leaves LowDegreeMIS's
    internals to Davies [18]); it lets two adjacent *marked* nodes detect
    each other, since independent geometric slots differ with constant
    probability per iteration.

    The listening slots before and after the send slot are one
    :class:`ListenFor` window each, and idle slots are slept in one
    stretch up to the node's next awake round, across iterations too
    (as in :func:`snd_ebackoff`).
    """
    slots = backoff_slots(delta)
    listen_slots = min(slots, backoff_slots(delta_est if delta_est is not None else delta))
    heard = False
    idle = 0  # idle rounds owed before the node's next awake round
    for _ in range(k):
        send_slot = geometric_slot(ctx.rng, slots)
        window = 0 if heard else min(send_slot - 1, listen_slots)
        if window:
            if idle:
                yield Sleep(idle)
            start = ctx.now
            observation = yield ListenFor(window)
            heard = observation.heard_something
            idle = start + send_slot - 1 - ctx.now
        else:
            idle += send_slot - 1
        if idle:
            yield Sleep(idle)
        yield Transmit(payload)
        window = 0 if heard else listen_slots - send_slot
        idle = slots - send_slot
        if window > 0:
            start = ctx.now
            observation = yield ListenFor(window)
            heard = observation.heard_something
            idle += start - ctx.now
    if idle:
        yield Sleep(idle)
    return heard


def traditional_decay_sender(
    ctx: NodeContext, k: int, delta: int, payload: Any = 1
) -> BackoffRun:
    """Classical Decay sender: transmit in slots 1..X, X ~ geometric(1/2).

    After dropping out it stays awake *listening* for the rest of the
    backoff — the traditional, energy-oblivious behaviour the paper's
    Snd-EBackoff improves on.  Awake all ``k * ceil(log Delta)`` rounds.

    Each iteration's transmits are one zero-gap
    :class:`TransmitSchedule` and its listening one listen-through,
    since the sender ignores what it hears.
    """
    slots = backoff_slots(delta)
    for _ in range(k):
        stop_after = geometric_slot(ctx.rng, slots)
        yield TransmitSchedule((0,) * (stop_after + 1), payload)
        if stop_after < slots:
            yield ListenFor(slots - stop_after, through=True)
    return False


def traditional_decay_receiver(ctx: NodeContext, k: int, delta: int) -> BackoffRun:
    """Classical Decay receiver: listen in *every* round of the backoff.

    Awake for all ``k * ceil(log Delta)`` rounds — the energy cost the
    paper's Rec-EBackoff exists to avoid.  Returns whether a message was
    heard at any point.

    The backoff is one window up to the first round the receiver hears
    something, and one listen-through for the rest.
    """
    rounds = k * backoff_slots(delta)
    if rounds <= 0:
        return False
    end = ctx.now + rounds
    observation = yield ListenFor(rounds)
    if not observation.heard_something:
        return False
    if ctx.now < end:
        yield ListenFor(end - ctx.now, through=True)
    return True
