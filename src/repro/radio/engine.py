"""Synchronous radio-network round engine with sleep fast-forwarding.

The engine advances a per-node generator coroutine through discrete
rounds.  Its key property: **simulation cost is proportional to total
awake rounds, not elapsed rounds.**  Sleeping nodes are parked in a
round calendar keyed by their wake round, and the global clock jumps
straight to the next round in which *any* node is awake.  Since the
paper's algorithms are awake for only polylogarithmically many rounds
per node, even their ``O(log^3 n log Delta)``-round executions simulate
quickly.

Collision semantics per round (Section 1.1 of the paper):

* a transmitting node hears nothing (no sender-side detection),
* a listening node's observation is determined by how many of *its
  neighbors* transmit this round, mapped through the chosen
  :class:`~repro.radio.models.CollisionModel`,
* under a :class:`~repro.radio.models.MultichannelModel` the same rule
  applies per channel: only neighbors on the listener's channel count.

Energy accounting is exact: one unit per transmit or listen round,
attributed to the node's current ledger component.

Hot-path structure (see "Engine internals" in ``docs/API.md``):

* **One tally per round** — a perceiver's observation depends only on
  how many of its neighbors transmit on its channel, plus the lone
  payload when exactly one does.  The engine counts per *tally key*
  ``node + channel * stride`` (``stride`` = number of nodes), which is
  the plain node id on channel 0, so single-channel rounds never compute
  a key.  Rounds with zero or one transmitter skip counting: everyone
  hears silence, or membership in the lone transmitter's neighborhood
  decides.  Otherwise the round's transmitters are scattered once over
  their adjacency tuples into a dict tally at C speed — O(sum of
  deg(transmitter) + awake nodes) per round, instead of intersecting
  every perceiver's neighborhood with the transmitter set.  That dict
  is the only tally, with numpy installed or not.
* **One park step** — every transmit and listen enters the calendar
  through ``park``, in the oracle's order: the crash check against its
  round, then the channel check, then its tally key, computed once and
  carried in its calendar entry.
* **One resume loop** — every node that acted is charged energy, handed
  the observation derived from the tally under its entry's key
  (perturbed by the fault channel, if the run has one), traced when a
  sink records, and resumed.  A resumed plain transmit or listen goes
  straight to ``park`` for next round.
* **Listen windows** — a node that yielded
  :class:`~repro.radio.actions.ListenFor` and heard nothing this round
  is parked again for next round without being resumed, until it
  hears something or its window runs out (a listen-through is parked
  again whatever it hears and is resumed with ``None`` at the end);
  ``park``'s crash check applies to each of those rounds, so a crash
  cuts a window exactly as it cuts the next single listen.
* **Off-calendar windows** — that per-round re-park is the window path
  of every run that must see each silent round: one with a recording
  trace sink (each round is an event), a fault channel, a crash
  timeline or churn (each can change or cut a silent round).  Any other
  run, chosen by its own inputs alone, takes a channel-0 window that
  ends before ``max_rounds`` off the calendar: the node waits in a
  per-run map keyed by its tally key, with one deadline entry at the
  window's last round.  Each round with
  transmitters intersects its tally keys with the waiting keys at C
  speed, and a listener that hears something, or reaches its deadline,
  is charged its earlier rounds in one addition and joins the round's
  bucket as a plain listen, so the deferred charge is settled before
  its coroutine runs again.  A listen-through is charged all its rounds
  at once and followed like a sleep.  Results, resume counts and
  window-round counts equal the per-round path's; rounds processed do
  not, since silent window rounds are no longer processed one by one.
* **Transmit schedules** — a node that yielded
  :class:`~repro.radio.actions.TransmitSchedule` is resumed once, with
  ``None``, after its last gap.  On the per-round path each next
  transmit is parked again after its gap without resuming the node,
  through the same ``park``.
* **Off-calendar schedules** — the same runs take a channel-0 schedule
  whose last transmit lies before ``max_rounds`` off the calendar too.
  Its transmits but the last are charged in one addition and entered,
  as tally keys, in a per-run index keyed by round; the last is parked
  as usual.  A processed round adds its index entry to its transmitters
  before it resolves collisions, so every perceiver on the calendar
  hears them, and a small heap drops the index rounds nobody processed.
  An indexed round enters the calendar only when an off-calendar
  window of a neighbour covers it, which is checked when either of the
  two registers; the waiting check then decides hit, collision or
  silence from the round's full tally.  The per-round path stays for
  the inputs that keep per-round windows, and for three more: a
  recording trace (each transmit is an event), a crash timeline or
  churn (a crash cuts a schedule, so its transmits cannot be charged in
  advance), a fault channel (its windows stay per-round, and a run
  takes one path), a nonzero channel (the index, like the waiting map,
  holds channel-0 keys), a schedule that crosses the watchdog (both
  engines raise at its first transmit at or past ``max_rounds``) and a
  burst, whose transmits fill consecutive rounds (a window that covers
  one of them mostly covers them all, as Decay's receivers do, so
  indexing a burst saves no processed round and costs its
  registration).  Results, resume counts, window rounds and scheduled
  rounds equal the per-round path's; rounds processed, and with them
  the zero-, one- and many-transmitter rounds, do not.
* **Round calendar** — pending actions live in a dict of
  ``round -> [(runner, payload-or-LISTEN, tally key)]`` buckets, one
  new bucket per populated round; a small heap orders only the
  *distinct* populated round numbers, so the per-action cost is an
  O(1) list append instead of an O(log awake) heap push.
* **Interned observations** — each collision model exposes its
  count-bucketed outcomes (:attr:`~repro.radio.models.CollisionModel.
  observation_zero` / ``_one`` / ``_many``) as shared singletons, so
  ``model.resolve`` virtual calls never run inside the round loop.

``repro.radio._engine_reference`` is the specification oracle: about
200 lines that state the model directly (a ``(round, tick, node)``
heap, per-perceiver neighbour scans, ``model.resolve`` per perceiver)
and share no round-loop code with this module.  The golden tests in
``tests/radio/test_engine_golden.py`` and the property, channel, fault
and churn suites assert both produce bit-identical
:class:`~repro.radio.metrics.RunResult`s and traces.

Telemetry: ``run_protocol(..., telemetry=True)`` attaches an
:class:`~repro.obs.telemetry.EngineTelemetry` — which fast path resolved
each round, rounds the clock jumped, coroutine resumes, per-component
energy, wall time — to ``RunResult.telemetry``.  The counters tick per
processed round (a round on the calendar: one that resumes a node,
holds an on-calendar transmit or listen, ends a window, or holds an
indexed transmit that a waiting window covers), per sleep a node
yields, per re-parked window or schedule round and per window or
schedule settled off the calendar, never per resumed transmit or
single listen, and never steer observations or RNG, so results are
bit-identical with telemetry on or off (the golden and property tests
enforce both).  The resume count is derived after the loop from boots,
restarts, awake rounds and those three counts.
"""

from __future__ import annotations

import heapq
import random
from itertools import chain
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

try:  # CPython's C tally helper behind Counter.update.
    from _collections import _count_elements
except ImportError:  # pragma: no cover - non-CPython fallback
    def _count_elements(mapping, iterable):
        get = mapping.get
        for element in iterable:
            mapping[element] = get(element, 0) + 1

from time import perf_counter

from ..errors import ProtocolError, SimulationError
from ..faults.injector import compile_fault_plan, restart_rng
from ..faults.plan import FaultPlan
from ..graphs.graph import Graph
from ..obs.telemetry import EngineTelemetry
from .actions import (
    TAG_LISTEN,
    TAG_LISTEN_FOR,
    TAG_SLEEP,
    TAG_SLEEP_UNTIL,
    TAG_TRANSMIT,
    TAG_TRANSMIT_SCHEDULE,
)
from .metrics import NodeStats, RunResult
from .models import CollisionModel
from .node import NodeContext, Protocol
from .observations import ObservationKind, message, observation_label
from .trace import NullTrace, TraceEvent, TraceSink

__all__ = ["run_protocol", "DEFAULT_MAX_ROUNDS"]

#: Fallback watchdog when the protocol provides no round bound hint.
DEFAULT_MAX_ROUNDS = 50_000_000

#: Safety slack multiplied onto a protocol's own round-budget hint.
_HINT_SLACK = 4

_NULL_TRACE = NullTrace()

#: Calendar-bucket sentinel marking a listen (any transmit payload,
#: including ``None``, is distinguishable from this private object).
_LISTEN = object()


class _NodeRunner:
    """Bookkeeping for one node's coroutine between engine events."""

    __slots__ = ("node", "generator", "send", "ctx", "transmit_rounds",
                 "listen_rounds", "finish_round", "done", "crashed",
                 "restarts", "last_restart_round", "window", "gaps")

    def __init__(self, node: int, generator, ctx: NodeContext):
        self.node = node
        self.generator = generator
        #: Bound ``generator.send``, cached so resuming skips two
        #: attribute loads per awake round.
        self.send = generator.send
        self.ctx = ctx
        self.transmit_rounds = 0
        self.listen_rounds = 0
        self.finish_round = -1
        self.done = False
        self.crashed = False
        self.restarts = 0
        self.last_restart_round = -1
        #: Rounds left in the node's per-round listen window after the
        #: parked one; for a listen-through, minus the rounds left with
        #: the parked one included (so ``-1`` marks its last round).
        self.window = 0
        #: Gaps left in the node's transmit schedule after the parked
        #: transmit, last first (so ``pop`` takes the next one).
        self.gaps = ()


def run_protocol(
    graph: Graph,
    protocol: Protocol,
    model: CollisionModel,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    trace: Optional[TraceSink] = None,
    wake_schedule: Optional[Dict[int, int]] = None,
    telemetry: bool = False,
    faults: Optional[FaultPlan] = None,
) -> RunResult:
    """Simulate ``protocol`` on every node of ``graph`` under ``model``.

    Parameters
    ----------
    graph:
        The (unknown-to-the-nodes) communication topology.
    protocol:
        Shared protocol configuration; each node runs ``protocol.run``.
    model:
        Collision-handling semantics (CD / no-CD / beeping).
    seed:
        Master seed; node ``v`` draws from ``random.Random`` seeded by a
        deterministic mix of the seed and ``v``, so runs are exactly
        reproducible and per-node streams are independent.
    max_rounds:
        Watchdog; defaults to the protocol's own hint (times a slack
        factor) or :data:`DEFAULT_MAX_ROUNDS`.  Exceeding it raises
        :class:`~repro.errors.SimulationError` — the paper's algorithms
        have hard round budgets, so a runaway run is always a bug.
    trace:
        Optional :class:`~repro.radio.trace.TraceSink` to record awake
        events.
    wake_schedule:
        Optional asynchronous wake-up: ``{node: round}`` — the node
        sleeps until that round before its protocol starts (its local
        clock, ``ctx.now``, starts there too).  The paper assumes
        synchronous wake-up (all zeros); this knob quantifies how much
        that assumption carries (experiment A3).  A round that is not
        a non-negative int raises :class:`~repro.errors.ProtocolError`
        naming the node.
    telemetry:
        When true, attach an :class:`~repro.obs.telemetry.
        EngineTelemetry` (hot-path counters, per-component energy,
        wall time) to the result's ``telemetry`` field.  The run itself
        is bit-identical either way: the counters maintained for it are
        a handful of per-round integer increments that never touch RNG
        state, scheduling order, or observations, and the field is
        excluded from ``RunResult`` equality.
    faults:
        Optional :class:`~repro.faults.FaultPlan` — composable,
        deterministically seeded message loss, jamming, crash-stop and
        crash–recovery, and wake-skew injection (see
        :mod:`repro.faults`).  A crash-stopped node executes no action at
        or after its crash round and its decision freezes; it is flagged
        in its :class:`~repro.radio.metrics.NodeStats`.  Explicit
        ``wake_schedule`` entries override the plan's generated skew.
        ``None`` (or a no-op plan) takes the fault-free fast path
        bit-identical to a run without the parameter.
    """
    # A MultichannelModel lifts its base model without changing the
    # per-channel collision semantics, so compatibility is decided by
    # the base model's name.
    compat_name = getattr(model, "base", model).name
    if compat_name not in protocol.compatible_models:
        raise SimulationError(
            f"protocol {protocol.name!r} supports models "
            f"{protocol.compatible_models}, not {compat_name!r}"
        )
    # Graph-wide parameters, computed once for the whole run (the seed
    # engine re-evaluated max_degree/num_nodes per node at boot).
    num_nodes = graph.num_nodes
    delta = graph.max_degree()
    adjacency = graph.adjacency
    neighbor_sets = graph.neighbor_sets
    auto_max_rounds = max_rounds is None
    if auto_max_rounds:
        hint = protocol.max_rounds_hint(num_nodes, delta)
        max_rounds = _HINT_SLACK * hint if hint else DEFAULT_MAX_ROUNDS

    # Fault-plan compilation (see repro.faults).  ``fault_channel`` is
    # the collision-resolution hook; ``crash_events`` the merged
    # node -> [(round, recovery_delay)] timeline (recovery_delay None =
    # crash-stop).  Both stay None on the fault-free path, so no per-round cost is added.
    fault_channel = None
    crash_events: Optional[Dict[int, List[Tuple[int, Optional[int]]]]] = None
    churn_rt = None
    if faults is not None and not faults.is_noop:
        compiled = compile_fault_plan(
            faults,
            model,
            num_nodes,
            wake_schedule=wake_schedule,
            graph=graph,
        )
        fault_channel = compiled.channel
        crash_events = compiled.crashes
        wake_schedule = compiled.wake
        churn_rt = compiled.churn

    # Dynamic-topology churn (see repro.faults.churn): bind the
    # runtime's *mutable* adjacency view in place of the graph's frozen
    # one (the runtime mutates per index, so the bound views below stay
    # live), size contexts for the final population with the run-wide
    # degree bound, and stretch an auto-derived round budget to cover
    # the event horizon plus repair.  Churn-free runs touch none of
    # this — every binding stays exactly what the static path computed.
    ctx_n = num_nodes
    ctx_delta = delta
    boot_nodes = graph.nodes
    if churn_rt is not None:
        ctx_n = churn_rt.total_nodes
        ctx_delta = churn_rt.delta_bound
        boot_nodes = range(ctx_n)
        adjacency = churn_rt.adjacency
        neighbor_sets = churn_rt.neighbor_sets
        if auto_max_rounds:
            max_rounds = churn_rt.last_event_round + 1 + 4 * max_rounds

    # Channel indices must be ints in [0, channels); ``park`` checks them.
    channels = getattr(model, "channels", 1)

    def channel_error(node: int, channel: Any) -> ProtocolError:
        return ProtocolError(
            f"node {node} used channel {channel!r}, but model {model.name!r} "
            f"has {channels} channel(s), 0..{channels - 1}"
        )

    runners: List[_NodeRunner] = []

    # Round calendar: round -> (bucket, tx_keys, tx_payloads).  The
    # bucket holds (runner, payload, tally key) for transmits and
    # (runner, _LISTEN, tally key) for listens, appended in schedule
    # (= tick) order, which reproduces the seed engine's (round, tick)
    # heap pop order exactly; the tx lists pre-classify the round's
    # transmitters (by tally key, see below) at schedule time so round
    # processing skips a classification pass.  ``round_heap`` orders the
    # distinct populated round numbers only.
    _Slot = Tuple[List[Tuple[_NodeRunner, Any, int]], List[int], List[Any]]
    calendar: Dict[int, _Slot] = {}
    round_heap: List[int] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    calendar_get = calendar.get

    # The round's tally, a per-run buffer hoisted out of the round loop:
    # a plain dict, NOT a Counter, since the resume loop detects "no
    # transmitting neighbors" by ``KeyError`` on subscript, which
    # ``Counter.__missing__`` would silently turn into 0.
    counts: Dict[int, int] = {}
    chain_from_iterable = chain.from_iterable
    adjacency_at = adjacency.__getitem__

    # Hot-path telemetry (see EngineTelemetry).  The counters tick per
    # processed round, per yielded sleep, per re-parked window or
    # schedule round and per window or schedule settled off the
    # calendar — never per resumed transmit or single listen — so
    # maintaining them unconditionally costs a few integer increments;
    # the zero-transmitter, clock-jump and resume counts are derived
    # after the loop rather than paid inside it.
    tel_one_tx = 0
    tel_scatter_dict = 0
    tel_rounds = 0
    tel_sleeps = 0
    tel_window_rounds = 0
    tel_schedule_rounds = 0
    # Channel telemetry covers multichannel rounds (a round with an
    # action on a nonzero channel) only, and is derived from the round's
    # bucket only when ``telemetry`` is on: rounds each channel carried
    # >= 1 transmitter, and rounds it was contended (>= 2).
    tel_channels = telemetry and channels > 1
    tel_mc_rounds = 0
    tel_channel_tx: Dict[int, int] = {}
    tel_channel_collisions: Dict[int, int] = {}
    tel_start = perf_counter() if telemetry else 0.0

    # Off-calendar listening (see the module docstring): a waiting
    # window is ``waiting[node] = (runner, first round)``, and
    # ``deadline_calendar`` maps a round to the entries of the windows
    # whose last round it is.
    record_trace = trace is not None and trace.enabled
    off_calendar = (
        not record_trace
        and fault_channel is None
        and crash_events is None
        and churn_rt is None
    )
    waiting: Dict[int, Tuple[_NodeRunner, int, int]] = {}
    deadline_calendar: Dict[int, List[Tuple[_NodeRunner, int, int]]] = {}
    # Off-calendar schedules: ``scheduled`` maps a round to the tally
    # keys of the scheduled transmits in it (every transmit of a
    # schedule but its last), ``scheduled_rounds`` is a heap of its
    # rounds, so a round that is never processed is dropped, and
    # ``sending[node] = (first round, last indexed round, gaps between
    # transmits, payload)`` describes the schedule a node is in.
    scheduled: Dict[int, List[int]] = {}
    scheduled_get = scheduled.get
    scheduled_rounds: List[int] = []
    sending: Dict[int, Tuple[int, int, Tuple[int, ...], Any]] = {}

    # ------------------------------------------------------------------
    # Boot every node: build its context, pull the first action.
    # ------------------------------------------------------------------
    for node in boot_nodes:
        node_rng = random.Random((seed * 0x9E3779B9 + node * 0x85EBCA6B) & 0xFFFFFFFF)
        ctx = NodeContext(node, node_rng, n=ctx_n, delta=ctx_delta)
        if wake_schedule is not None:
            wake_round = wake_schedule.get(node, 0)
            if (
                isinstance(wake_round, bool)
                or not isinstance(wake_round, int)
                or wake_round < 0
            ):
                raise ProtocolError(
                    f"wake round for node {node} must be a non-negative int, "
                    f"got {wake_round!r}"
                )
            ctx._now = wake_round
            if churn_rt is not None and node >= churn_rt.base_nodes:
                # A churn joiner anchors any phase-synchronized calendar
                # at its join round, exactly like a crash-recovered node
                # (protocols read ctx.restart_round for their base).
                ctx.restart_round = wake_round
        generator = protocol.run(ctx)
        runner = _NodeRunner(node, generator, ctx)
        runners.append(runner)

    # Tally keys: collisions are counted per (node, channel) under the key
    # ``node + channel * stride``.  Keys of distinct pairs never clash,
    # and on channel 0 the key is the plain node id, so single-channel
    # rounds never compute one.  ``shifted_keys`` memoizes the neighbor
    # key sets of nonzero-channel keys; churned runs clear it every
    # round, since their topology mutates.
    stride = len(runners)
    shifted_keys: Dict[int, FrozenSet[int]] = {}

    def neighbor_keys(key: int) -> FrozenSet[int]:
        """Tally keys of ``key``'s neighbors on ``key``'s own channel."""
        if key < stride:
            return neighbor_sets[key]
        keys = shifted_keys.get(key)
        if keys is None:
            offset = key - key % stride
            keys = shifted_keys[key] = frozenset(
                map(offset.__add__, neighbor_sets[key - offset])
            )
        return keys

    # The dict scatter's neighbour lookup: adjacency tuples when every
    # key is a node id, tally keys on the transmitter's own channel else.
    scatter_neighbors = adjacency_at if channels == 1 else neighbor_keys

    def open_slot(when: int) -> _Slot:
        """Put a new empty slot for round ``when`` on the calendar."""
        slot = calendar[when] = ([], [], [])
        heappush(round_heap, when)
        return slot

    def open_covered(when: int, inner: Tuple[int, ...], start: int, last: int) -> None:
        """Put each indexed transmit round of the schedule that
        transmits first at ``when``, with ``inner`` gaps between its
        transmits, that lies in ``[start, last]`` on the calendar, so a
        waiting window over those rounds is checked in each of them."""
        for gap in inner:
            if when > last:
                return
            if when >= start and when not in calendar:
                open_slot(when)
            when += gap + 1

    def park(runner: _NodeRunner, when: int, payload: Any, channel: Any) -> None:
        """Put ``runner``'s transmit of ``payload`` (a listen, for
        ``_LISTEN``) on ``channel`` into round ``when``'s bucket.

        Every transmit and listen that reaches the calendar comes through
        here, in the oracle's order: first the crash timeline, against
        ``when`` (a crash-stop ends the node, a crash-recovery
        reincarnates it, and nothing is parked); then the channel, an int
        in ``[0, channels)`` (a falsy channel that is not the int 0,
        such as ``None``, ``False`` or ``0.0``, is rejected as the oracle
        rejects it); then the tally key, computed once and carried in the
        bucket entry.
        """
        if crash_events is not None:
            events = crash_events.get(runner.node)
            if events and when >= events[0][0]:
                crash_round, recovery_delay = events.pop(0)
                runner.generator.close()
                if recovery_delay is None:
                    # Crash-stop: the node never executes this (or any
                    # later) action.
                    runner.done = True
                    runner.crashed = True
                    runner.finish_round = crash_round
                else:
                    reincarnate(runner, crash_round + recovery_delay)
                return
        if type(channel) is not int or channel:
            if type(channel) is not int or not 0 < channel < channels:
                raise channel_error(runner.node, channel)
            key = runner.node + channel * stride
        else:
            key = runner.node
        bucket, tx_keys, tx_payloads = calendar_get(when) or open_slot(when)
        bucket.append((runner, payload, key))
        if payload is not _LISTEN:
            tx_keys.append(key)
            tx_payloads.append(payload)

    def advance_action(runner: _NodeRunner, action) -> None:
        """Process ``action`` (and any follow-up sleeps) until the runner
        parks an awake action in the calendar or terminates.

        ``runner.ctx._now`` must already hold the round at which
        ``action`` would execute.  Consecutive sleeps collapse without
        touching the calendar; a transmit or listen goes to ``park``.  A
        :class:`~repro.radio.actions.ListenFor` also opens the runner's
        window, and a :class:`~repro.radio.actions.TransmitSchedule`
        sleeps its leading gap and keeps the other gaps on the runner,
        so the resume loop can ``park`` their later rounds without
        resuming the node.  In an off-calendar run a channel-0 window
        that ends before ``max_rounds`` waits in ``waiting`` instead,
        a listen-through is charged at once and followed like a sleep,
        and a channel-0 schedule that is not one burst and whose last
        transmit lies before ``max_rounds`` enters its other transmits
        in ``scheduled``, charged at once, and parks only its last.
        """
        nonlocal tel_sleeps, tel_window_rounds, tel_schedule_rounds
        ctx = runner.ctx
        send = runner.send
        while True:
            # Type-tag dispatch: one attribute load + small-int compares
            # beat an isinstance chain per action.  Subclasses inherit
            # their base action's tag and dispatch identically; objects
            # without a ``tag`` fall through to the error below.
            try:
                tag = action.tag
            except AttributeError:
                tag = None
            if tag == TAG_SLEEP:
                ctx._now += action.rounds
                tel_sleeps += 1
            elif tag == TAG_SLEEP_UNTIL:
                if action.target < ctx._now:
                    raise ProtocolError(
                        f"node {runner.node} requested SleepUntil({action.target}) "
                        f"at round {ctx._now} (target in the past)"
                    )
                ctx._now = action.target
                tel_sleeps += 1
            elif (
                tag == TAG_LISTEN_FOR
                and off_calendar
                and type(action.channel) is int
                and not action.channel
                and ctx._now + action.rounds <= max_rounds
            ):
                # Every round of the window lies before the watchdog;
                # a window that crosses it takes the per-round path, so
                # both engines raise at the same round.
                rounds = action.rounds
                if not action.through:
                    start = ctx._now
                    deadline = start + rounds - 1
                    entry = (runner, start, deadline)
                    waiting[runner.node] = entry
                    if sending:
                        # Neighbours mid-schedule transmit in rounds the
                        # calendar may not hold.
                        for key in sending.keys() & neighbor_sets[runner.node]:
                            first, last, inner, _ = sending[key]
                            if last >= start and first <= deadline:
                                open_covered(first, inner, start, deadline)
                    due = deadline_calendar.get(deadline)
                    if due is None:
                        deadline_calendar[deadline] = [entry]
                        if deadline not in calendar:
                            open_slot(deadline)
                    else:
                        due.append(entry)
                    return
                charge_listens(runner, rounds)
                tel_window_rounds += rounds - 1
                ctx._now += rounds
            else:
                if tag == TAG_TRANSMIT:
                    park(runner, ctx._now, action.payload, action.channel)
                elif tag == TAG_LISTEN:
                    park(runner, ctx._now, _LISTEN, action.channel)
                elif tag == TAG_LISTEN_FOR:
                    # Set before parking: a crash-recovery inside
                    # ``park`` clears it for the new incarnation.
                    runner.window = (
                        -action.rounds if action.through else action.rounds - 1
                    )
                    park(runner, ctx._now, _LISTEN, action.channel)
                elif tag == TAG_TRANSMIT_SCHEDULE:
                    gaps = action.gaps
                    when = ctx._now = ctx._now + gaps[0]
                    inner = gaps[1:-1]
                    if (
                        off_calendar
                        and any(inner)
                        and type(action.channel) is int
                        and not action.channel
                        and when + sum(inner) + len(inner) < max_rounds
                    ):
                        # Every transmit lies before the watchdog (one
                        # that crosses it takes the per-round path, so
                        # both engines raise at the same round), and the
                        # transmits are not one burst of consecutive
                        # rounds (see the module docstring).
                        node = runner.node
                        first = when
                        for gap in inner:
                            keys = scheduled_get(when)
                            if keys is None:
                                scheduled[when] = [node]
                                heappush(scheduled_rounds, when)
                            else:
                                keys.append(node)
                            when += gap + 1
                        # ``when`` is now the last transmit's round.
                        last = when - inner[-1] - 1
                        sending[node] = (first, last, inner, action.payload)
                        if waiting:
                            for key in waiting.keys() & neighbor_sets[node]:
                                _, start, deadline = waiting[key]
                                if last >= start and first <= deadline:
                                    open_covered(first, inner, start, deadline)
                        count = len(inner)
                        runner.transmit_rounds += count
                        ledger = ctx.energy_by_component
                        ledger[ctx._component] = ledger.get(ctx._component, 0) + count
                        tel_schedule_rounds += count
                        ctx._now = when
                        runner.gaps = [gaps[-1]]
                    else:
                        runner.gaps = list(gaps[:0:-1])
                    park(runner, when, action.payload, action.channel)
                else:
                    raise ProtocolError(
                        f"node {runner.node} yielded unsupported action {action!r}"
                    )
                return
            try:
                action = send(None)
            except StopIteration:
                runner.done = True
                runner.finish_round = ctx._now
                return

    def advance(runner: _NodeRunner, observation) -> None:
        """Resume a runner with ``observation`` and schedule what follows."""
        try:
            # ``send(None)`` on a fresh generator is ``next()``, so
            # booting needs no special case.
            action = runner.send(observation)
        except StopIteration:
            runner.done = True
            runner.finish_round = runner.ctx._now
            return
        advance_action(runner, action)

    def reincarnate(runner: _NodeRunner, restart_round: int) -> None:
        """Restart ``runner``'s protocol from scratch at ``restart_round``.

        Crash recovery and churn repair share this recipe: a fresh
        incarnation-salted RNG stream, fresh decision/info state, the
        local clock (and ``ctx.restart_round``) set to the restart round,
        and the energy ledger carried over — so restarts are
        seed-deterministic and identical across engines.
        """
        runner.restarts += 1
        runner.last_restart_round = restart_round
        runner.window = 0
        runner.gaps = ()
        runner.done = False
        runner.finish_round = -1
        ctx = NodeContext(
            runner.node,
            restart_rng(seed, runner.node, runner.restarts),
            n=ctx_n,
            delta=ctx_delta,
        )
        ctx.energy_by_component = runner.ctx.energy_by_component
        ctx._now = restart_round
        ctx.restart_round = restart_round
        runner.ctx = ctx
        runner.generator = protocol.run(ctx)
        runner.send = runner.generator.send
        advance(runner, None)

    def charge_listens(runner: _NodeRunner, rounds: int) -> None:
        """Charge ``rounds`` listened rounds to ``runner`` in one addition."""
        runner.listen_rounds += rounds
        ctx = runner.ctx
        ledger = ctx.energy_by_component
        ledger[ctx._component] = ledger.get(ctx._component, 0) + rounds

    def join_bucket(entry: Tuple[_NodeRunner, int, int], when: int, bucket) -> None:
        """Move a waiting listener into round ``when``'s ``bucket``,
        charging the window's rounds before ``when`` first."""
        nonlocal tel_window_rounds
        runner, start, _ = entry
        if when > start:
            charge_listens(runner, when - start)
            tel_window_rounds += when - start
        bucket.append((runner, _LISTEN, runner.node))

    # ``park``, ``reincarnate``, ``advance`` and ``advance_action`` refer
    # to one another through closure cells: a cycle that only the cyclic
    # GC would free, with the calendar and the tally it holds.  Clearing
    # the cells on every way out frees them when the run returns or
    # raises.
    try:
        for runner in runners:
            advance(runner, None)

        # ------------------------------------------------------------------
        # Main loop: process one populated round at a time.
        # ------------------------------------------------------------------
        sink = trace if trace is not None else _NULL_TRACE

        sender_side = model.sender_side_detection
        obs_zero = model.observation_zero
        obs_one = model.observation_one  # None => deliver message(lone_payload)
        obs_many = model.observation_many

        # ``heard_something`` is "not silence"; a window continues on silence.
        silence = ObservationKind.SILENCE
        # Whether a listener with several talking neighbours hears something
        # (a collision or a beep); under no-CD it hears silence.
        many_heard = obs_many.kind is not silence

        # Populated rounds are processed in increasing order, so the span
        # [first processed, last processed] minus the processed count is the
        # number of rounds the calendar clock jumped over.
        first_round = round_heap[0] if round_heap else 0
        last_round = first_round

        while True:
            if not round_heap:
                if churn_rt is None:
                    break
                # Post-quiescence churn: events past the last awake round
                # and repair restarts (including the final convergence scan)
                # can repopulate the calendar; loop until the runtime agrees
                # the run is settled (see ChurnRuntime.drain).
                restarts = churn_rt.drain(runners)
                if not restarts:
                    break
                for repair_node, repair_round in restarts:
                    reincarnate(runners[repair_node], repair_round)
                continue
            current_round = round_heap[0]
            if churn_rt is not None:
                shifted_keys.clear()
                restarts = churn_rt.on_round(current_round, runners)
                if restarts:
                    # Repair restarts may park actions before the current
                    # heap top; re-read the calendar before processing.
                    for repair_node, repair_round in restarts:
                        reincarnate(runners[repair_node], repair_round)
                    continue
            if current_round >= max_rounds:
                awake = sorted(
                    {entry[0].node for slot in calendar.values() for entry in slot[0]}
                )
                raise SimulationError(
                    f"run exceeded max_rounds={max_rounds} "
                    f"(next event at round {current_round}, awake nodes {awake[:10]}...)"
                )
            heappop(round_heap)
            bucket, tx_keys, tx_payloads = calendar.pop(current_round)
            # Scheduled transmits join the round's transmitters; the rounds
            # of ``scheduled`` that were never processed are dropped.
            while scheduled_rounds and scheduled_rounds[0] <= current_round:
                when = heappop(scheduled_rounds)
                keys = scheduled.pop(when)
                if when == current_round:
                    tx_keys += keys
                    tx_payloads += [sending[key][3] for key in keys]
            tx_count = len(tx_keys)
            tel_rounds += 1
            last_round = current_round

            # A multichannel round has an action on a nonzero channel, whose
            # tally key reaches past the node ids.
            if tel_channels and any(entry[2] >= stride for entry in bucket):
                tel_mc_rounds += 1
                senders_by_channel: Dict[int, int] = {}
                _count_elements(senders_by_channel, [key // stride for key in tx_keys])
                for channel, senders in senders_by_channel.items():
                    tel_channel_tx[channel] = tel_channel_tx.get(channel, 0) + 1
                    if senders > 1:
                        tel_channel_collisions[channel] = (
                            tel_channel_collisions.get(channel, 0) + 1
                        )

            # Collision resolution, once per round.  0- and 1-transmitter
            # rounds need no tally: everyone hears silence, or membership in
            # the lone transmitter's neighborhood (shifted to its channel's
            # tally keys) decides.  Otherwise one scatter pass over the
            # transmitters' adjacency tuples tallies, per tally key, how many
            # same-channel neighbors are talking — O(sum deg(transmitter)),
            # independent of how many nodes listen.  ``tx_map`` (key ->
            # payload) is built lazily, only when a payload-carrying model
            # actually delivers a lone neighbor's message this round.
            tx_map: Optional[Dict[int, Any]] = None
            if tx_count == 1:
                tel_one_tx += 1
                lone_key = tx_keys[0]
                lone_neighbors = (
                    neighbor_sets[lone_key]
                    if lone_key < stride
                    else neighbor_keys(lone_key)
                )
                lone_observation = (
                    message(tx_payloads[0]) if obs_one is None else obs_one
                )
            elif tx_count > 1:
                tel_scatter_dict += 1
                # One C-level pipeline: index the adjacency tuples, chain
                # them, and tally — no Python-level per-transmitter loop.
                _count_elements(
                    counts, chain_from_iterable(map(scatter_neighbors, tx_keys))
                )

            # Off-calendar listeners join this round's bucket as plain
            # listens when they hear something (a talking neighbour that is
            # alone, or several when that is heard) or reach their window's
            # last round, their earlier rounds charged in one addition.  A
            # listener whose window has not started yet keeps waiting; a
            # deadline entry whose window closed earlier is stale.
            if waiting and tx_count:
                if tx_count == 1:
                    hits = waiting.keys() & lone_neighbors
                    collided = False
                else:
                    hits = counts.keys() & waiting.keys()
                    collided = not many_heard
                for key in hits:
                    if collided and counts[key] != 1:
                        continue
                    entry = waiting[key]
                    if entry[1] <= current_round:
                        del waiting[key]
                        join_bucket(entry, current_round, bucket)
            if deadline_calendar:
                due = deadline_calendar.pop(current_round, None)
                if due is not None:
                    for entry in due:
                        key = entry[0].node
                        if waiting.get(key) is entry:
                            del waiting[key]
                            join_bucket(entry, current_round, bucket)

            # Charge energy, derive observations, trace, and resume everyone
            # who acted, in the seed engine's (tick-order) sequence.  The
            # energy charge is NodeContext._charge_awake_round, inlined.
            next_round = current_round + 1
            for runner, payload, key in bucket:
                ctx = runner.ctx
                ledger = ctx.energy_by_component
                component = ctx._component
                try:
                    ledger[component] += 1
                except KeyError:
                    ledger[component] = 1
                listening = payload is _LISTEN
                if listening or sender_side:
                    if tx_count == 0:
                        observation = obs_zero
                    elif tx_count == 1:
                        observation = (
                            lone_observation if key in lone_neighbors else obs_zero
                        )
                    else:
                        # A key missing from the tally has no talking neighbor.
                        try:
                            count = counts[key]
                        except KeyError:
                            count = 0
                        if count >= 2:
                            observation = obs_many
                        elif not count:
                            observation = obs_zero
                        elif obs_one is not None:
                            observation = obs_one
                        else:
                            if tx_map is None:
                                tx_map = dict(zip(tx_keys, tx_payloads))
                                tx_key_set = set(tx_keys)
                            # The unique same-channel talking neighbor, via
                            # C-level set intersection (exactly 1 element).
                            neighbors = (
                                neighbor_sets[key]
                                if key < stride
                                else neighbor_keys(key)
                            )
                            observation = message(
                                tx_map[(tx_key_set & neighbors).pop()]
                            )
                    if fault_channel is not None:
                        # Collision-resolution hook: the fault channel
                        # perturbs what this perceiver reads on its channel
                        # (jam wins over drop; see repro.faults.injector).
                        observation = fault_channel(
                            current_round, runner.node, observation, key // stride
                        )
                else:
                    observation = None
                if listening:
                    runner.listen_rounds += 1
                    if record_trace:
                        sink.record(
                            TraceEvent(
                                round=current_round,
                                node=runner.node,
                                action="listen",
                                observed=observation_label(observation, model),
                            )
                        )
                    window = runner.window
                    if window:
                        # Listen window: park the listen again for next round
                        # unresumed while nothing is heard and rounds are
                        # left; a listen-through is parked again until its
                        # last round and is then resumed with ``None``.
                        if window > 0 and observation.kind is silence or window < -1:
                            runner.window = window - 1 if window > 0 else window + 1
                            tel_window_rounds += 1
                            park(runner, next_round, _LISTEN, key // stride)
                            continue
                        runner.window = 0
                        if window < 0:
                            observation = None
                else:
                    runner.transmit_rounds += 1
                    if record_trace:
                        sink.record(
                            TraceEvent(
                                round=current_round,
                                node=runner.node,
                                action="transmit",
                                payload=payload,
                            )
                        )
                    gaps = runner.gaps
                    if gaps:
                        # Transmit schedule: sleep the next gap, then transmit
                        # again unresumed, or resume once after the last gap.
                        gap = gaps.pop()
                        if gaps:
                            tel_schedule_rounds += 1
                            park(runner, next_round + gap, payload, key // stride)
                            continue
                        sending.pop(runner.node, None)
                        observation = None
                        if gap:
                            ctx._now = next_round + gap
                            advance(runner, None)
                            continue
                ctx._now = next_round
                try:
                    action = runner.send(observation)
                except StopIteration:
                    runner.done = True
                    runner.finish_round = next_round
                    continue
                # One tag test sends a plain transmit or listen straight to
                # ``park``; sleeps, windows, schedules, termination follow-ups
                # and errors take ``advance_action``.
                try:
                    tag = action.tag
                except AttributeError:
                    tag = None
                if tag == TAG_TRANSMIT:
                    park(runner, next_round, action.payload, action.channel)
                elif tag == TAG_LISTEN:
                    park(runner, next_round, _LISTEN, action.channel)
                else:
                    advance_action(runner, action)

            if tx_count > 1:
                counts.clear()
    finally:
        park = advance_action = advance = reincarnate = None

    # ------------------------------------------------------------------
    # Collect results.
    # ------------------------------------------------------------------
    run_telemetry: Optional[EngineTelemetry] = None
    if telemetry:
        energy_totals: Dict[str, int] = {}
        energy_totals_get = energy_totals.get
        for runner in runners:
            for component, charged in runner.ctx.energy_by_component.items():
                energy_totals[component] = energy_totals_get(component, 0) + charged
        run_telemetry = EngineTelemetry(
            rounds_processed=tel_rounds,
            rounds_skipped=(
                (last_round - first_round + 1) - tel_rounds if tel_rounds else 0
            ),
            zero_tx_rounds=tel_rounds - tel_one_tx - tel_scatter_dict,
            one_tx_rounds=tel_one_tx,
            scatter_dict_rounds=tel_scatter_dict,
            # Every boot and restart resumes once, every awake round once
            # unless it re-parked a window or a schedule, and every
            # yielded sleep once.
            resumes=(
                len(runners)
                + sum(
                    runner.restarts + runner.transmit_rounds + runner.listen_rounds
                    for runner in runners
                )
                - tel_window_rounds
                - tel_schedule_rounds
                + tel_sleeps
            ),
            window_rounds=tel_window_rounds,
            schedule_rounds=tel_schedule_rounds,
            wall_s=perf_counter() - tel_start,
            energy_by_component=energy_totals,
            multichannel_rounds=tel_mc_rounds,
            channel_tx_rounds=tel_channel_tx,
            channel_collision_rounds=tel_channel_collisions,
        )
    left_nodes = churn_rt.left if churn_rt is not None else frozenset()
    stats = tuple(
        NodeStats(
            node=runner.node,
            transmit_rounds=runner.transmit_rounds,
            listen_rounds=runner.listen_rounds,
            finish_round=runner.finish_round,
            decision=runner.ctx.decision,
            energy_by_component=dict(runner.ctx.energy_by_component),
            # A leaver's crash-stop is just how the runtime halts it;
            # report it as departed, not crashed.
            crashed=runner.crashed and runner.node not in left_nodes,
            restarts=runner.restarts,
            last_restart_round=runner.last_restart_round,
            left=runner.node in left_nodes,
        )
        for runner in runners
    )
    rounds = max((runner.finish_round for runner in runners), default=0)
    churn_kwargs = {}
    if churn_rt is not None:
        churn_kwargs = dict(
            final_graph=churn_rt.final_graph(graph),
            repair_rounds=churn_rt.repair_rounds,
            repair_energy=churn_rt.repair_energy(runners),
            mis_violation_window=churn_rt.violation_window,
            time_to_restabilize=churn_rt.time_to_restabilize(),
            churn_events=churn_rt.events_by_kind(),
        )
    return RunResult(
        graph=graph,
        protocol_name=protocol.name,
        model_name=model.name,
        seed=seed,
        rounds=rounds,
        node_stats=stats,
        node_info=tuple(runner.ctx.info for runner in runners),
        telemetry=run_telemetry,
        **churn_kwargs,
    )
