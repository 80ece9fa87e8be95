"""The seed round engine, kept as an independent golden oracle.

:func:`repro.radio.engine.run_protocol` resolves collisions with a
per-round tally, a bucketed round calendar and type-tag action
dispatch.  Its contract is **bit-identical output**: every
:class:`~repro.radio.metrics.RunResult` and every trace event must match
what this straightforward per-listener set-intersection engine
produces.  The golden-equivalence tests in
``tests/radio/test_engine_golden.py`` compare the two on every
protocol x model x seed combination without trusting checked-in
fixtures.

Its value is that it is written differently from the optimized engine:
a (round, tick) heap, explicit per-listener neighbor scans, no fast
paths.  Keep it that way — do not optimize it or share round-loop code
with the optimized engine.  Features the optimized engine gains (fault
plans, churn, the multichannel dimension) are added here in this plain
style; a bug merged into both engines the same way is the one thing the
golden tests cannot catch.  It is not part of the public API and is
exercised only by tests and by ``benchmarks/bench_perf_engine.py``.
"""


from __future__ import annotations

import heapq
import random
from typing import Any, Dict, List, Optional, Tuple

from ..errors import MessageSizeError, ProtocolError, SimulationError
from ..faults.injector import compile_fault_plan, restart_rng
from ..faults.plan import FaultPlan
from ..graphs.graph import Graph
from .actions import Action, Listen, Sleep, SleepUntil, Transmit
from .metrics import NodeStats, RunResult
from .models import CollisionModel
from .node import NodeContext, Protocol
from .trace import NullTrace, TraceEvent, TraceSink

__all__ = ["run_protocol_reference"]

#: Fallback watchdog when the protocol provides no round bound hint.
DEFAULT_MAX_ROUNDS = 50_000_000

#: Safety slack multiplied onto a protocol's own round-budget hint.
_HINT_SLACK = 4

_NULL_TRACE = NullTrace()


def payload_bits(payload: Any) -> int:
    """Approximate size of a payload in bits, for RADIO-CONGEST checks.

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


class _NodeRunner:
    """Bookkeeping for one node's coroutine between engine events."""

    __slots__ = ("node", "generator", "ctx", "transmit_rounds", "listen_rounds",
                 "finish_round", "done", "crashed", "restarts",
                 "last_restart_round")

    def __init__(self, node: int, generator, ctx: NodeContext):
        self.node = node
        self.generator = generator
        self.ctx = ctx
        self.transmit_rounds = 0
        self.listen_rounds = 0
        self.finish_round = -1
        self.done = False
        self.crashed = False
        self.restarts = 0
        self.last_restart_round = -1


def run_protocol_reference(
    graph: Graph,
    protocol: Protocol,
    model: CollisionModel,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    trace: Optional[TraceSink] = None,
    message_bits: Optional[int] = None,
    check_model_compatibility: bool = True,
    wake_schedule: Optional[Dict[int, int]] = None,
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
    message_bits:
        When set, transmissions larger than this many bits raise
        :class:`~repro.errors.MessageSizeError` (RADIO-CONGEST
        enforcement).  The paper's algorithms are unary, so the default
        is no enforcement.
    wake_schedule:
        Optional asynchronous wake-up: ``{node: round}`` — the node
        sleeps until that round before its protocol starts (its local
        clock, ``ctx.now``, starts there too).  The paper assumes
        synchronous wake-up (all zeros); this knob quantifies how much
        that assumption carries (experiment A3).  A round that is not
        a non-negative int raises :class:`~repro.errors.ProtocolError`.
    faults:
        Optional :class:`~repro.faults.FaultPlan` — message loss,
        jamming, crash-stop and crash–recovery, and wake-skew injection,
        identical in semantics to the optimized engine's parameter so
        the golden suite can compare faulty runs too.
    """
    # Multichannel wrappers are judged by their base model's name,
    # matching the optimized engine.
    compat_name = getattr(model, "base", model).name
    if check_model_compatibility and compat_name not in protocol.compatible_models:
        raise SimulationError(
            f"protocol {protocol.name!r} supports models "
            f"{protocol.compatible_models}, not {compat_name!r}"
        )
    auto_max_rounds = max_rounds is None
    if auto_max_rounds:
        hint = protocol.max_rounds_hint(graph.num_nodes, graph.max_degree())
        max_rounds = _HINT_SLACK * hint if hint else DEFAULT_MAX_ROUNDS

    # Fault-plan compilation, identical to the optimized engine's: the
    # channel hook perturbs observations at collision-resolution time,
    # crash_events is the plan's crash timeline, and the plan's wake
    # skew (with explicit overrides) replaces wake_schedule.
    fault_channel = None
    crash_events: Optional[Dict[int, List[Tuple[int, Optional[int]]]]] = None
    churn_rt = None
    if faults is not None and not faults.is_noop:
        compiled = compile_fault_plan(
            faults,
            model,
            graph.num_nodes,
            wake_schedule=wake_schedule,
            graph=graph,
        )
        fault_channel = compiled.channel
        crash_events = compiled.crashes
        wake_schedule = compiled.wake
        churn_rt = compiled.churn

    # Dynamic-topology churn, mirroring the optimized engine exactly:
    # contexts are sized for the final population with the run-wide
    # degree bound, perceivers resolve against the runtime's mutable
    # neighbor sets, and an auto-derived round budget stretches to cover
    # the event horizon plus repair.  Static runs bind the same values
    # the pre-churn code computed.
    ctx_n = graph.num_nodes
    ctx_delta = graph.max_degree()
    boot_nodes = graph.nodes
    neighbor_set_of = graph.neighbor_set
    if churn_rt is not None:
        ctx_n = churn_rt.total_nodes
        ctx_delta = churn_rt.delta_bound
        boot_nodes = range(ctx_n)
        neighbor_set_of = churn_rt.neighbor_sets.__getitem__
        if auto_max_rounds:
            max_rounds = churn_rt.last_event_round + 1 + 4 * max_rounds

    runners: List[_NodeRunner] = []
    # (round, tiebreak, node); tiebreak keeps heap comparisons total.
    ready: List[Tuple[int, int, int]] = []
    tick = 0

    # ------------------------------------------------------------------
    # Boot every node: build its context, pull the first action.
    # ------------------------------------------------------------------
    for node in boot_nodes:
        node_rng = random.Random((seed * 0x9E3779B9 + node * 0x85EBCA6B) & 0xFFFFFFFF)
        ctx = NodeContext(node, node_rng, n=ctx_n, delta=ctx_delta)
        if wake_schedule is not None:
            wake_round = wake_schedule.get(node, 0)
            if not (type(wake_round) is int and wake_round >= 0):
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

    pending_action: Dict[int, Action] = {}

    def advance(runner: _NodeRunner, observation) -> None:
        """Resume a runner and schedule its next awake action.

        ``runner.ctx._now`` must already hold the round at which the next
        action will execute.  Consecutive sleeps collapse without
        touching the heap.
        """
        nonlocal tick
        ctx = runner.ctx
        send_value = observation
        while True:
            try:
                if send_value is _BOOT:
                    action = next(runner.generator)
                else:
                    action = runner.generator.send(send_value)
            except StopIteration:
                runner.done = True
                runner.finish_round = ctx._now
                return
            send_value = None
            if isinstance(action, Sleep):
                ctx._now += action.rounds
                continue
            if isinstance(action, SleepUntil):
                if action.target < ctx._now:
                    raise ProtocolError(
                        f"node {runner.node} requested SleepUntil({action.target}) "
                        f"at round {ctx._now} (target in the past)"
                    )
                ctx._now = action.target
                continue
            if isinstance(action, (Transmit, Listen)):
                if crash_events is not None:
                    events = crash_events.get(runner.node)
                    if events and ctx._now >= events[0][0]:
                        crash_round, recovery_delay = events.pop(0)
                        runner.generator.close()
                        if recovery_delay is None:
                            # Crash-stop: the node never executes this
                            # (or any later) action.
                            runner.done = True
                            runner.crashed = True
                            runner.finish_round = crash_round
                            return
                        # Crash-recovery: restart the protocol from
                        # scratch at crash_round + delay with a fresh
                        # incarnation-salted RNG stream and fresh
                        # decision/info state; the energy ledger carries
                        # over.
                        runner.restarts += 1
                        restart_round = crash_round + recovery_delay
                        runner.last_restart_round = restart_round
                        ledger = ctx.energy_by_component
                        ctx = NodeContext(
                            runner.node,
                            restart_rng(seed, runner.node, runner.restarts),
                            n=ctx_n,
                            delta=ctx_delta,
                        )
                        ctx.energy_by_component = ledger
                        ctx._now = restart_round
                        ctx.restart_round = restart_round
                        runner.ctx = ctx
                        runner.generator = protocol.run(ctx)
                        send_value = _BOOT
                        continue
                if isinstance(action, Transmit) and message_bits is not None:
                    bits = payload_bits(action.payload)
                    if bits > message_bits:
                        raise MessageSizeError(
                            f"node {runner.node} transmitted {bits}-bit payload; "
                            f"RADIO-CONGEST budget is {message_bits} bits"
                        )
                pending_action[runner.node] = action
                tick += 1
                heapq.heappush(ready, (ctx._now, tick, runner.node))
                return
            raise ProtocolError(
                f"node {runner.node} yielded unsupported action {action!r}"
            )

    _BOOT = object()

    def churn_restart(node: int, restart_round: int) -> None:
        """Restart a finished node's protocol for MIS repair, with the
        same reincarnation recipe as the optimized engine (see
        repro.faults.churn)."""
        runner = runners[node]
        runner.restarts += 1
        runner.last_restart_round = restart_round
        runner.done = False
        runner.finish_round = -1
        ledger = runner.ctx.energy_by_component
        ctx = NodeContext(
            node,
            restart_rng(seed, node, runner.restarts),
            n=ctx_n,
            delta=ctx_delta,
        )
        ctx.energy_by_component = ledger
        ctx._now = restart_round
        ctx.restart_round = restart_round
        runner.ctx = ctx
        runner.generator = protocol.run(ctx)
        advance(runner, _BOOT)

    for runner in runners:
        advance(runner, _BOOT)

    # ------------------------------------------------------------------
    # Main loop: process one populated round at a time.
    # ------------------------------------------------------------------
    record_trace = trace is not None and trace.enabled
    sink = trace if trace is not None else _NULL_TRACE

    while True:
        if not ready:
            if churn_rt is None:
                break
            # Post-quiescence churn: remaining events and repair
            # restarts (including the final convergence scan) can
            # repopulate the heap (see ChurnRuntime.drain).
            restarts = churn_rt.drain(runners)
            if not restarts:
                break
            for repair_node, repair_round in restarts:
                churn_restart(repair_node, repair_round)
            continue
        current_round = ready[0][0]
        if churn_rt is not None:
            restarts = churn_rt.on_round(current_round, runners)
            if restarts:
                # Restarts may park actions before the current heap
                # top; re-read the heap before processing.
                for repair_node, repair_round in restarts:
                    churn_restart(repair_node, repair_round)
                continue
        if current_round >= max_rounds:
            awake = sorted({entry[2] for entry in ready})
            raise SimulationError(
                f"run exceeded max_rounds={max_rounds} "
                f"(next event at round {current_round}, awake nodes {awake[:10]}...)"
            )
        # Pop every node awake this round.
        acting: List[int] = []
        while ready and ready[0][0] == current_round:
            _, _, node = heapq.heappop(ready)
            acting.append(node)

        transmitters: Dict[int, Any] = {}
        listeners: List[int] = []
        # Channel of every acting node (multichannel extension; see
        # repro.radio.actions).  All-zero rounds take the historical
        # resolution path untouched, so single-channel runs stay
        # bit-identical to the seed engine's behavior.
        channel_of: Dict[int, int] = {}
        multichannel = False
        for node in acting:
            action = pending_action.pop(node)
            channel_of[node] = channel = action.channel
            if channel:
                multichannel = True
            if isinstance(action, Transmit):
                transmitters[node] = action.payload
            else:
                listeners.append(node)

        # Resolve listens against this round's transmissions.  Under
        # sender-side detection (beeping variant), transmitters perceive
        # their neighbors' transmissions too.
        perceivers = (
            listeners
            if not model.sender_side_detection
            else listeners + list(transmitters)
        )
        observations: Dict[int, Any] = {}
        for node in perceivers:
            neighbor_set = neighbor_set_of(node)
            if len(transmitters) <= len(neighbor_set):
                talking = [t for t in transmitters if t in neighbor_set]
            else:
                talking = [t for t in neighbor_set if t in transmitters]
            if multichannel:
                # Per-channel resolution: only same-channel neighbors
                # reach this perceiver.  The filter preserves order, so
                # the lone-payload pick below is unchanged.
                channel = channel_of[node]
                talking = [t for t in talking if channel_of[t] == channel]
            lone_payload = transmitters[talking[0]] if len(talking) == 1 else None
            observations[node] = model.resolve(len(talking), lone_payload)
            if fault_channel is not None:
                # Collision-resolution hook: the fault channel perturbs
                # what this perceiver reads (jam wins over drop).
                observations[node] = fault_channel(
                    current_round, node, observations[node], channel_of[node]
                )

        # Charge energy, trace, and resume everyone who acted.
        for node in acting:
            runner = runners[node]
            ctx = runner.ctx
            ctx._charge_awake_round()
            if node in transmitters:
                runner.transmit_rounds += 1
                if record_trace:
                    sink.record(
                        TraceEvent(
                            round=current_round,
                            node=node,
                            action="transmit",
                            payload=transmitters[node],
                        )
                    )
                observation = (
                    observations[node] if model.sender_side_detection else None
                )
            else:
                runner.listen_rounds += 1
                observation = observations[node]
                if record_trace:
                    sink.record(
                        TraceEvent(
                            round=current_round,
                            node=node,
                            action="listen",
                            observed=str(observation),
                        )
                    )
            ctx._now = current_round + 1
            advance(runner, observation)

    # ------------------------------------------------------------------
    # Collect results.
    # ------------------------------------------------------------------
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
        **churn_kwargs,
    )
