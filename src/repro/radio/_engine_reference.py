"""A specification oracle for the round engine.

:func:`repro.radio.engine.run_protocol` is optimized: a per-round tally,
a bucketed round calendar and type-tag dispatch.  Its contract is
**bit-identical output**: every :class:`~repro.radio.metrics.RunResult`
and trace event must equal what this oracle produces.  The golden
tests (``tests/radio/test_engine_golden.py`` and the property, channel,
fault and churn suites) compare the two without trusting checked-in
fixtures.

The oracle states the model as directly as it can.  Each round a node
transmits, listens or sleeps; a perceiver's observation is
``model.resolve`` of how many of its neighbours transmit on its own
channel (Section 1.1 of the paper; the multichannel rule of Daum–Kuhn
applies it per channel), passed through the fault plan's channel hook.
Nodes wait in a plain ``(round, tick, node)`` heap, perceivers scan
their neighbours against the round's transmitters, and one
``reincarnate`` routine serves crash recovery and churn repair.  A
``ListenFor`` window is single listens: after a silent round with rounds
left, the node is parked again through the same crash check instead of
being resumed; a listen-through is parked again whatever it heard, and
resumed with ``None`` after its last round.  A ``TransmitSchedule`` is
sleeps and single transmits the same way, and resumes the node once
after its last gap.  It shares no round-loop code with the engine: only
the fault-plan compiler, the churn runtime the compiled plan carries,
and the model, action, context and result types.  Keep it slow and plain; it is not a public API.
"""

from __future__ import annotations

import heapq
import random
from itertools import count
from typing import Dict, Optional

from ..errors import ProtocolError, SimulationError
from ..faults.injector import compile_fault_plan, restart_rng
from ..faults.plan import FaultPlan
from ..graphs.graph import Graph
from .actions import (
    Listen,
    ListenFor,
    Sleep,
    SleepUntil,
    Transmit,
    TransmitSchedule,
)
from .engine import DEFAULT_MAX_ROUNDS
from .metrics import NodeStats, RunResult
from .models import CollisionModel
from .node import NodeContext, Protocol
from .trace import TraceEvent, TraceSink

__all__ = ["run_protocol_reference"]


class _Node:
    """One node: its current incarnation and its awake-round counters."""

    def __init__(self, node: int, ctx: NodeContext, generator):
        self.node, self.ctx, self.generator = node, ctx, generator
        self.transmit_rounds = self.listen_rounds = self.restarts = 0
        self.finish_round = self.last_restart_round = -1
        self.done = self.crashed = False


def run_protocol_reference(
    graph: Graph,
    protocol: Protocol,
    model: CollisionModel,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    trace: Optional[TraceSink] = None,
    wake_schedule: Optional[Dict[int, int]] = None,
    faults: Optional[FaultPlan] = None,
) -> RunResult:
    """Simulate ``protocol`` on ``graph`` under ``model``.

    Takes the same arguments as :func:`repro.radio.engine.run_protocol`
    except ``telemetry``, and must return an equal result.
    """
    # A C-channel lift of a model is compatible wherever its base is.
    model_name = getattr(model, "base", model).name
    if model_name not in protocol.compatible_models:
        raise SimulationError(
            f"protocol {protocol.name!r} supports models "
            f"{protocol.compatible_models}, not {model_name!r}"
        )
    auto_budget = max_rounds is None
    if auto_budget:
        hint = protocol.max_rounds_hint(graph.num_nodes, graph.max_degree())
        max_rounds = 4 * hint if hint else DEFAULT_MAX_ROUNDS
    fault_channel = crashes = churn = None
    if faults is not None and not faults.is_noop:
        plan = compile_fault_plan(
            faults, model, graph.num_nodes, wake_schedule=wake_schedule, graph=graph
        )
        fault_channel, crashes, wake_schedule, churn = (
            plan.channel, plan.crashes, plan.wake, plan.churn
        )
    # Churned runs size contexts for the final population and read the
    # runtime's live neighbour sets; their budget covers the events too.
    n, delta, neighbor_sets = graph.num_nodes, graph.max_degree(), graph.neighbor_sets
    if churn is not None:
        n, delta = churn.total_nodes, churn.delta_bound
        neighbor_sets = churn.neighbor_sets
        if auto_budget:
            max_rounds = churn.last_event_round + 1 + 4 * max_rounds

    nodes = []
    for v in range(n):
        rng = random.Random((seed * 0x9E3779B9 + v * 0x85EBCA6B) & 0xFFFFFFFF)
        ctx = NodeContext(v, rng, n=n, delta=delta)
        if wake_schedule is not None:
            wake = wake_schedule.get(v, 0)
            if type(wake) is not int or wake < 0:
                raise ProtocolError(
                    f"wake round for node {v} must be a non-negative int, got {wake!r}"
                )
            ctx._now = wake
            if churn is not None and v >= churn.base_nodes:
                ctx.restart_round = wake  # a joiner's phases start at its join
        nodes.append(_Node(v, ctx, protocol.run(ctx)))

    heap = []  # (round, tick, node): pop order is round, then parking order
    parked = {}  # node -> the transmit or listen it executes at its heap round
    window = {}  # node -> rounds its ListenFor still listens after this one
    through = set()  # nodes whose ListenFor listens through what it hears
    gaps = {}  # node -> the gaps its TransmitSchedule sleeps after this transmit
    ticks = count()
    channels = getattr(model, "channels", 1)

    def park(v: int, action) -> None:
        """Park ``v``'s transmit or listen at its clock, unless it crashes."""
        node = nodes[v]
        if crashes and crashes.get(v) and node.ctx._now >= crashes[v][0][0]:
            # The node crashes before this action: it stops for good,
            # or restarts from scratch after its recovery delay.
            crash_round, delay = crashes[v].pop(0)
            node.generator.close()
            if delay is None:
                node.done = node.crashed = True
                node.finish_round = crash_round
            else:
                reincarnate(v, crash_round + delay)
            return
        if type(action.channel) is not int or not 0 <= action.channel < channels:
            raise ProtocolError(
                f"node {v} used channel {action.channel!r}, but model "
                f"{model.name!r} has {channels} channel(s), 0..{channels - 1}"
            )
        parked[v] = action
        heapq.heappush(heap, (node.ctx._now, next(ticks), v))

    def step(v: int, observation) -> None:
        """Resume ``v`` with ``observation`` until it parks or stops."""
        node = nodes[v]
        ctx = node.ctx
        while True:
            try:
                action = node.generator.send(observation)
            except StopIteration:
                node.done, node.finish_round = True, ctx._now
                return
            observation = None
            if isinstance(action, Sleep):
                ctx._now += action.rounds
            elif isinstance(action, SleepUntil):
                if action.target < ctx._now:
                    raise ProtocolError(
                        f"node {v} requested SleepUntil({action.target}) "
                        f"at round {ctx._now} (target in the past)"
                    )
                ctx._now = action.target
            elif isinstance(action, (Transmit, Listen, ListenFor)):
                if isinstance(action, ListenFor):
                    window[v] = action.rounds - 1
                    if action.through:
                        through.add(v)
                park(v, action)
                return
            elif isinstance(action, TransmitSchedule):
                ctx._now += action.gaps[0]
                gaps[v] = list(action.gaps[1:])
                park(v, Transmit(action.payload, action.channel))
                return
            else:
                raise ProtocolError(f"node {v} yielded unsupported action {action!r}")

    def reincarnate(v: int, at: int) -> None:
        """Restart ``v``'s protocol at round ``at`` with fresh state.

        The new incarnation draws from an incarnation-salted RNG, sees
        ``ctx.restart_round == at`` and keeps the energy ledger.
        """
        node = nodes[v]
        window.pop(v, None)
        through.discard(v)
        gaps.pop(v, None)
        node.restarts += 1
        node.last_restart_round, node.done, node.finish_round = at, False, -1
        ctx = NodeContext(v, restart_rng(seed, v, node.restarts), n=n, delta=delta)
        ctx.energy_by_component = node.ctx.energy_by_component
        ctx._now = ctx.restart_round = at
        node.ctx, node.generator = ctx, protocol.run(ctx)
        step(v, None)

    for v in range(n):
        step(v, None)

    recording = trace is not None and trace.enabled
    while True:
        if churn is not None:
            # Topology events due by the next round (or, once every node
            # has stopped, the remaining events and the final scan) may
            # restart nodes, which can park actions before the heap top.
            restarts = (
                churn.on_round(heap[0][0], nodes) if heap else churn.drain(nodes)
            )
            for v, at in restarts:
                reincarnate(v, at)
            if restarts:
                continue
        if not heap:
            break
        now = heap[0][0]
        if now >= max_rounds:
            raise SimulationError(
                f"run exceeded max_rounds={max_rounds} (next event at round {now})"
            )
        actions = {}  # this round's actions, in pop order
        while heap and heap[0][0] == now:
            v = heapq.heappop(heap)[2]
            actions[v] = parked.pop(v)
        sent = {v: a for v, a in actions.items() if isinstance(a, Transmit)}
        for v, action in actions.items():
            node = nodes[v]
            observation = None
            if v not in sent or model.sender_side_detection:
                heard = [
                    sent[u]
                    for u in neighbor_sets[v]
                    if u in sent and sent[u].channel == action.channel
                ]
                lone_payload = heard[0].payload if len(heard) == 1 else None
                observation = model.resolve(len(heard), lone_payload)
                if fault_channel is not None:
                    observation = fault_channel(now, v, observation, action.channel)
            node.ctx._charge_awake_round()
            if v in sent:
                node.transmit_rounds += 1
                event = TraceEvent(now, v, "transmit", payload=action.payload)
            else:
                node.listen_rounds += 1
                event = TraceEvent(now, v, "listen", observed=str(observation))
            if recording:
                trace.record(event)
            node.ctx._now = now + 1
            if window.get(v) and (v in through or not observation.heard_something):
                # A ListenFor listens on through silence (a listen-through
                # through anything) without resuming.
                window[v] -= 1
                park(v, action)
            elif v in gaps:
                # A TransmitSchedule sleeps its next gap, then transmits
                # again, or resumes after its last gap.
                node.ctx._now += gaps[v].pop(0)
                if gaps[v]:
                    park(v, action)
                else:
                    del gaps[v]
                    step(v, None)
            else:
                window.pop(v, None)
                if v in through:
                    through.discard(v)
                    observation = None
                step(v, observation)

    # A leaver's crash-stop is how the churn runtime halts it.
    left = churn.left if churn is not None else frozenset()
    churn_fields = {} if churn is None else dict(
        final_graph=churn.final_graph(graph),
        repair_rounds=churn.repair_rounds,
        repair_energy=churn.repair_energy(nodes),
        mis_violation_window=churn.violation_window,
        time_to_restabilize=churn.time_to_restabilize(),
        churn_events=churn.events_by_kind(),
    )
    return RunResult(
        graph=graph,
        protocol_name=protocol.name,
        model_name=model.name,
        seed=seed,
        rounds=max((node.finish_round for node in nodes), default=0),
        node_stats=tuple(
            NodeStats(
                node=node.node,
                transmit_rounds=node.transmit_rounds,
                listen_rounds=node.listen_rounds,
                finish_round=node.finish_round,
                decision=node.ctx.decision,
                energy_by_component=dict(node.ctx.energy_by_component),
                crashed=node.crashed and node.node not in left,
                restarts=node.restarts,
                last_restart_round=node.last_restart_round,
                left=node.node in left,
            )
            for node in nodes
        ),
        node_info=tuple(node.ctx.info for node in nodes),
        **churn_fields,
    )
