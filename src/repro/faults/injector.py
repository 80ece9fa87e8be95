"""Compilation of a :class:`FaultPlan` against one concrete run.

The engines know nothing about plan structure: they call
:func:`compile_fault_plan` once per run and receive a
:class:`CompiledFaultPlan` with exactly three hooks —

* ``channel(round, node, observation, channel=0)`` — the
  collision-resolution hook, applied to every perceived observation
  (``None`` when the plan has no channel faults, so fault-free runs
  never pay a call); the trailing argument is the perceiver's radio
  channel, passed by the engines on multichannel rounds so per-channel
  jam windows can filter on it;
* ``crashes`` — merged ``node -> [(round, recovery_delay), ...]``
  timeline of the plan's crash events (``None`` when empty);
* ``wake`` — the effective wake schedule: plan-generated skew offsets
  overridden by any explicit ``wake_schedule`` entries (``None`` when
  both are absent);
* ``churn`` — a per-run :class:`~repro.faults.churn.ChurnRuntime` when
  the plan schedules topology events (``None`` otherwise).  Leaves are
  merged into the crash timeline as crash-stops (the leaver must stop
  executing) and joins into the wake schedule (the joiner starts at its
  join round); the runtime itself handles the adjacency mutations and
  MIS repair.

Both engines compile the same plan to the same hooks, which is what the
golden bit-identity suite leans on for faulty runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from ..obs.registry import get_registry
from .churn import ChurnRuntime
from .plan import DROP_SALT, JAM_SALT, FaultPlan, fault_roll

__all__ = [
    "CompiledFaultPlan",
    "compile_fault_plan",
    "restart_rng",
]


def restart_rng(seed: int, node: int, incarnation: int) -> random.Random:
    """Fresh RNG stream for a recovered node's ``incarnation``-th restart.

    Extends the engines' per-node seeding mix with an incarnation term,
    so a restarted node draws coins independent of its pre-crash self
    (and of every other node) while staying fully seed-deterministic.
    """
    return random.Random(
        (seed * 0x9E3779B9 + node * 0x85EBCA6B + incarnation * 0xC2B2AE35)
        & 0xFFFFFFFF
    )


@dataclass
class CompiledFaultPlan:
    """A plan materialized against one (model, graph size, wake schedule)."""

    channel: Optional[Callable[..., object]]
    crashes: Optional[Dict[int, List[Tuple[int, Optional[int]]]]]
    wake: Optional[Dict[int, int]]
    churn: Optional[ChurnRuntime] = None


def _make_channel(plan: FaultPlan, model) -> Callable[..., object]:
    """Build the per-observation perturbation closure.

    Jamming wins over message loss: a jammed round reads the model's
    "many transmitters" outcome regardless of actual traffic (silence
    under no-CD, collision under CD, beep under beeping).  Message loss
    only erases observations that heard something — silence cannot be
    dropped into anything quieter.

    ``channel`` is the perceiver's tuned frequency (0 for every
    single-channel run, which is why it defaults): a jam window with a
    ``channel`` of its own only fires on matching perceivers, while
    all-channel windows (``channel=None``) and message loss ignore it.
    The probability roll is a pure function of ``(round, node)`` either
    way, so channel filtering never shifts any other draw.  Applied
    jams tick ``faults.jam.applied.<channel>`` counters when telemetry
    records, so `obs summarize` can break jamming down per channel.
    """
    seed = plan.seed
    drop_p = plan.drop_p
    jams = tuple(
        (
            window.start,
            window.stop,
            window.probability,
            window.nodes,
            window.channel,
        )
        for window in plan.jams
    )
    obs_zero = model.observation_zero
    obs_many = model.observation_many
    registry = get_registry()
    count_jams = registry.enabled and bool(jams)

    def perturb(round_: int, node: int, observation, channel: int = 0):
        for start, stop, probability, nodes, jam_channel in jams:
            if (
                start <= round_ < stop
                and (nodes is None or node in nodes)
                and (jam_channel is None or jam_channel == channel)
            ):
                if probability >= 1.0 or fault_roll(
                    seed, round_, node, JAM_SALT
                ) < probability:
                    if count_jams:
                        registry.counter(
                            f"faults.jam.applied.{channel}"
                        ).inc()
                    return obs_many
        if drop_p and observation is not obs_zero:
            if drop_p >= 1.0 or fault_roll(
                seed, round_, node, DROP_SALT
            ) < drop_p:
                return obs_zero
        return observation

    return perturb


def compile_fault_plan(
    plan: FaultPlan,
    model,
    num_nodes: int,
    wake_schedule: Optional[Mapping[int, int]] = None,
    graph=None,
) -> CompiledFaultPlan:
    """Materialize ``plan`` for one run, merging the wake schedule.

    Explicit ``wake_schedule`` entries override the plan's generated
    skew offsets node by node.  When the plan schedules churn,
    ``graph`` (the run's base topology) is required to materialize the
    event sequence; leaves join the crash timeline as crash-stops and
    joins enter the wake schedule at their join round.
    """
    channel = _make_channel(plan, model) if plan.has_channel_faults else None

    churn = None
    if plan.has_churn:
        if graph is None:
            raise ConfigurationError(
                "fault plans with churn need the run's graph to compile"
            )
        churn = ChurnRuntime(plan.churn, plan.seed, graph)

    crashes = plan.crash_events_for(num_nodes)
    if churn is not None:
        for node, leave_round in churn.leave_crashes:
            crashes.setdefault(node, []).append((leave_round, None))
    for events in crashes.values():
        events.sort(key=lambda event: event[0])
    if not crashes:
        crashes = None

    wake = plan.wake_schedule_for(num_nodes)
    if wake_schedule:
        if wake is None:
            wake = dict(wake_schedule)
        else:
            wake.update(wake_schedule)
    if churn is not None and churn.join_wake:
        if wake is None:
            wake = dict(churn.join_wake)
        else:
            wake.update(churn.join_wake)
    if not wake:
        wake = None

    return CompiledFaultPlan(
        channel=channel, crashes=crashes, wake=wake, churn=churn
    )
