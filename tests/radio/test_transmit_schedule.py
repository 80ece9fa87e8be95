"""Transmit schedules (``TransmitSchedule``) against the oracle.

A :class:`~repro.radio.actions.TransmitSchedule` sleeps and transmits
by a list of gaps fixed in advance, and resumes the node once after its
last gap.  The engine re-parks each next transmit without resuming the
node; the oracle expands the schedule into sleeps and single transmits.
Every test here runs both and asserts bit-identical results and traces,
in the cases that cut a schedule or perturb its rounds: a crash, a
recovery, fault noise, a nonzero channel, sender-side detection and a
churn joiner.  A metamorphic test checks that a schedule is the same
run as its sleeps and transmits yielded one by one, and a wrapper
around every node's coroutine checks ``EngineTelemetry.resumes``.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import ConstantsProfile
from repro.core import NoCDEnergyMISProtocol
from repro.errors import ProtocolError
from repro.faults import CrashEvent, FaultPlan, JamWindow
from repro.faults.churn import ChurnPlan
from repro.graphs import complete_graph, gnp_random_graph, star_graph
from repro.obs.registry import Registry
from repro.obs.export import summary_record
from repro.obs.summary import summarize_records
from repro.radio import (
    BEEPING_SENDER_CD,
    CD,
    NO_CD,
    Listen,
    Protocol,
    Sleep,
    Transmit,
    TransmitSchedule,
    run_protocol,
)
from repro.radio._engine_reference import run_protocol_reference
from repro.radio.models import MultichannelModel
from repro.radio.trace import TraceRecorder

from .test_listen_windows import CountingProtocol, assert_engines_agree

FAST = ConstantsProfile.fast()
STAR = star_graph(6)  # hub 0, leaves 1..5


class LeavesSchedule(Protocol):
    """Each leaf ``v`` runs ``TransmitSchedule(gaps[v], v, channel)``
    and logs the round it is resumed at and what it is resumed with;
    with ``again`` it then transmits once more.  With
    ``single_after_restart`` a restarted leaf transmits ``len(gaps[v])``
    single times instead.  The hub listens on ``listen_channel`` every
    round until ``horizon`` and logs what it hears."""

    name = "leaves-schedule"
    compatible_models = ("cd", "no-cd", "beep", "beep-sender-cd")

    def __init__(
        self, gaps, horizon, channel=0, listen_channel=0, again=False,
        single_after_restart=False,
    ):
        self.single_after_restart = single_after_restart
        self.gaps = gaps
        self.horizon = horizon
        self.channel = channel
        self.listen_channel = listen_channel
        self.again = again

    def run(self, ctx):
        if ctx.node == 0:
            heard = ctx.info["heard"] = []
            while ctx.now < self.horizon:
                observation = yield Listen(self.listen_channel)
                if observation.heard_something:
                    heard.append((ctx.now - 1, str(observation)))
            return
        gaps = self.gaps.get(ctx.node)
        if gaps is None:
            return
        if self.single_after_restart and ctx.restart_round is not None:
            for _ in gaps:
                yield Transmit(ctx.node, self.channel)
            return
        resumed = yield TransmitSchedule(gaps, ctx.node, self.channel)
        ctx.info["resumed"] = (ctx.now, resumed)
        if self.again:
            yield Transmit(ctx.node, self.channel)


# Leaf 1 transmits at rounds 2, 5 and 6; leaf 2 at 0 and 9.  They never
# share a round, so the hub hears every transmission.
GAPS = {1: (2, 2, 0, 3), 2: (0, 8, 1)}


class TestSchedulesAgainstOracle:
    def test_one_resume_after_the_trailing_gap(self):
        result = assert_engines_agree(STAR, LeavesSchedule(GAPS, 12), NO_CD)
        assert result.node_info[1]["resumed"] == (10, None)
        assert result.node_info[2]["resumed"] == (11, None)
        assert result.node_info[0]["heard"] == [
            (0, "message(2)"), (2, "message(1)"), (5, "message(1)"),
            (6, "message(1)"), (9, "message(2)"),
        ]
        assert result.node_stats[1].transmit_rounds == 3
        assert result.node_stats[1].finish_round == 10
        # Leaf 1 re-parked two transmits, leaf 2 one.
        assert result.telemetry.schedule_rounds == 3

    def test_crash_stop_cuts_a_schedule(self):
        plan = FaultPlan(crashes=((1, (CrashEvent(4),)),))
        result = assert_engines_agree(
            STAR, LeavesSchedule(GAPS, 12), NO_CD, faults=plan
        )
        stats = result.node_stats[1]
        assert stats.crashed and stats.finish_round == 4
        assert stats.transmit_rounds == 1
        assert "resumed" not in result.node_info[1]

    def test_crash_recovery_cuts_a_schedule_and_restarts_one(self):
        plan = FaultPlan(crashes=((1, (CrashEvent(4, recovery_delay=3),)),))
        result = assert_engines_agree(
            STAR, LeavesSchedule(GAPS, 24, again=True), NO_CD, faults=plan
        )
        stats = result.node_stats[1]
        assert stats.restarts == 1 and stats.last_restart_round == 7
        # One transmit before the crash, then the whole schedule again
        # from round 7 and one more single transmit.
        assert stats.transmit_rounds == 1 + 3 + 1
        assert result.node_info[1]["resumed"] == (17, None)
        # Round 9 collides with leaf 2's second transmit, and round 11 is
        # leaf 2's transmit after its schedule.
        assert [when for when, _ in result.node_info[0]["heard"]] == [
            0, 2, 11, 12, 13, 17
        ]

    def test_restart_in_a_schedule_leaves_no_schedule_behind(self):
        # The crash cuts a schedule with gaps left; the new incarnation's
        # single transmits must each resume it, one round after another.
        plan = FaultPlan(crashes=((1, (CrashEvent(4, recovery_delay=3),)),))
        result = assert_engines_agree(
            STAR, LeavesSchedule(GAPS, 24, single_after_restart=True), NO_CD,
            faults=plan,
        )
        assert result.node_stats[1].transmit_rounds == 1 + 4
        assert result.node_stats[1].finish_round == 11
        # Round 9 collides with leaf 2's second transmit.
        assert [when for when, _ in result.node_info[0]["heard"]] == [
            0, 2, 7, 8, 10
        ]

    @pytest.mark.parametrize("model", [NO_CD, CD], ids=["no-cd", "cd"])
    def test_loss_and_jamming(self, model):
        plan = FaultPlan(
            seed=5, drop_p=0.5, jams=(JamWindow(4, 8, probability=0.7),)
        )
        # Leaf v transmits at rounds 2v - 2, 4v - 2, ..., 12v - 2.
        gaps = {v: (2 * v - 2,) + (2 * v - 1,) * 5 + (0,) for v in range(1, 6)}
        protocol = LeavesSchedule(gaps, 60)
        result = assert_engines_agree(STAR, protocol, model, faults=plan)
        assert all(result.node_stats[v].transmit_rounds == 6 for v in range(1, 6))
        assert all(result.node_info[v]["resumed"][1] is None for v in range(1, 6))
        # The noise changed what the hub heard.
        clean = run_protocol(STAR, protocol, model)
        assert result.node_info[0]["heard"] != clean.node_info[0]["heard"]

    def test_schedule_on_a_nonzero_channel(self):
        model = MultichannelModel(CD, 4)
        on_two = assert_engines_agree(
            STAR, LeavesSchedule(GAPS, 12, channel=2, listen_channel=2), model
        )
        assert [when for when, _ in on_two.node_info[0]["heard"]] == [0, 2, 5, 6, 9]
        elsewhere = assert_engines_agree(
            STAR, LeavesSchedule(GAPS, 12, channel=2, listen_channel=1), model
        )
        assert elsewhere.node_info[0]["heard"] == []

    def test_sender_side_detection_still_resumes_with_none(self):
        # On a clique nodes 1 and 2 both transmit at round 2; under
        # sender-side detection each detects the other, but a schedule
        # resumes only once, with None.
        gaps = {1: (2, 2, 0), 2: (2, 0, 1), 3: (1, 0)}
        result = assert_engines_agree(
            complete_graph(4), LeavesSchedule(gaps, 8), BEEPING_SENDER_CD
        )
        assert [result.node_info[v]["resumed"] for v in (1, 2, 3)] == [
            (6, None), (5, None), (2, None)
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_churn_joiner_running_nocd_energy_mis(self, seed):
        graph = gnp_random_graph(20, 0.2, seed=seed)
        plan = FaultPlan(
            seed=seed,
            churn=ChurnPlan(edge_p=0.05, start=5, stop=60, joins=((20, 2),)),
        )
        protocol = CountingProtocol(NoCDEnergyMISProtocol(constants=FAST))
        result = assert_engines_agree(graph, protocol, NO_CD, seed=seed, faults=plan)
        assert ("join", 2) in result.churn_events
        assert result.telemetry.schedule_rounds > 0
        assert all(result.node_stats[v].transmit_rounds > 0 for v in (20, 21))


class TestTransmitScheduleValidation:
    @pytest.mark.parametrize(
        "gaps", [(0,), (1, -1), (True, 0), [0, 0], (0, 2.0), (), 3],
        ids=repr,
    )
    def test_gaps_must_be_a_tuple_of_at_least_two_ints(self, gaps):
        with pytest.raises(ProtocolError, match="TransmitSchedule"):
            TransmitSchedule(gaps)

    def test_zero_gaps_are_back_to_back_transmits(self):
        assert TransmitSchedule((0, 0, 0)).gaps == (0, 0, 0)


class RandomScript(Protocol):
    """Each node draws a random script from its own stream: listens,
    transmits, sleeps and transmit schedules.  With ``expand`` every
    schedule becomes its sleeps and single ``Transmit``s; the two must
    be indistinguishable to every observer."""

    name = "random-script"
    compatible_models = ("cd", "no-cd", "beep", "beep-sender-cd")

    def __init__(self, steps, expand):
        self.steps = steps
        self.expand = expand

    def run(self, ctx):
        log = ctx.info["log"] = []
        rng = ctx.rng
        for _ in range(self.steps):
            choice = rng.random()
            if choice < 0.2:
                log.append(str((yield Listen())))
            elif choice < 0.35:
                yield Transmit(ctx.node)
            elif choice < 0.5:
                yield Sleep(rng.randrange(1, 6))
            else:
                gaps = tuple(rng.randrange(0, 5) for _ in range(rng.randrange(2, 7)))
                if self.expand:
                    for gap in gaps[:-1]:
                        if gap:
                            yield Sleep(gap)
                        yield Transmit(ctx.node)
                    if gaps[-1]:
                        yield Sleep(gaps[-1])
                else:
                    yield TransmitSchedule(gaps, ctx.node)
                log.append(ctx.now)


@settings(max_examples=25, deadline=None)
@given(
    graph_seed=st.integers(0, 2**16),
    run_seed=st.integers(0, 2**16),
    n=st.integers(2, 14),
    p=st.sampled_from([0.2, 0.5, 0.9]),
    model=st.sampled_from([NO_CD, CD, BEEPING_SENDER_CD]),
    drop_p=st.sampled_from([0.0, 0.3]),
    crash=st.one_of(
        st.none(),
        st.tuples(st.integers(0, 30), st.one_of(st.none(), st.integers(1, 8))),
    ),
)
def test_schedule_equals_its_sleeps_and_transmits(
    graph_seed, run_seed, n, p, model, drop_p, crash
):
    graph = gnp_random_graph(n, p, seed=graph_seed)
    crashes = ()
    if crash is not None:
        crashes = ((n - 1, (CrashEvent(crash[0], recovery_delay=crash[1]),)),)
    plan = FaultPlan(seed=run_seed, drop_p=drop_p, crashes=crashes)
    runs = []
    for expand in (False, True):
        for engine in (run_protocol, run_protocol_reference):
            trace = TraceRecorder()
            result = engine(
                graph, RandomScript(12, expand), model,
                seed=run_seed, trace=trace, faults=plan,
            )
            runs.append((result, trace.events))
    assert all(run == runs[0] for run in runs[1:])


class TestScheduleTelemetry:
    @pytest.mark.parametrize(
        "faults",
        [
            None,
            FaultPlan(crashes=((1, (CrashEvent(4),)),)),
            FaultPlan(crashes=((1, (CrashEvent(4, recovery_delay=3),)),)),
        ],
        ids=["fault-free", "crash-stop", "crash-recovery"],
    )
    def test_derived_count_matches_a_wrapper(self, faults):
        counting = CountingProtocol(LeavesSchedule(GAPS, 24, again=True))
        result = run_protocol(STAR, counting, NO_CD, telemetry=True, faults=faults)
        assert result.telemetry.resumes == counting.resumes
        assert result.telemetry.schedule_rounds > 0

    def test_scheduled_rounds_reach_the_registry_and_the_summary(self):
        graph = gnp_random_graph(20, 0.3, seed=5)
        result = run_protocol(
            graph, NoCDEnergyMISProtocol(constants=FAST), NO_CD, telemetry=True
        )
        registry = Registry()
        result.telemetry.publish(registry)
        counters = registry.snapshot()["counters"]
        scheduled = result.telemetry.schedule_rounds
        assert scheduled > 0
        assert counters["engine.rounds.scheduled"] == scheduled
        assert result.telemetry.to_record()["schedule_rounds"] == scheduled
        report = summarize_records([summary_record(registry)])
        assert re.search(rf"\n  scheduled transmit rounds +{scheduled} ", report)
