"""Off-calendar transmit schedules against the oracle.

In an untraced, fault-free run a channel-0
:class:`~repro.radio.actions.TransmitSchedule` whose last transmit lies
before ``max_rounds`` enters every transmit but its last in a per-run
index keyed by round, instead of the round calendar.  A processed round
adds its indexed transmitters to the round's tally, and a round enters
the calendar for them only when an off-calendar listen window covers it.
Every test here runs the untraced engine (the index), the traced engine
(the per-round re-park) and the oracle, and asserts equal results and
equal resume, window-round and scheduled-round counts, in the cases the
index has to get right: a window that registers before or after a
neighbour's schedule, collisions of indexed transmits, an on-calendar
listener, sender-side detection, a nonzero channel and the watchdog.
The last test checks that a run leaves no reference cycle behind.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import ConstantsProfile
from repro.core import NoCDEnergyMISProtocol
from repro.errors import ProtocolError, SimulationError
from repro.faults import CrashEvent, FaultPlan
from repro.graphs import complete_graph, gnp_random_graph, path_graph
from repro.radio import (
    BEEPING,
    BEEPING_SENDER_CD,
    CD,
    NO_CD,
    Listen,
    ListenFor,
    Protocol,
    Sleep,
    SleepUntil,
    Transmit,
    TransmitSchedule,
    run_protocol,
)
from repro.radio._engine_reference import run_protocol_reference
from repro.radio.models import MultichannelModel
from repro.radio.trace import TraceRecorder

PATH = path_graph(3)  # 0 - 1 - 2


class Scripted(Protocol):
    """Node ``v`` yields the actions of ``scripts[v]`` in turn and logs,
    for each, the round it is resumed at and what it is resumed with."""

    name = "scripted"
    compatible_models = ("cd", "no-cd", "beep", "beep-sender-cd")

    def __init__(self, scripts):
        self.scripts = scripts

    def run(self, ctx):
        log = ctx.info["log"] = []
        for action in self.scripts.get(ctx.node, ()):
            observation = yield action
            if not isinstance(action, (Sleep, SleepUntil)):
                log.append((ctx.now, str(observation)))


def assert_paths_agree(graph, protocol, model, seed=0, **kwargs):
    """Untraced engine, traced engine and oracle: equal results, and
    equal resume, window-round and scheduled-round counts."""
    reference = run_protocol_reference(graph, protocol, model, seed=seed, **kwargs)
    untraced = run_protocol(graph, protocol, model, seed=seed, telemetry=True, **kwargs)
    traced = run_protocol(
        graph, protocol, model, seed=seed, telemetry=True, trace=TraceRecorder(),
        **kwargs,
    )
    assert untraced == reference
    assert traced == reference
    for counter in ("resumes", "window_rounds", "schedule_rounds"):
        assert getattr(untraced.telemetry, counter) == getattr(
            traced.telemetry, counter
        ), counter
    return untraced, traced


def log(result, node):
    return result.node_info[node]["log"]


class TestWindowsOverSchedules:
    def test_a_window_that_opens_after_the_schedule_registered(self):
        # Node 0 transmits at rounds 1, 5, 9 and 13; node 1 opens its
        # window in round 3, mid-schedule, and hears the transmit of
        # round 5, which only the index holds.
        protocol = Scripted({
            0: [TransmitSchedule((1, 3, 3, 3, 0), "a")],
            1: [SleepUntil(2), Listen(), ListenFor(20)],
        })
        untraced, traced = assert_paths_agree(PATH, protocol, NO_CD)
        assert log(untraced, 1) == [(3, "silence"), (6, "message('a')")]
        assert untraced.node_stats[0].transmit_rounds == 4
        assert untraced.telemetry.schedule_rounds == 3
        assert untraced.telemetry.rounds_processed < traced.telemetry.rounds_processed

    def test_a_window_that_was_already_waiting(self):
        # Node 1 waits from round 0; node 0 registers its schedule in
        # round 1 (transmits at 3, 7 and 8) and is heard at round 3.
        protocol = Scripted({
            0: [Listen(), TransmitSchedule((2, 3, 0, 0), "b")],
            1: [ListenFor(30)],
        })
        untraced, _ = assert_paths_agree(PATH, protocol, NO_CD)
        assert log(untraced, 1) == [(4, "message('b')")]
        assert log(untraced, 0) == [(1, "silence"), (9, "None")]

    def test_a_window_that_ends_before_the_schedule_reaches_it(self):
        # Node 0 transmits at 6, 8 and 9; node 1's first window ends at
        # round 4, its second hears round 6.
        protocol = Scripted({
            0: [TransmitSchedule((6, 1, 0, 0), "c")],
            1: [ListenFor(5), ListenFor(5)],
        })
        untraced, _ = assert_paths_agree(PATH, protocol, NO_CD)
        assert log(untraced, 1) == [(5, "silence"), (7, "message('c')")]


class TestWhichSchedulesAreIndexed:
    @pytest.mark.parametrize(
        "gaps, processed",
        [((1, 1, 0, 0), 1), ((1, 0, 0, 0), 3), ((1, 0), 1)],
        ids=["gapped", "burst", "single-transmit"],
    )
    def test_only_a_gapped_schedule_leaves_the_calendar(self, gaps, processed):
        # Alone, an indexed schedule is processed only at its parked last
        # transmit; a burst (transmits in consecutive rounds) re-parks
        # each transmit, so each of its rounds is processed.
        protocol = Scripted({0: [TransmitSchedule(gaps)]})
        untraced, traced = assert_paths_agree(PATH, protocol, NO_CD)
        assert untraced.telemetry.rounds_processed == processed
        assert traced.telemetry.rounds_processed == len(gaps) - 1
        assert untraced.telemetry.schedule_rounds == len(gaps) - 2

    @pytest.mark.parametrize("model", [NO_CD, CD], ids=["no-cd", "cd"])
    def test_a_burst_beside_a_gapped_schedule(self, model):
        # Node 0 bursts at 2, 3 and 4; node 2's gapped schedule transmits
        # at 2, 4 and 7; node 1 waits from round 0.
        protocol = Scripted({
            0: [TransmitSchedule((2, 0, 0, 0), "burst")],
            1: [ListenFor(20), ListenFor(20)],
            2: [TransmitSchedule((2, 1, 2, 0), "gapped")],
        })
        untraced, _ = assert_paths_agree(PATH, protocol, model)
        expected = {
            NO_CD: [(4, "message('burst')"), (8, "message('gapped')")],
            CD: [(3, "collision"), (4, "message('burst')")],
        }[model]
        assert log(untraced, 1) == expected


class TestCollidingSchedules:
    # Node 0 transmits at rounds 2, 4, 6 and 8, node 2 at 2, 4 and 10;
    # every transmit but the last of each is indexed.
    SCRIPTS = {
        0: [TransmitSchedule((2, 1, 1, 1, 5), "left")],
        1: [ListenFor(40)],
        2: [TransmitSchedule((2, 1, 5, 0), "right")],
    }

    def test_no_cd_collisions_then_a_lone_transmit_is_heard(self):
        untraced, _ = assert_paths_agree(PATH, Scripted(self.SCRIPTS), NO_CD)
        # Rounds 2 and 4 collide (silence under no-CD); round 6 is node
        # 0's indexed transmit alone.
        assert log(untraced, 1) == [(7, "message('left')")]
        assert untraced.node_stats[1].listen_rounds == 7

    @pytest.mark.parametrize(
        "model, heard",
        [(CD, "collision"), (BEEPING, "beep"), (BEEPING_SENDER_CD, "beep")],
        ids=["cd", "beeping", "beeping-sender-cd"],
    )
    def test_the_collision_is_heard_where_collisions_are(self, model, heard):
        untraced, _ = assert_paths_agree(PATH, Scripted(self.SCRIPTS), model)
        assert log(untraced, 1) == [(3, heard)]

    def test_a_later_schedule_turns_a_lone_transmit_into_a_collision(self):
        # Node 1 waits from round 0; node 0's schedule (rounds 3, 5, 7)
        # opens rounds 3 and 5 for it; node 2 registers in round 1 a
        # schedule that also transmits at 3 and 5, so both collide and
        # node 1 first hears node 0's last transmit, at round 7.
        protocol = Scripted({
            0: [TransmitSchedule((3, 1, 1, 0), "left")],
            1: [ListenFor(40)],
            2: [Listen(), TransmitSchedule((2, 1, 0), "right")],
        })
        untraced, _ = assert_paths_agree(PATH, protocol, NO_CD)
        assert log(untraced, 1) == [(8, "message('left')")]


class TestOnCalendarPerceivers:
    def test_a_single_listen_receives_an_indexed_payload(self):
        # Node 0 transmits at 1, 4 and 7; node 1 listens every round.
        protocol = Scripted({
            0: [TransmitSchedule((1, 2, 2, 0), {"id": 0})],
            1: [Listen()] * 9,
        })
        untraced, _ = assert_paths_agree(PATH, protocol, NO_CD)
        heard = [when - 1 for when, obs in log(untraced, 1) if obs != "silence"]
        assert heard == [1, 4, 7]
        assert log(untraced, 1)[1] == (2, "message({'id': 0})")

    def test_sender_side_detection_hears_an_indexed_neighbour(self):
        # On K_4 node 1 transmits at 1, 3 and 5; node 2 transmits once at
        # round 3 and detects node 1; node 3 waits and hears round 1.
        protocol = Scripted({
            1: [TransmitSchedule((1, 1, 1, 0))],
            2: [SleepUntil(3), Transmit()],
            3: [ListenFor(10)],
        })
        untraced, _ = assert_paths_agree(complete_graph(4), protocol, BEEPING_SENDER_CD)
        assert log(untraced, 2) == [(4, "beep")]
        assert log(untraced, 3) == [(2, "beep")]

    def test_a_nonzero_channel_schedule_keeps_the_per_round_path(self):
        # Node 0 transmits on channel 1 at 1, 3 and 5 (re-parked every
        # transmit), node 2 on channel 0 at 1, 3, 6 and 8 (indexed); node
        # 1 listens twice on channel 1, then waits on channel 0 from 2.
        model = MultichannelModel(CD, 2)
        protocol = Scripted({
            0: [TransmitSchedule((1, 1, 1, 0), "ch1", channel=1)],
            1: [Listen(1), Listen(1), ListenFor(20)],
            2: [TransmitSchedule((1, 1, 2, 1, 0), "ch0")],
        })
        untraced, _ = assert_paths_agree(PATH, model=model, protocol=protocol)
        assert log(untraced, 1) == [
            (1, "silence"), (2, "message('ch1')"), (4, "message('ch0')")
        ]
        assert untraced.telemetry.schedule_rounds == 2 + 3


class TestWatchdog:
    """A schedule whose transmits cross ``max_rounds`` raises at the
    same round on both engines, traced or not."""

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize(
        "engine", [run_protocol, run_protocol_reference], ids=["engine", "oracle"]
    )
    def test_a_schedule_crossing_max_rounds_raises_at_it(self, traced, engine):
        # Transmits at rounds 10, 21, 32 and 43.
        protocol = Scripted({0: [TransmitSchedule((10, 10, 10, 10, 0))]})
        trace = TraceRecorder() if traced else None
        with pytest.raises(SimulationError, match=r"next event at round 43\b"):
            engine(PATH, protocol, NO_CD, max_rounds=40, trace=trace)

    def test_a_schedule_ending_before_max_rounds_completes(self):
        # Transmits at 9, 19, 29 and 39; the trailing gap crosses 40.
        protocol = Scripted({
            0: [TransmitSchedule((9, 9, 9, 9, 5))],
            1: [ListenFor(35)],
        })
        untraced, _ = assert_paths_agree(PATH, protocol, NO_CD, max_rounds=40)
        assert log(untraced, 0) == [(45, "None")]
        assert log(untraced, 1) == [(10, "message(1)")]


class RandomScript(Protocol):
    """Each node draws a random script from its own stream: listens,
    windows, transmits, sleeps and transmit schedules, and logs what
    each listen and window hears."""

    name = "random-schedules"
    compatible_models = ("cd", "no-cd", "beep", "beep-sender-cd")

    def __init__(self, steps):
        self.steps = steps

    def run(self, ctx):
        log = ctx.info["log"] = []
        rng = ctx.rng
        for _ in range(self.steps):
            choice = rng.random()
            if choice < 0.1:
                log.append(str((yield Listen())))
            elif choice < 0.35:
                log.append((str((yield ListenFor(rng.randrange(1, 12)))), ctx.now))
            elif choice < 0.45:
                yield Transmit(ctx.node)
            elif choice < 0.55:
                yield Sleep(rng.randrange(1, 8))
            else:
                gaps = tuple(rng.randrange(0, 5) for _ in range(rng.randrange(2, 8)))
                yield TransmitSchedule(gaps, ctx.node)
                log.append(ctx.now)


@settings(max_examples=40, deadline=None)
@given(
    graph_seed=st.integers(0, 2**16),
    run_seed=st.integers(0, 2**16),
    n=st.integers(2, 14),
    p=st.sampled_from([0.2, 0.5, 0.9]),
    model=st.sampled_from([NO_CD, CD, BEEPING, BEEPING_SENDER_CD]),
)
def test_random_schedules_and_windows(graph_seed, run_seed, n, p, model):
    graph = gnp_random_graph(n, p, seed=graph_seed)
    assert_paths_agree(graph, RandomScript(14), model, seed=run_seed)


def test_nocd_energy_mis_takes_schedules_off_the_calendar():
    graph = gnp_random_graph(40, 0.15, seed=3)
    protocol = NoCDEnergyMISProtocol(constants=ConstantsProfile.fast())
    untraced, traced = assert_paths_agree(graph, protocol, NO_CD, seed=1)
    assert untraced.telemetry.schedule_rounds > 0
    assert untraced.telemetry.rounds_processed < traced.telemetry.rounds_processed


class Unsupported(Protocol):
    name = "unsupported"
    compatible_models = ("no-cd",)

    def run(self, ctx):
        yield TransmitSchedule((1, 0, 0))
        yield "not an action"


class TestNoReferenceCycle:
    """A run leaves nothing for the cyclic GC, whether it returns or
    raises: the engine's closures must not keep its state alive."""

    GRAPH = gnp_random_graph(40, 0.15, seed=3)
    PROTOCOL = NoCDEnergyMISProtocol(constants=ConstantsProfile.fast())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"telemetry": True},
            {"trace": TraceRecorder()},
            {"faults": FaultPlan(seed=1, drop_p=0.2)},
            {"faults": FaultPlan(crashes=((3, (CrashEvent(40, recovery_delay=5),)),))},
        ],
        ids=["untraced", "telemetry", "traced", "drops", "crash-recovery"],
    )
    def test_a_returning_run(self, kwargs):
        gc.collect()
        run_protocol(self.GRAPH, self.PROTOCOL, NO_CD, seed=1, **kwargs)
        assert gc.collect() == 0

    def test_a_run_past_max_rounds(self):
        gc.collect()
        try:
            run_protocol(self.GRAPH, self.PROTOCOL, NO_CD, seed=1, max_rounds=300)
        except SimulationError:
            pass
        else:  # pragma: no cover - the budget is far too small
            pytest.fail("expected SimulationError")
        assert gc.collect() == 0

    def test_a_protocol_error(self):
        gc.collect()
        try:
            run_protocol(self.GRAPH, Unsupported(), NO_CD)
        except ProtocolError:
            pass
        else:  # pragma: no cover
            pytest.fail("expected ProtocolError")
        assert gc.collect() == 0
