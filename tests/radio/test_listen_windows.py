"""Listen windows (``ListenFor``) and the engine's coroutine-resume count.

A :class:`~repro.radio.actions.ListenFor` listens round after round and
resumes the node only when it hears something or the window runs out.
The engine re-parks a silent window round without resuming the node;
the oracle expands the window into single listens.  Every test here
runs both and asserts bit-identical results and traces, in the cases
that cut a window short: a crash, a recovery, fault noise, a nonzero
channel and a churn joiner.  A metamorphic test checks that a window is
the same run as single listens that ignore silence, and a wrapper
around every node's coroutine checks ``EngineTelemetry.resumes``.

Untraced, fault-free runs take the engine's off-calendar path (a window
waits on the round's tally and is charged when it ends); the tests
after ``TestResumeCount`` compare that path with the oracle too, in the
cases that end or skip a waiting window, and check listen-throughs
(``ListenFor(..., through=True)``) and the ``max_rounds`` watchdog.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import ConstantsProfile
from repro.core import CDMISProtocol, LowDegreeMISProtocol, NoCDEnergyMISProtocol
from repro.baselines import NaiveBackoffMISProtocol
from repro.errors import ProtocolError, SimulationError
from repro.faults import CrashEvent, FaultPlan, JamWindow
from repro.faults.churn import ChurnPlan
from repro.graphs import complete_graph, gnp_random_graph, path_graph, star_graph
from repro.obs.registry import Registry
from repro.radio import (
    CD,
    NO_CD,
    Listen,
    ListenFor,
    Protocol,
    Sleep,
    SleepUntil,
    Transmit,
    run_protocol,
)
from repro.radio._engine_reference import run_protocol_reference
from repro.radio.models import MultichannelModel
from repro.radio.trace import TraceRecorder

FAST = ConstantsProfile.fast()


def assert_engines_agree(graph, protocol, model, seed=0, **kwargs):
    """Both engines, traced: equal results and equal traces."""
    ref_trace, opt_trace = TraceRecorder(), TraceRecorder()
    reference = run_protocol_reference(
        graph, protocol, model, seed=seed, trace=ref_trace, **kwargs
    )
    optimized = run_protocol(
        graph, protocol, model, seed=seed, trace=opt_trace, telemetry=True, **kwargs
    )
    assert optimized == reference
    assert opt_trace.events == ref_trace.events
    return optimized


class HubTalks(Protocol):
    """Node 0 transmits at ``talk_rounds`` on ``talk_channel``; every
    other node listens in ``ListenFor(window)`` windows on ``channel``
    until ``horizon`` and logs each resume's round and observation.  With
    ``single_after_restart`` a restarted node, and with
    ``single_after_hearing`` one that heard something, goes on in single
    ``Listen``s."""

    name = "hub-talks"

    def __init__(
        self, talk_rounds, window, horizon, channel=0, talk_channel=0,
        single_after_restart=False, single_after_hearing=False,
    ):
        self.single_after_restart = single_after_restart
        self.single_after_hearing = single_after_hearing
        self.talk_rounds = talk_rounds
        self.window = window
        self.horizon = horizon
        self.channel = channel
        self.talk_channel = talk_channel

    def run(self, ctx):
        if ctx.node == 0:
            for when in self.talk_rounds:
                yield SleepUntil(when)
                yield Transmit(ctx.node, self.talk_channel)
            return
        log = ctx.info["resumes"] = []
        single = self.single_after_restart and ctx.restart_round is not None
        while ctx.now < self.horizon:
            if single:
                observation = yield Listen(self.channel)
            else:
                observation = yield ListenFor(
                    min(self.window, self.horizon - ctx.now), self.channel
                )
            log.append((ctx.now, str(observation)))
            single = single or (
                self.single_after_hearing and observation.heard_something
            )


class CountingProtocol(Protocol):
    """Delegates to ``inner``; counts every resume of a node's coroutine
    (its first step included) over this object's runs, and records in
    ``ctx.info["windows"]`` how many windows each node opened."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.compatible_models = inner.compatible_models
        self.resumes = 0

    def max_rounds_hint(self, n, delta):
        return self.inner.max_rounds_hint(n, delta)

    def run(self, ctx):
        inner = self.inner.run(ctx)
        ctx.info["windows"] = 0
        observation = None
        while True:
            self.resumes += 1
            try:
                action = inner.send(observation)
            except StopIteration as stop:
                return stop.value
            if isinstance(action, ListenFor):
                ctx.info["windows"] += 1
            observation = yield action


STAR = star_graph(6)  # hub 0, leaves 1..5


class TestWindowsAgainstOracle:
    def test_a_message_cuts_the_window(self):
        result = assert_engines_agree(STAR, HubTalks((7, 30), 50, 60), NO_CD)
        assert result.node_info[1]["resumes"] == [
            (8, "message(0)"), (31, "message(0)"), (60, "silence")
        ]
        assert result.node_stats[1].listen_rounds == 60
        # Three resumes per leaf stand for 60 listened rounds.
        assert result.telemetry.window_rounds == 5 * (60 - 3)

    def test_hearing_closes_the_window(self):
        result = assert_engines_agree(
            STAR, HubTalks((7,), 50, 20, single_after_hearing=True), NO_CD
        )
        assert result.node_info[1]["resumes"] == [(8, "message(0)")] + [
            (now, "silence") for now in range(9, 21)
        ]

    def test_crash_stop_cuts_a_window(self):
        plan = FaultPlan(crashes=((2, (CrashEvent(17),)),))
        result = assert_engines_agree(
            STAR, HubTalks((30,), 50, 60), NO_CD, faults=plan
        )
        stats = result.node_stats[2]
        assert stats.crashed and stats.finish_round == 17
        assert stats.listen_rounds == 17
        assert result.node_info[2]["resumes"] == []

    def test_crash_recovery_cuts_a_window_and_restarts_one(self):
        plan = FaultPlan(crashes=((3, (CrashEvent(12, recovery_delay=5),)),))
        result = assert_engines_agree(
            STAR, HubTalks((30,), 50, 60), NO_CD, faults=plan
        )
        stats = result.node_stats[3]
        assert stats.restarts == 1 and stats.last_restart_round == 17
        # 12 rounds before the crash, 43 after the restart.
        assert stats.listen_rounds == 12 + 43
        assert result.node_info[3]["resumes"] == [(31, "message(0)"), (60, "silence")]

    def test_restart_in_a_window_leaves_no_window_behind(self):
        # The crash cuts a window with rounds left; the new incarnation's
        # single listens must each resume it.
        plan = FaultPlan(crashes=((3, (CrashEvent(12, recovery_delay=5),)),))
        result = assert_engines_agree(
            STAR, HubTalks((30,), 50, 60, single_after_restart=True), NO_CD,
            faults=plan,
        )
        assert len(result.node_info[3]["resumes"]) == 60 - 17

    @pytest.mark.parametrize("model", [NO_CD, CD], ids=["no-cd", "cd"])
    def test_loss_and_jamming(self, model):
        plan = FaultPlan(
            seed=3, drop_p=0.5, jams=(JamWindow(20, 26, probability=0.5),)
        )
        talks = tuple(range(2, 40, 3))
        result = assert_engines_agree(
            STAR, HubTalks(talks, 40, 45), model, faults=plan
        )
        logs = [result.node_info[v]["resumes"] for v in range(1, 6)]
        # Losses let windows run on past a transmission ...
        assert any(
            len(log) < len(talks) + 1 for log in logs
        )
        if model is CD:
            # ... and under CD a jammed round reads as a collision,
            # which cuts the window.
            assert any(
                observed == "collision" for log in logs for _, observed in log
            )
        else:
            assert all(
                observed != "collision" for log in logs for _, observed in log
            )

    def test_window_on_a_nonzero_channel(self):
        model = MultichannelModel(CD, 4)
        on_two = assert_engines_agree(
            STAR, HubTalks((9,), 30, 30, channel=2, talk_channel=2), model
        )
        assert on_two.node_info[1]["resumes"] == [(10, "message(0)"), (30, "silence")]
        elsewhere = assert_engines_agree(
            STAR, HubTalks((9,), 30, 30, channel=2, talk_channel=1), model
        )
        assert elsewhere.node_info[1]["resumes"] == [(30, "silence")]

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
        # Both joiners ran listen windows of their own.
        assert all(result.node_info[v]["windows"] > 0 for v in (20, 21))


class TestListenForValidation:
    @pytest.mark.parametrize("rounds", [0, -1, True, 2.0])
    def test_rounds_must_be_a_positive_int(self, rounds):
        with pytest.raises(ProtocolError, match="ListenFor"):
            ListenFor(rounds)


class RandomScript(Protocol):
    """Each node draws a random script from its own stream: transmits,
    sleeps and listen windows.  With ``expand`` every window becomes
    single ``Listen()``s that listen on through silence; the two must be
    indistinguishable to every observer."""

    name = "random-script"

    def __init__(self, steps, expand):
        self.steps = steps
        self.expand = expand

    def run(self, ctx):
        log = ctx.info["log"] = []
        rng = ctx.rng
        for _ in range(self.steps):
            choice = rng.random()
            if choice < 0.25:
                yield Transmit(ctx.node)
            elif choice < 0.45:
                yield Sleep(rng.randrange(1, 6))
            else:
                rounds = rng.randrange(1, 12)
                if self.expand:
                    for _ in range(rounds):
                        observation = yield Listen()
                        if observation.heard_something:
                            break
                else:
                    observation = yield ListenFor(rounds)
                log.append((ctx.now, str(observation)))


@settings(max_examples=25, deadline=None)
@given(
    graph_seed=st.integers(0, 2**16),
    run_seed=st.integers(0, 2**16),
    n=st.integers(2, 14),
    p=st.sampled_from([0.2, 0.5, 0.9]),
    model=st.sampled_from([NO_CD, CD]),
    drop_p=st.sampled_from([0.0, 0.3]),
    crash=st.one_of(
        st.none(),
        st.tuples(st.integers(0, 30), st.one_of(st.none(), st.integers(1, 8))),
    ),
)
def test_window_equals_single_listens_that_ignore_silence(
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


class TestResumeCount:
    @pytest.mark.parametrize(
        "protocol, model",
        [
            (NoCDEnergyMISProtocol(constants=FAST), NO_CD),
            (LowDegreeMISProtocol(constants=FAST), NO_CD),
            (CDMISProtocol(constants=FAST), CD),
        ],
        ids=["nocd-energy-mis", "davies", "cd-mis"],
    )
    @pytest.mark.parametrize(
        "faults",
        [
            None,
            FaultPlan(seed=4, crash_fraction=0.3, crash_round=8, crash_recovery=15),
        ],
        ids=["fault-free", "crash-recovery"],
    )
    def test_derived_count_matches_a_wrapper(self, protocol, model, faults):
        graph = gnp_random_graph(30, 0.2, seed=2)
        counting = CountingProtocol(protocol)
        result = run_protocol(
            graph, counting, model, seed=1, telemetry=True, faults=faults
        )
        telemetry = result.telemetry
        assert telemetry.resumes == counting.resumes
        if faults is not None:
            assert any(stats.restarts for stats in result.node_stats)
        if protocol.name != "cd-mis":
            assert telemetry.window_rounds > 0

    def test_resumes_reach_the_registry(self):
        graph = gnp_random_graph(20, 0.3, seed=5)
        result = run_protocol(
            graph, LowDegreeMISProtocol(constants=FAST), NO_CD, telemetry=True
        )
        registry = Registry()
        result.telemetry.publish(registry)
        counters = registry.snapshot()["counters"]
        assert counters["engine.resumes"] == result.telemetry.resumes
        assert counters["engine.rounds.window"] == result.telemetry.window_rounds


# ----------------------------------------------------------------------
# Off-calendar windows and listen-throughs
# ----------------------------------------------------------------------

PATH = path_graph(3)  # 0 - 1 - 2


class Scripted(Protocol):
    """Node ``v`` yields the actions of ``scripts[v]`` in turn; after
    each ``ListenFor`` it logs the round it is resumed at, what it is
    resumed with and the energy its ledger holds then."""

    name = "scripted"

    def __init__(self, scripts):
        self.scripts = scripts

    def run(self, ctx):
        log = ctx.info["log"] = []
        for action in self.scripts.get(ctx.node, ()):
            observation = yield action
            if isinstance(action, ListenFor):
                log.append(
                    (ctx.now, str(observation), sum(ctx.energy_by_component.values()))
                )


def talk_at(*rounds, channel=0):
    """A script that transmits once at each of ``rounds``."""
    script = []
    for when in rounds:
        script += [SleepUntil(when), Transmit(channel=channel)]
    return script


def assert_untraced_agree(graph, protocol, model, seed=0, **kwargs):
    """The untraced engine (off-calendar windows), the traced engine
    (per-round windows) and the oracle: equal results, and equal resume
    and window-round counts on both engine paths."""
    reference = run_protocol_reference(graph, protocol, model, seed=seed, **kwargs)
    untraced = run_protocol(graph, protocol, model, seed=seed, telemetry=True, **kwargs)
    traced = run_protocol(
        graph, protocol, model, seed=seed, telemetry=True, trace=TraceRecorder(),
        **kwargs,
    )
    assert untraced == reference
    assert traced == reference
    assert untraced.telemetry.resumes == traced.telemetry.resumes
    assert untraced.telemetry.window_rounds == traced.telemetry.window_rounds
    return untraced


class TestOffCalendarWindows:
    @pytest.mark.parametrize(
        "model, expected",
        [(NO_CD, [(10, "message(1)", 10)]), (CD, [(6, "collision", 6)])],
        ids=["no-cd", "cd"],
    )
    def test_a_no_cd_collision_keeps_the_window_waiting(self, model, expected):
        protocol = Scripted(
            {0: talk_at(5, 9), 1: [ListenFor(20)], 2: talk_at(5)}
        )
        result = assert_untraced_agree(PATH, protocol, model)
        assert result.node_info[1]["log"] == expected
        # Untraced, the silent rounds were never processed one by one.
        assert result.telemetry.rounds_processed < 10

    @pytest.mark.parametrize(
        "talkers, model, heard",
        [
            ({0}, NO_CD, "message(1)"),
            ({0, 2}, NO_CD, "silence"),
            ({0, 2}, CD, "collision"),
        ],
        ids=["lone", "no-cd-collision", "cd-collision"],
    )
    def test_last_round_with_a_transmitting_neighbour(self, talkers, model, heard):
        scripts = {v: talk_at(9) for v in talkers}
        scripts[1] = [ListenFor(10)]
        result = assert_untraced_agree(PATH, Scripted(scripts), model)
        assert result.node_info[1]["log"] == [(10, heard, 10)]

    @pytest.mark.parametrize(
        "talks, expected",
        [((3, 12), [(13, "message(1)", 3)]), ((3,), [(15, "silence", 5)])],
        ids=["hit-later", "never-hit"],
    )
    def test_a_window_after_a_sleep_is_not_hit_before_it_starts(
        self, talks, expected
    ):
        protocol = Scripted({0: talk_at(*talks), 1: [Sleep(10), ListenFor(5)]})
        result = assert_untraced_agree(PATH, protocol, NO_CD)
        assert result.node_info[1]["log"] == expected

    @pytest.mark.parametrize(
        "second, talks, expected",
        [
            (14, (5,), [(6, "message(1)", 6), (20, "silence", 20)]),
            (14, (5, 11), [(6, "message(1)", 6), (12, "message(1)", 12)]),
            (30, (5,), [(6, "message(1)", 6), (36, "silence", 36)]),
        ],
        ids=["same-deadline", "same-deadline-hit", "later-deadline"],
    )
    def test_a_stale_deadline_does_not_end_the_next_window(
        self, second, talks, expected
    ):
        # The first window would end at round 19; hearing at round 5
        # leaves its deadline entry behind.
        protocol = Scripted(
            {0: talk_at(*talks), 1: [ListenFor(20), ListenFor(second)]}
        )
        result = assert_untraced_agree(PATH, protocol, NO_CD)
        assert result.node_info[1]["log"] == expected

    def test_one_round_windows(self):
        protocol = Scripted({0: talk_at(1), 1: [ListenFor(1)] * 3})
        result = assert_untraced_agree(PATH, protocol, NO_CD)
        assert result.node_info[1]["log"] == [
            (1, "silence", 1), (2, "message(1)", 2), (3, "silence", 3)
        ]

    def test_a_nonzero_channel_round_does_not_reach_a_channel_0_window(self):
        protocol = Scripted(
            {0: talk_at(3, channel=1) + talk_at(6), 1: [ListenFor(10)]}
        )
        result = assert_untraced_agree(PATH, protocol, MultichannelModel(CD, 2))
        assert result.node_info[1]["log"] == [(7, "message(1)", 7)]

    @pytest.mark.parametrize("model", [NO_CD, CD], ids=["no-cd", "cd"])
    def test_a_dense_round_reaches_the_waiting_listeners(self, model):
        # Twenty talkers on K_40: a dense round, which the dict scatter
        # tallies whether numpy is installed or not.
        scripts = {v: talk_at(4) for v in range(20)}
        scripts[0] = talk_at(4, 7)
        scripts.update({v: [ListenFor(10)] for v in range(20, 40)})
        result = assert_untraced_agree(complete_graph(40), Scripted(scripts), model)
        expected = (
            [(8, "message(1)", 8)] if model is NO_CD else [(5, "collision", 5)]
        )
        assert all(result.node_info[v]["log"] == expected for v in range(20, 40))
        assert result.telemetry.scatter_dict_rounds == 1

    def test_listen_through_is_resumed_once_with_none(self):
        protocol = Scripted(
            {0: talk_at(3, 12), 1: [ListenFor(10, through=True), ListenFor(5)]}
        )
        result = assert_untraced_agree(PATH, protocol, NO_CD)
        assert result.node_info[1]["log"] == [
            (10, "None", 10), (13, "message(1)", 13)
        ]
        assert result.node_stats[1].listen_rounds == 13

    @pytest.mark.parametrize(
        "protocol, model",
        [
            (NoCDEnergyMISProtocol(constants=FAST), NO_CD),
            (LowDegreeMISProtocol(constants=FAST), NO_CD),
            (NaiveBackoffMISProtocol(constants=FAST), NO_CD),
            (NaiveBackoffMISProtocol(constants=FAST), CD),
        ],
        ids=["nocd-energy-mis", "davies", "naive-backoff-no-cd", "naive-backoff-cd"],
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_traced_and_untraced_runs_agree(self, protocol, model, seed):
        graph = gnp_random_graph(30, 0.2, seed=seed)
        result = assert_untraced_agree(graph, protocol, model, seed=seed)
        assert result.telemetry.window_rounds > 0


class TestWatchdog:
    """A window or listen-through that reaches ``max_rounds`` raises at
    the same round on both engines, traced or not."""

    @pytest.mark.parametrize("through", [False, True], ids=["window", "through"])
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize(
        "engine", [run_protocol, run_protocol_reference], ids=["engine", "oracle"]
    )
    def test_a_window_crossing_max_rounds_raises_at_it(self, through, traced, engine):
        protocol = Scripted({1: [ListenFor(100, through=through)]})
        trace = TraceRecorder() if traced else None
        with pytest.raises(SimulationError, match=r"next event at round 50\b"):
            engine(PATH, protocol, NO_CD, max_rounds=50, trace=trace)

    @pytest.mark.parametrize("through", [False, True], ids=["window", "through"])
    def test_a_window_ending_at_max_rounds_completes(self, through):
        protocol = Scripted({1: [ListenFor(50, through=through)]})
        result = assert_untraced_agree(PATH, protocol, NO_CD, max_rounds=50)
        assert result.rounds == 50

    def test_a_window_heard_before_max_rounds_completes(self):
        protocol = Scripted({0: talk_at(20), 1: [ListenFor(100)]})
        result = assert_untraced_agree(PATH, protocol, NO_CD, max_rounds=50)
        assert result.node_info[1]["log"] == [(21, "message(1)", 21)]


class TestListenThroughValidation:
    @pytest.mark.parametrize("through", [1, 0, None, "yes"])
    def test_through_must_be_a_bool(self, through):
        with pytest.raises(ProtocolError, match="through"):
            ListenFor(3, through=through)


class RandomThroughScript(Protocol):
    """Each node draws a random script from its own stream: transmits,
    sleeps, windows and listen-throughs.  With ``expand`` every
    listen-through becomes single ``Listen()``s whose observations are
    ignored; the node logs ``None`` after either."""

    name = "random-through-script"

    def __init__(self, steps, expand):
        self.steps = steps
        self.expand = expand

    def run(self, ctx):
        log = ctx.info["log"] = []
        rng = ctx.rng
        for _ in range(self.steps):
            choice = rng.random()
            if choice < 0.25:
                yield Transmit(ctx.node)
            elif choice < 0.4:
                yield Sleep(rng.randrange(1, 6))
            elif choice < 0.6:
                observation = yield ListenFor(rng.randrange(1, 12))
                log.append((ctx.now, str(observation)))
            else:
                rounds = rng.randrange(1, 12)
                if self.expand:
                    for _ in range(rounds):
                        yield Listen()
                    observation = None
                else:
                    observation = yield ListenFor(rounds, through=True)
                log.append((ctx.now, observation))


@settings(max_examples=25, deadline=None)
@given(
    graph_seed=st.integers(0, 2**16),
    run_seed=st.integers(0, 2**16),
    n=st.integers(2, 14),
    p=st.sampled_from([0.2, 0.5, 0.9]),
    model=st.sampled_from([NO_CD, CD]),
    drop_p=st.sampled_from([0.0, 0.3]),
    jam=st.booleans(),
    crash=st.one_of(
        st.none(),
        st.tuples(st.integers(0, 30), st.one_of(st.none(), st.integers(1, 8))),
    ),
)
def test_listen_through_equals_single_listens(
    graph_seed, run_seed, n, p, model, drop_p, jam, crash
):
    graph = gnp_random_graph(n, p, seed=graph_seed)
    crashes = ()
    if crash is not None:
        crashes = ((n - 1, (CrashEvent(crash[0], recovery_delay=crash[1]),)),)
    jams = (JamWindow(5, 15, probability=0.5),) if jam else ()
    plan = FaultPlan(seed=run_seed, drop_p=drop_p, jams=jams, crashes=crashes)
    runs = []
    for expand in (False, True):
        for engine in (run_protocol, run_protocol_reference):
            for trace in (None, TraceRecorder()):
                result = engine(
                    graph, RandomThroughScript(12, expand), model,
                    seed=run_seed, trace=trace, faults=plan,
                )
                runs.append((result, trace.events if trace else None))
    results = [result for result, _ in runs]
    assert all(result == results[0] for result in results[1:])
    traces = [events for _, events in runs if events is not None]
    assert all(events == traces[0] for events in traces[1:])


@pytest.mark.parametrize("model", [NO_CD, CD], ids=["no-cd", "cd"])
@pytest.mark.parametrize(
    "faults",
    [
        None,
        FaultPlan(seed=4, crash_fraction=0.3, crash_round=8, crash_recovery=15),
    ],
    ids=["fault-free", "crash-recovery"],
)
def test_naive_backoff_derived_count_matches_a_wrapper(model, faults):
    graph = gnp_random_graph(30, 0.2, seed=2)
    counting = CountingProtocol(NaiveBackoffMISProtocol(constants=FAST))
    result = run_protocol(graph, counting, model, seed=1, telemetry=True, faults=faults)
    assert result.telemetry.resumes == counting.resumes
    assert result.telemetry.window_rounds > 0
    if faults is not None:
        assert any(stats.restarts for stats in result.node_stats)
