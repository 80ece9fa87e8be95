"""Multichannel radio subsystem: per-channel collision resolution.

The channel dimension's core contracts:

* **C=1 transparency** — ``MultichannelModel(base, channels=1)`` is
  bit-identical to the bare base model through both scalar engines
  (values, traces, *and* cache keys), and the C=1 channel-hopping
  protocol is bit-identical to the single-channel strawman it lifts.
* **optimized == reference at every C** — the golden contract extends
  to multichannel rounds, including a Hypothesis fuzz over random
  channel choices, base models (sender-side detection included) and
  fault plans.
* **per-channel isolation** — transmitters on one channel are inaudible
  on every other.
"""

from collections import Counter, defaultdict

import pytest

from repro.baselines import MultichannelMISProtocol, NaiveCDLubyProtocol
from repro.constants import ConstantsProfile
from repro.errors import ConfigurationError, ProtocolError, SimulationError
from repro.graphs import gnp_random_graph
from repro.radio import (
    CD,
    Listen,
    ListenFor,
    Protocol,
    Sleep,
    Transmit,
    TransmitSchedule,
    run_protocol,
)
from repro.radio._engine_reference import run_protocol_reference
from repro.faults import CrashEvent, FaultPlan, JamWindow
from repro.radio.models import BEEPING, BEEPING_SENDER_CD, NO_CD, MultichannelModel
from repro.radio.trace import TraceRecorder

FAST = ConstantsProfile.fast()

GRAPH = gnp_random_graph(40, 0.2, seed=3)
GRAPH_DENSE = gnp_random_graph(48, 0.3, seed=9)


def assert_bit_identical(graph, protocol, model, seed, **kwargs):
    reference = run_protocol_reference(graph, protocol, model, seed=seed, **kwargs)
    optimized = run_protocol(graph, protocol, model, seed=seed, **kwargs)
    assert optimized == reference

    ref_trace, opt_trace = TraceRecorder(), TraceRecorder()
    run_protocol_reference(graph, protocol, model, seed=seed, trace=ref_trace, **kwargs)
    run_protocol(graph, protocol, model, seed=seed, trace=opt_trace, **kwargs)
    assert opt_trace.events == ref_trace.events
    return optimized


class TestMultichannelModel:
    def test_channels_one_keeps_base_name(self):
        assert MultichannelModel(CD, 1).name == CD.name
        assert MultichannelModel(NO_CD, 1).name == NO_CD.name

    def test_multi_channel_name_is_suffixed(self):
        assert MultichannelModel(CD, 4).name == "cd@c4"
        assert MultichannelModel(BEEPING, 2).name == "beep@c2"

    def test_rejects_nesting(self):
        with pytest.raises(ValueError):
            MultichannelModel(MultichannelModel(CD, 2), 2)

    @pytest.mark.parametrize("channels", [0, -1, 1.5, "4"])
    def test_rejects_bad_channel_counts(self, channels):
        with pytest.raises(ValueError):
            MultichannelModel(CD, channels)

    def test_forwards_base_semantics(self):
        lifted = MultichannelModel(CD, 4)
        assert lifted.detects_collisions == CD.detects_collisions
        assert lifted.carries_payloads == CD.carries_payloads
        for count in (0, 1, 2, 7):
            assert lifted.resolve(count, "m") == CD.resolve(count, "m")


class TestChannelsOneTransparency:
    """MultichannelModel(base, 1) is invisible everywhere."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wrapped_run_bit_identical_to_bare(self, seed):
        protocol = NaiveCDLubyProtocol(constants=FAST)
        bare = run_protocol(GRAPH, protocol, CD, seed=seed)
        wrapped = run_protocol(GRAPH, protocol, MultichannelModel(CD, 1), seed=seed)
        assert wrapped == bare

    @pytest.mark.parametrize("seed", [0, 1])
    def test_wrapped_reference_bit_identical_to_bare(self, seed):
        protocol = NaiveCDLubyProtocol(constants=FAST)
        bare = run_protocol_reference(GRAPH, protocol, CD, seed=seed)
        wrapped = run_protocol_reference(
            GRAPH, protocol, MultichannelModel(CD, 1), seed=seed
        )
        assert wrapped == bare

    def test_wrapped_traces_match_bare(self):
        protocol = NaiveCDLubyProtocol(constants=FAST)
        bare_trace, wrapped_trace = TraceRecorder(), TraceRecorder()
        run_protocol(GRAPH, protocol, CD, seed=5, trace=bare_trace)
        run_protocol(
            GRAPH, protocol, MultichannelModel(CD, 1), seed=5, trace=wrapped_trace
        )
        assert wrapped_trace.events == bare_trace.events

    def test_cache_key_unchanged_at_channels_one(self):
        from repro.exec.cache import trial_key

        protocol = NaiveCDLubyProtocol(constants=FAST)
        params = dict(protocol=protocol, graph_spec="g/n=40", seed=7)
        bare = trial_key(model_name=CD.name, **params)
        wrapped = trial_key(model_name=MultichannelModel(CD, 1).name, **params)
        lifted = trial_key(model_name=MultichannelModel(CD, 2).name, **params)
        assert wrapped == bare
        assert lifted != bare

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_c1_protocol_bit_identical_to_strawman(self, seed):
        baseline = run_protocol(
            GRAPH, NaiveCDLubyProtocol(constants=FAST), CD, seed=seed
        )
        hopping = run_protocol(
            GRAPH, MultichannelMISProtocol(constants=FAST, channels=1), CD, seed=seed
        )
        assert hopping.node_stats == baseline.node_stats
        assert hopping.rounds == baseline.rounds
        assert hopping.mis == baseline.mis


class TestMultichannelGolden:
    @pytest.mark.parametrize("channels", [2, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mc_luby_optimized_equals_reference(self, channels, seed):
        protocol = MultichannelMISProtocol(constants=FAST, channels=channels)
        result = assert_bit_identical(
            GRAPH, protocol, MultichannelModel(CD, channels), seed=seed
        )
        assert result.is_valid_mis()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_beeping_base_model(self, seed):
        protocol = MultichannelMISProtocol(constants=FAST, channels=4)
        result = assert_bit_identical(
            GRAPH_DENSE, protocol, MultichannelModel(BEEPING, 4), seed=seed
        )
        assert result.is_valid_mis()

    def test_compatibility_resolves_through_wrapper(self):
        # naive-cd-luby accepts cd; the lifted cd@c2 must still qualify.
        protocol = NaiveCDLubyProtocol(constants=FAST)
        run_protocol(GRAPH, protocol, MultichannelModel(CD, 2), seed=0)

    def test_incompatible_base_still_rejected(self):
        protocol = MultichannelMISProtocol(constants=FAST, channels=2)
        with pytest.raises(SimulationError):
            run_protocol(GRAPH, protocol, MultichannelModel(NO_CD, 2), seed=0)


class _ChannelIsolationProbe(Protocol):
    """Node 0 transmits on channel 1; node 1 listens on channel 0 then 1."""

    name = "channel-isolation-probe"
    compatible_models = ("cd",)

    def max_rounds_hint(self, n, delta):
        return 4

    def run(self, ctx):
        if ctx.node == 0:
            yield Transmit("secret", 1)
            yield Transmit("secret", 1)
        else:
            first = yield Listen(0)
            second = yield Listen(1)
            ctx.info["cross"] = first.heard_something
            ctx.info["same"] = second.heard_something
        ctx.decide(1 if ctx.node == 0 else 0)


class TestChannelIsolation:
    @pytest.mark.parametrize("runner", [run_protocol, run_protocol_reference])
    def test_other_channels_are_inaudible(self, runner):
        from repro.graphs.generators import path_graph

        graph = path_graph(2)
        result = runner(
            graph, _ChannelIsolationProbe(), MultichannelModel(CD, 2), seed=0
        )
        assert result.node_info[1]["cross"] is False
        assert result.node_info[1]["same"] is True


class TestMultichannelTelemetry:
    def test_round_buckets_partition_and_channels_counted(self):
        protocol = MultichannelMISProtocol(constants=FAST, channels=4)
        result = run_protocol(
            GRAPH_DENSE,
            protocol,
            MultichannelModel(CD, 4),
            seed=1,
            telemetry=True,
        )
        tel = result.telemetry
        assert tel.multichannel_rounds > 0
        assert (
            tel.rounds_processed
            == tel.zero_tx_rounds
            + tel.one_tx_rounds
            + tel.scatter_dict_rounds
        )
        assert set(tel.channel_tx_rounds) <= set(range(4))
        assert sum(tel.channel_tx_rounds.values()) > 0

    def test_channel_counters_equal_the_protocols_own_record(self):
        # Every node logs the (round, channel, action) of each awake round
        # it asks for; the counters must equal what that log implies.
        from repro.graphs.generators import complete_graph

        scripts = {
            0: [("tx", 0, None), ("sleep", 0, 1), ("tx", 1, None),
                ("schedule", 2, (0, 0, 0, 0))],
            1: [("tx", 0, None), ("sleep", 0, 1), ("tx", 1, None),
                ("through", 2, 3), ("rx", 0, None)],
            2: [("rx", 0, None), ("rx", 2, None), ("tx", 0, None),
                ("sleep", 0, 1), ("tx", 2, None)],
            3: [("rx", 0, None), ("sleep", 0, 1), ("rx", 1, None),
                ("rx", 0, None), ("sleep", 0, 2), ("tx", 0, None)],
        }
        result = run_protocol(
            complete_graph(4),
            _ChannelLog(scripts),
            MultichannelModel(CD, 3),
            seed=0,
            telemetry=True,
        )
        by_round = defaultdict(list)
        for info in result.node_info:
            for round_, channel, action in info["log"]:
                by_round[round_].append((channel, action))
        assert sum(map(len, by_round.values())) == sum(
            stats.transmit_rounds + stats.listen_rounds for stats in result.node_stats
        )
        multichannel = sorted(
            round_
            for round_, acts in by_round.items()
            if any(channel for channel, _ in acts)
        )
        tx_rounds, collision_rounds = Counter(), Counter()
        for round_ in multichannel:
            senders = Counter(
                channel for channel, action in by_round[round_] if action == "tx"
            )
            for channel, count in senders.items():
                tx_rounds[channel] += 1
                collision_rounds[channel] += count > 1
        # Round 0 and round 6 are all on channel 0; round 1 holds only a
        # listener on channel 2.
        assert multichannel == [1, 2, 3, 4, 5]
        assert by_round[1] == [(2, "rx")]
        tel = result.telemetry
        assert tel.multichannel_rounds == len(multichannel)
        assert tel.channel_tx_rounds == dict(tx_rounds)
        assert tel.channel_collision_rounds == {
            channel: count for channel, count in collision_rounds.items() if count
        }

    def test_single_channel_run_has_no_channel_telemetry(self):
        result = run_protocol(
            GRAPH,
            NaiveCDLubyProtocol(constants=FAST),
            CD,
            seed=0,
            telemetry=True,
        )
        assert result.telemetry.multichannel_rounds == 0
        assert result.telemetry.channel_tx_rounds == {}


class _ChannelLog(Protocol):
    """Node ``v`` runs ``scripts[v]``, a list of ``(action, channel, arg)``
    steps, and logs each awake round it acts in as ``(round, channel,
    "tx" | "rx")`` in ``ctx.info["log"]``."""

    name = "channel-log"

    def __init__(self, scripts):
        self.scripts = scripts

    def run(self, ctx):
        log = ctx.info["log"] = []
        for action, channel, arg in self.scripts.get(ctx.node, ()):
            now = ctx.now
            if action == "sleep":
                yield Sleep(arg)
            elif action == "tx":
                log.append((now, channel, "tx"))
                yield Transmit(ctx.node, channel)
            elif action == "rx":
                log.append((now, channel, "rx"))
                yield Listen(channel)
            elif action == "through":
                log.extend((now + i, channel, "rx") for i in range(arg))
                yield ListenFor(arg, channel, through=True)
            else:  # "schedule", with ``arg`` its gaps
                for gap in arg[:-1]:
                    now += gap
                    log.append((now, channel, "tx"))
                    now += 1
                yield TransmitSchedule(arg, ctx.node, channel)


class TestProtocolValidation:
    @pytest.mark.parametrize("channels", [0, -3, True, 2.0])
    def test_rejects_bad_channel_counts(self, channels):
        with pytest.raises(ConfigurationError):
            MultichannelMISProtocol(constants=FAST, channels=channels)


class _ChannelScript(Protocol):
    """Nodes in ``talkers`` yield ``transmit(node)``, the others
    ``listen()``, once each."""

    name = "channel-script"

    def __init__(self, talkers, transmit, listen):
        self.talkers = talkers
        self.transmit = transmit
        self.listen = listen

    def run(self, ctx):
        if ctx.node in self.talkers:
            yield self.transmit(ctx.node)
        else:
            ctx.info["heard"] = str((yield self.listen()))


class TestChannelIndexValidation:
    """A channel must be an int in ``[0, channels)``; both engines raise
    a ``ProtocolError`` naming the node, the channel and the count."""

    ENGINES = [run_protocol, run_protocol_reference]

    @pytest.mark.parametrize("runner", ENGINES)
    @pytest.mark.parametrize("model", [CD, MultichannelModel(CD, 4)], ids=str)
    def test_negative_channel(self, runner, model):
        # The engine once read tally key ``node - stride`` and handed every
        # listener silence, while the oracle delivered the messages.
        from repro.graphs.generators import path_graph

        script = _ChannelScript(
            {0, 4}, lambda node: Transmit(node, -1), lambda: Listen(-1)
        )
        with pytest.raises(ProtocolError, match=r"node 0 used channel -1"):
            runner(path_graph(6), script, model)

    @pytest.mark.parametrize("runner", ENGINES)
    @pytest.mark.parametrize(
        "transmit, listen",
        [
            (lambda node: Transmit(node, 7), lambda: Listen()),
            (lambda node: Transmit(node), lambda: Listen(7)),
            (lambda node: Transmit(node), lambda: ListenFor(3, 7)),
            (lambda node: TransmitSchedule((1, 0), node, 7), lambda: Listen()),
        ],
        ids=["transmit", "listen", "listen-for", "transmit-schedule"],
    )
    def test_channel_beyond_the_model(self, runner, transmit, listen):
        with pytest.raises(ProtocolError, match=r"has 4 channel\(s\)") as info:
            runner(
                GRAPH, _ChannelScript({0}, transmit, listen), MultichannelModel(CD, 4)
            )
        assert "channel 7" in str(info.value)

    @pytest.mark.parametrize("runner", ENGINES)
    def test_nonzero_channel_under_a_single_channel_model(self, runner):
        script = _ChannelScript({3}, lambda node: Transmit(node, 1), lambda: Listen())
        with pytest.raises(ProtocolError, match=r"node 3 used channel 1.*'cd' has 1"):
            runner(GRAPH, script, CD)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("runner", ENGINES)
    @pytest.mark.parametrize("model", [CD, MultichannelModel(CD, 4)], ids=str)
    @pytest.mark.parametrize("channel", [None, False, 0.0], ids=repr)
    @pytest.mark.parametrize(
        "talker, action",
        [
            (0, lambda channel: Transmit(0, channel)),
            (1, lambda channel: Listen(channel)),
            (1, lambda channel: ListenFor(3, channel)),
            (1, lambda channel: ListenFor(3, channel, through=True)),
            (0, lambda channel: TransmitSchedule((1, 0), 0, channel)),
        ],
        ids=["transmit", "listen", "listen-for", "listen-through", "transmit-schedule"],
    )
    def test_falsy_channel_that_is_not_int_0(
        self, runner, model, channel, talker, action, traced
    ):
        # The engine once read any falsy channel as channel 0 and node 1
        # heard message(0), while the oracle raised.
        from repro.graphs.generators import path_graph

        script = _ChannelScript(
            {0},
            lambda node: action(channel) if talker == 0 else Transmit(node),
            lambda: action(channel) if talker == 1 else Listen(),
        )
        trace = TraceRecorder() if traced else None
        with pytest.raises(
            ProtocolError, match=rf"node {talker} used channel {channel!r},"
        ):
            runner(path_graph(3), script, model, trace=trace)

    @pytest.mark.parametrize("recovery", [None, 2], ids=["crash-stop", "recovery"])
    @pytest.mark.parametrize("crash_round", [0, 1])
    @pytest.mark.parametrize(
        "action",
        [
            lambda: Transmit(0, 7),
            lambda: Listen(7),
            lambda: ListenFor(3, 7),
            lambda: ListenFor(3, 7, through=True),
            lambda: TransmitSchedule((0, 0), 0, 7),
        ],
        ids=["transmit", "listen", "listen-for", "listen-through", "transmit-schedule"],
    )
    def test_out_of_range_channel_on_the_crash_round(
        self, action, crash_round, recovery
    ):
        # The crash timeline is checked before the channel: a node that
        # crashes at the round of its action never executes it, so its
        # out-of-range channel raises on neither engine.
        script = _BadChannelOnCrashRound(crash_round, action)
        faults = FaultPlan(crashes={0: CrashEvent(crash_round, recovery)})
        results = [
            runner(GRAPH, script, MultichannelModel(CD, 4), faults=faults)
            for runner in self.ENGINES
        ]
        assert results[0] == results[1]
        assert results[0].node_stats[0].crashed is (recovery is None)

    @pytest.mark.parametrize("runner", ENGINES)
    def test_channels_in_range_pass(self, runner):
        script = _ChannelScript(
            {0}, lambda node: Transmit(node, 3), lambda: Listen(3)
        )
        result = runner(GRAPH, script, MultichannelModel(CD, 4))
        heard = [info.get("heard") for info in result.node_info]
        assert "message(0)" in heard


class _BadChannelOnCrashRound(Protocol):
    """Node 0 listens until ``crash_round`` and then yields ``action()``,
    whose channel is out of range; a restarted node 0 and every other
    node listen once."""

    name = "bad-channel-on-crash-round"

    def __init__(self, crash_round, action):
        self.crash_round = crash_round
        self.action = action

    def run(self, ctx):
        if ctx.node == 0 and ctx.restart_round is None:
            for _ in range(self.crash_round):
                yield Listen()
            yield self.action()
        yield Listen()


# ----------------------------------------------------------------------
# Hypothesis fuzz (skipped cleanly when hypothesis is unavailable)
# ----------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class _RandomChannelProbe(Protocol):
    """Every node transmits, listens, opens a listen window or a
    listen-through, or runs a transmit schedule, on independently drawn
    channels."""

    name = "random-channel-probe"
    compatible_models = ("cd", "beep", "beep-sender-cd")

    def __init__(self, channels, steps):
        self.channels = channels
        self.steps = steps

    def max_rounds_hint(self, n, delta):
        # A step takes at most 11 rounds: a schedule of 4 gaps <= 2.
        return 11 * self.steps + 1

    def run(self, ctx):
        # Counts what every action perceives; transmits perceive only
        # under sender-side detection (None otherwise), and listen-throughs
        # and schedules are resumed with None.
        heard = 0
        rng = ctx.rng
        for _ in range(self.steps):
            channel = rng.randrange(self.channels)
            kind = rng.randrange(5)
            if kind == 0:
                observation = yield Transmit(ctx.node, channel)
            elif kind == 1:
                observation = yield Listen(channel)
            elif kind == 2:
                observation = yield ListenFor(rng.randint(1, 3), channel)
            elif kind == 3:
                observation = yield ListenFor(rng.randint(1, 3), channel, through=True)
            else:
                gaps = tuple(rng.randrange(3) for _ in range(rng.randint(2, 4)))
                observation = yield TransmitSchedule(gaps, ctx.node, channel)
            if observation is not None and observation.heard_something:
                heard += 1
        ctx.info["heard"] = heard
        ctx.decide(1)


@st.composite
def _channel_fault_plans(draw, channels):
    """No faults, or message loss + a one-channel jam + a crash-recovery."""
    if draw(st.booleans()):
        return None
    start = draw(st.integers(min_value=0, max_value=10))
    jam = JamWindow(
        start,
        start + draw(st.integers(min_value=1, max_value=6)),
        draw(st.sampled_from([0.5, 1.0])),
        channel=draw(st.integers(min_value=0, max_value=channels - 1)),
    )
    crash = CrashEvent(
        draw(st.integers(min_value=0, max_value=10)),
        draw(st.integers(min_value=1, max_value=5)),
    )
    return FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=1000)),
        drop_p=draw(st.sampled_from([0.0, 0.2])),
        jams=(jam,),
        crashes={draw(st.integers(min_value=0, max_value=3)): crash},
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    channels=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=4, max_value=24),
    p=st.sampled_from([0.15, 0.4]),
    base=st.sampled_from([CD, BEEPING, BEEPING_SENDER_CD]),
    data=st.data(),
)
def test_fuzz_random_channels_golden(seed, channels, n, p, base, data):
    graph = gnp_random_graph(n, p, seed=seed % 1000)
    protocol = _RandomChannelProbe(channels, steps=12)
    model = MultichannelModel(base, channels)
    faults = data.draw(_channel_fault_plans(channels))
    assert_bit_identical(graph, protocol, model, seed, faults=faults)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    channels=st.sampled_from([2, 3, 5, 8]),
)
def test_fuzz_mc_luby_golden_and_valid(seed, channels):
    graph = gnp_random_graph(30, 0.25, seed=seed % 100)
    protocol = MultichannelMISProtocol(constants=FAST, channels=channels)
    model = MultichannelModel(CD, channels)
    reference = run_protocol_reference(graph, protocol, model, seed=seed)
    optimized = run_protocol(graph, protocol, model, seed=seed)
    assert optimized == reference
    assert optimized.is_valid_mis()
