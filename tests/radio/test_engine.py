"""Engine semantics: collisions, energy accounting, sleep fast-forwarding.

These tests drive the engine with purpose-built miniature protocols so
every semantic rule of Section 1.1 is pinned down independently of the
paper's algorithms.
"""

import pytest

from repro.errors import (
    ProtocolError,
    SimulationError,
)
from repro.graphs import Graph, complete_graph, empty_graph, path_graph, star_graph
from repro.radio import (
    CD,
    NO_CD,
    Decision,
    Listen,
    Protocol,
    Sleep,
    SleepUntil,
    Transmit,
    run_protocol,
)


class ScriptProtocol(Protocol):
    """Replays a fixed per-node action script; records observations.

    Scripts map node -> list of actions.  Observations land in
    ``ctx.info["seen"]`` as strings.
    """

    name = "script"
    compatible_models = ("cd", "no-cd", "beep")

    def __init__(self, scripts):
        self.scripts = scripts

    def run(self, ctx):
        seen = []
        ctx.info["seen"] = seen
        for action in self.scripts.get(ctx.node, []):
            observation = yield action
            if isinstance(action, Listen):
                seen.append(str(observation))
            else:
                assert observation is None, "only listens receive observations"


class TestCollisionResolution:
    def test_single_transmitter_is_heard(self):
        graph = path_graph(2)
        protocol = ScriptProtocol({0: [Transmit(5)], 1: [Listen()]})
        result = run_protocol(graph, protocol, CD, seed=0)
        assert result.node_info[1]["seen"] == ["message(5)"]

    def test_two_transmitters_collide_in_cd(self):
        graph = star_graph(3)  # hub 0, leaves 1, 2
        protocol = ScriptProtocol({1: [Transmit()], 2: [Transmit()], 0: [Listen()]})
        result = run_protocol(graph, protocol, CD, seed=0)
        assert result.node_info[0]["seen"] == ["collision"]

    def test_two_transmitters_silent_in_nocd(self):
        graph = star_graph(3)
        protocol = ScriptProtocol({1: [Transmit()], 2: [Transmit()], 0: [Listen()]})
        result = run_protocol(graph, protocol, NO_CD, seed=0)
        assert result.node_info[0]["seen"] == ["silence"]

    def test_non_neighbor_transmission_not_heard(self):
        graph = Graph(3, [(0, 1)])  # 2 is isolated
        protocol = ScriptProtocol({0: [Transmit()], 2: [Listen()]})
        result = run_protocol(graph, protocol, CD, seed=0)
        assert result.node_info[2]["seen"] == ["silence"]

    def test_transmitter_does_not_hear_itself_or_others(self):
        # Sender-side CD is not available: a transmitting node gets None.
        graph = path_graph(2)
        protocol = ScriptProtocol({0: [Transmit()], 1: [Transmit()]})
        result = run_protocol(graph, protocol, CD, seed=0)
        # No assertion errors inside the script == senders saw None.
        assert result.rounds >= 0

    def test_sleeping_node_misses_message(self):
        graph = path_graph(2)
        protocol = ScriptProtocol(
            {0: [Transmit()], 1: [Sleep(1), Listen()]}
        )
        result = run_protocol(graph, protocol, CD, seed=0)
        assert result.node_info[1]["seen"] == ["silence"]

    def test_interference_is_local(self):
        # 0-1-2-3 path: 0 and 3 both transmit; 1 hears 0, 2 hears 3.
        graph = path_graph(4)
        protocol = ScriptProtocol(
            {0: [Transmit("a")], 3: [Transmit("b")], 1: [Listen()], 2: [Listen()]}
        )
        result = run_protocol(graph, protocol, CD, seed=0)
        assert result.node_info[1]["seen"] == ["message('a')"]
        assert result.node_info[2]["seen"] == ["message('b')"]

    def test_rounds_align_actions(self):
        # Node 1's transmit is at round 1; node 0 listens rounds 0 and 1.
        graph = path_graph(2)
        protocol = ScriptProtocol(
            {0: [Listen(), Listen()], 1: [Sleep(1), Transmit()]}
        )
        result = run_protocol(graph, protocol, CD, seed=0)
        assert result.node_info[0]["seen"] == ["silence", "message(1)"]


class TestEnergyAccounting:
    def test_awake_rounds_counted(self):
        graph = empty_graph(1)
        protocol = ScriptProtocol(
            {0: [Transmit(), Listen(), Sleep(10), Listen()]}
        )
        result = run_protocol(graph, protocol, CD, seed=0)
        stats = result.node_stats[0]
        assert stats.transmit_rounds == 1
        assert stats.listen_rounds == 2
        assert stats.awake_rounds == 3

    def test_sleep_costs_nothing(self):
        graph = empty_graph(1)
        protocol = ScriptProtocol({0: [Sleep(1000)]})
        result = run_protocol(graph, protocol, CD, seed=0)
        assert result.max_energy == 0
        assert result.rounds == 1000

    def test_rounds_is_max_finish(self):
        graph = empty_graph(2)
        protocol = ScriptProtocol({0: [Listen()], 1: [Sleep(5), Listen()]})
        result = run_protocol(graph, protocol, CD, seed=0)
        assert result.rounds == 6
        assert result.node_stats[0].finish_round == 1
        assert result.node_stats[1].finish_round == 6

    def test_component_ledger(self):
        class LedgerProtocol(Protocol):
            name = "ledger"

            def run(self, ctx):
                ctx.set_component("alpha")
                yield Transmit()
                yield Listen()
                ctx.set_component("beta")
                yield Listen()

        result = run_protocol(empty_graph(1), LedgerProtocol(), CD, seed=0)
        assert result.node_stats[0].energy_by_component == {"alpha": 2, "beta": 1}
        assert result.energy_by_component() == {"alpha": 2, "beta": 1}


class TestSleepFastForwarding:
    def test_long_sleeps_are_cheap(self):
        # 10M rounds of sleep must not take 10M engine iterations; this
        # just asserts it completes (a loop would time the test out).
        graph = empty_graph(2)
        protocol = ScriptProtocol(
            {0: [Sleep(10_000_000), Listen()], 1: [Listen()]}
        )
        result = run_protocol(graph, protocol, CD, seed=0)
        assert result.rounds == 10_000_001

    def test_sleep_until(self):
        class BarrierProtocol(Protocol):
            name = "barrier"

            def run(self, ctx):
                yield SleepUntil(100)
                assert ctx.now == 100
                yield Transmit()
                ctx.info["done_at"] = ctx.now

        result = run_protocol(empty_graph(1), BarrierProtocol(), CD, seed=0)
        assert result.node_info[0]["done_at"] == 101
        assert result.rounds == 101

    def test_sleep_until_now_is_noop(self):
        class NoopBarrier(Protocol):
            name = "noop-barrier"

            def run(self, ctx):
                yield Listen()
                yield SleepUntil(1)  # == ctx.now, zero duration
                yield Listen()

        result = run_protocol(empty_graph(1), NoopBarrier(), CD, seed=0)
        assert result.node_stats[0].awake_rounds == 2
        assert result.rounds == 2

    def test_sleep_until_past_raises(self):
        class BadBarrier(Protocol):
            name = "bad-barrier"

            def run(self, ctx):
                yield Listen()
                yield Listen()
                yield SleepUntil(1)

        with pytest.raises(ProtocolError):
            run_protocol(empty_graph(1), BadBarrier(), CD, seed=0)

    def test_zero_sleep_allowed(self):
        protocol = ScriptProtocol({0: [Sleep(0), Listen()]})
        result = run_protocol(empty_graph(1), protocol, CD, seed=0)
        assert result.rounds == 1


class TestGuards:
    def test_max_rounds_watchdog(self):
        class Forever(Protocol):
            name = "forever"

            def run(self, ctx):
                while True:
                    yield Listen()

        with pytest.raises(SimulationError):
            run_protocol(empty_graph(1), Forever(), CD, seed=0, max_rounds=50)

    def test_incompatible_model_rejected(self):
        class CDOnly(Protocol):
            name = "cd-only"
            compatible_models = ("cd",)

            def run(self, ctx):
                yield Listen()

        with pytest.raises(SimulationError):
            run_protocol(empty_graph(1), CDOnly(), NO_CD, seed=0)

    def test_unknown_action_rejected(self):
        class Weird(Protocol):
            name = "weird"

            def run(self, ctx):
                yield "transmit"

        with pytest.raises(ProtocolError):
            run_protocol(empty_graph(1), Weird(), CD, seed=0)


class TestDecisions:
    def test_decide_recorded(self):
        class Decider(Protocol):
            name = "decider"

            def run(self, ctx):
                yield Listen()
                ctx.decide(Decision.IN_MIS if ctx.node == 0 else Decision.OUT_MIS)

        result = run_protocol(empty_graph(2), Decider(), CD, seed=0)
        assert result.mis == frozenset({0})
        assert result.undecided == frozenset()

    def test_decision_flip_raises(self):
        class Flipper(Protocol):
            name = "flipper"

            def run(self, ctx):
                yield Listen()
                ctx.decide(Decision.IN_MIS)
                ctx.decide(Decision.OUT_MIS)

        with pytest.raises(ProtocolError):
            run_protocol(empty_graph(1), Flipper(), CD, seed=0)

    def test_redundant_decision_allowed(self):
        class Repeater(Protocol):
            name = "repeater"

            def run(self, ctx):
                yield Listen()
                ctx.decide(Decision.IN_MIS)
                ctx.decide(Decision.IN_MIS)

        result = run_protocol(empty_graph(1), Repeater(), CD, seed=0)
        assert result.mis == frozenset({0})


class TestDeterminism:
    def test_same_seed_same_result(self, fast_constants):
        from repro.core import CDMISProtocol

        graph = complete_graph(8)
        protocol = CDMISProtocol(constants=fast_constants)
        a = run_protocol(graph, protocol, CD, seed=9)
        b = run_protocol(graph, protocol, CD, seed=9)
        assert a.mis == b.mis
        assert a.rounds == b.rounds
        assert [s.awake_rounds for s in a.node_stats] == [
            s.awake_rounds for s in b.node_stats
        ]

    def test_different_seed_usually_differs(self, fast_constants):
        from repro.core import CDMISProtocol

        graph = complete_graph(16)
        protocol = CDMISProtocol(constants=fast_constants)
        outcomes = {
            tuple(sorted(run_protocol(graph, protocol, CD, seed=s).mis))
            for s in range(8)
        }
        assert len(outcomes) > 1

    def test_per_node_streams_independent(self):
        class RandomReporter(Protocol):
            name = "random-reporter"

            def run(self, ctx):
                ctx.info["draw"] = ctx.rng.random()
                yield Listen()

        result = run_protocol(empty_graph(4), RandomReporter(), CD, seed=1)
        draws = [info["draw"] for info in result.node_info]
        assert len(set(draws)) == 4
