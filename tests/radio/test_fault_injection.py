"""Tests for crash-stop fault injection in the radio engine."""

import pytest

from repro.core import CDMISProtocol
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.graphs import empty_graph, gnp_random_graph, path_graph, star_graph
from repro.radio import CD, Decision, Listen, Sleep, Transmit, run_protocol
from repro.radio._engine_reference import run_protocol_reference
from tests.radio.test_engine import ScriptProtocol


class TestCrashSemantics:
    def test_crashed_node_stops_acting(self):
        protocol = ScriptProtocol({0: [Listen(), Listen(), Listen(), Listen()]})
        result = run_protocol(
            empty_graph(1), protocol, CD, seed=0, faults=FaultPlan(crashes={0: 2})
        )
        stats = result.node_stats[0]
        assert stats.crashed
        assert stats.listen_rounds == 2  # rounds 0 and 1 only
        assert stats.finish_round == 2

    def test_crashed_transmitter_goes_silent(self):
        # Node 1 would transmit at rounds 0 and 1, but crashes at 1.
        protocol = ScriptProtocol(
            {0: [Listen(), Listen()], 1: [Transmit(), Transmit()]}
        )
        result = run_protocol(
            path_graph(2), protocol, CD, seed=0, faults=FaultPlan(crashes={1: 1})
        )
        assert result.node_info[0]["seen"] == ["message(1)", "silence"]

    def test_crash_during_sleep(self):
        protocol = ScriptProtocol({0: [Sleep(5), Listen()]})
        result = run_protocol(
            empty_graph(1), protocol, CD, seed=0, faults=FaultPlan(crashes={0: 3})
        )
        stats = result.node_stats[0]
        assert stats.crashed
        assert stats.listen_rounds == 0
        assert stats.finish_round == 3

    def test_crash_at_round_zero(self):
        protocol = ScriptProtocol({0: [Transmit()], 1: [Listen()]})
        result = run_protocol(
            path_graph(2), protocol, CD, seed=0, faults=FaultPlan(crashes={0: 0})
        )
        assert result.node_stats[0].awake_rounds == 0
        assert result.node_info[1]["seen"] == ["silence"]

    def test_decision_freezes_at_crash(self):
        class DecideLate(ScriptProtocol):
            def run(self, ctx):
                yield Listen()
                yield Listen()
                ctx.decide(Decision.IN_MIS)

        result = run_protocol(
            empty_graph(1), DecideLate({}), CD, seed=0,
            faults=FaultPlan(crashes={0: 1}),
        )
        assert result.node_stats[0].decision is Decision.UNDECIDED

    def test_no_crashes_flags_nothing(self):
        protocol = ScriptProtocol({0: [Listen()]})
        result = run_protocol(empty_graph(1), protocol, CD, seed=0)
        assert not result.node_stats[0].crashed
        assert result.crashed_nodes == frozenset()

    def test_crash_after_finish_is_noop(self):
        protocol = ScriptProtocol({0: [Listen()]})
        result = run_protocol(
            empty_graph(1), protocol, CD, seed=0, faults=FaultPlan(crashes={0: 100})
        )
        assert not result.node_stats[0].crashed


class TestCrashScheduleValidation:
    """Malformed crash rounds fail fast, naming the node, for *both*
    engines.

    Regression: crash rounds were previously unvalidated — a float
    round silently never (or always) crashed depending on comparison
    luck, and a negative round crashed before round zero.
    """

    ENGINES = [run_protocol, run_protocol_reference]

    @pytest.mark.parametrize("engine", ENGINES, ids=["optimized", "reference"])
    @pytest.mark.parametrize("bad_round", [2.5, "3", None, True])
    def test_non_int_crash_round_raises_naming_node(self, engine, bad_round):
        protocol = ScriptProtocol({0: [Listen()]})
        with pytest.raises(ConfigurationError, match="node 0 must be an int"):
            engine(
                empty_graph(1), protocol, CD, seed=0,
                faults=FaultPlan(crashes={0: bad_round}),
            )

    @pytest.mark.parametrize("engine", ENGINES, ids=["optimized", "reference"])
    def test_negative_crash_round_raises_naming_node(self, engine):
        protocol = ScriptProtocol({0: [Listen()], 5: [Listen()]})
        with pytest.raises(
            ConfigurationError, match="node 5 must be non-negative"
        ):
            engine(
                empty_graph(6), protocol, CD, seed=0,
                faults=FaultPlan(crashes={5: -1}),
            )

    @pytest.mark.parametrize("engine", ENGINES, ids=["optimized", "reference"])
    def test_valid_schedule_untouched(self, engine):
        protocol = ScriptProtocol({0: [Listen(), Listen()]})
        result = engine(
            empty_graph(1), protocol, CD, seed=0, faults=FaultPlan(crashes={0: 1})
        )
        assert result.node_stats[0].crashed


class TestSurvivorMetrics:
    def test_surviving_views(self):
        graph = star_graph(6)
        # Crash the hub early so the leaves never hear a winner's claim
        # from it; survivors are the leaves.
        protocol = CDMISProtocol()
        result = run_protocol(
            graph, protocol, CD, seed=3, faults=FaultPlan(crashes={0: 0})
        )
        assert result.crashed_nodes == frozenset({0})
        assert result.surviving_mis_independent()
        # Leaves are mutually non-adjacent: each must join on its own.
        assert result.surviving_coverage() == 1.0
        assert result.mis - {0} == frozenset(range(1, 6))

    def test_coverage_degrades_gracefully(self):
        # Crash a random tenth of nodes mid-run; survivors' coverage
        # stays high because most of the MIS is decided by then.
        graph = gnp_random_graph(50, 0.12, seed=4)
        protocol = CDMISProtocol()
        crashes = {node: 20 for node in range(0, 50, 10)}
        coverages = []
        for seed in range(10):
            result = run_protocol(
                graph, protocol, CD, seed=seed, faults=FaultPlan(crashes=crashes)
            )
            assert result.surviving_mis_independent()
            coverages.append(result.surviving_coverage())
        assert sum(coverages) / len(coverages) >= 0.9

    def test_all_crashed_coverage_is_one(self):
        protocol = ScriptProtocol({0: [Listen()], 1: [Listen()]})
        result = run_protocol(
            empty_graph(2), protocol, CD, seed=0,
            faults=FaultPlan(crashes={0: 0, 1: 0}),
        )
        assert result.surviving_coverage() == 1.0
