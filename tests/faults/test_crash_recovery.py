"""Engine-level crash–recovery semantics and fault-plan edge cases.

Every scenario runs through *both* engines (the optimized hot path and
the specification oracle) — equality between them is part of each assertion
set, extending the golden bit-identity contract to faulty runs.
"""

import pytest

from repro.analysis.runner import run_trials
from repro.core import CDMISProtocol
from repro.constants import ConstantsProfile
from repro.faults import CrashEvent, FaultPlan
from repro.graphs import empty_graph, gnp_random_graph, path_graph
from repro.radio import CD, Listen, Transmit, run_protocol
from repro.radio._engine_reference import run_protocol_reference
from tests.radio.test_engine import ScriptProtocol

FAST = ConstantsProfile.fast()


def run_both(graph, protocol, model, seed, **kwargs):
    reference = run_protocol_reference(graph, protocol, model, seed=seed, **kwargs)
    optimized = run_protocol(graph, protocol, model, seed=seed, **kwargs)
    assert optimized == reference
    return optimized


class TestRecoverySemantics:
    def test_recovered_node_replays_from_scratch(self):
        protocol = ScriptProtocol({0: [Listen()] * 4})
        plan = FaultPlan(crashes={0: CrashEvent(2, 3)})
        result = run_both(empty_graph(1), protocol, CD, 0, faults=plan)
        stats = result.node_stats[0]
        assert stats.restarts == 1
        assert stats.last_restart_round == 5  # crash at 2, +3 delay
        assert not stats.crashed  # it came back
        assert 0 in result.restarted_nodes
        # Fresh protocol state: the restarted incarnation records all
        # four of its listens; energy counts both incarnations' rounds
        # (2 listens before the crash + 4 after).
        assert len(result.node_info[0]["seen"]) == 4
        assert stats.listen_rounds == 6
        assert stats.finish_round == 9

    def test_crash_stop_still_terminal(self):
        protocol = ScriptProtocol({0: [Listen()] * 4})
        plan = FaultPlan(crashes={0: CrashEvent(2)})
        result = run_both(empty_graph(1), protocol, CD, 0, faults=plan)
        stats = result.node_stats[0]
        assert stats.crashed
        assert stats.restarts == 0
        assert stats.last_restart_round == -1
        assert stats.listen_rounds == 2

    def test_crash_at_round_zero_with_recovery(self):
        protocol = ScriptProtocol({0: [Transmit(9)], 1: [Listen(), Listen(), Listen()]})
        plan = FaultPlan(crashes={0: CrashEvent(0, 2)})
        result = run_both(path_graph(2), protocol, CD, 0, faults=plan)
        # Node 0's transmit is pre-empted by the round-0 crash, then
        # replayed by the restarted incarnation at round 2.
        assert result.node_info[1]["seen"] == ["silence", "silence", "message(9)"]
        assert result.node_stats[0].restarts == 1

    def test_multiple_crash_recovery_cycles_on_one_node(self):
        protocol = ScriptProtocol({0: [Listen()] * 3})
        plan = FaultPlan(
            crashes={0: [CrashEvent(1, 2), CrashEvent(4, 2)]}
        )
        result = run_both(empty_graph(1), protocol, CD, 0, faults=plan)
        stats = result.node_stats[0]
        # Timeline: listen@0, crash@1, restart@3, listen@3, crash@4,
        # restart@6, listens@6..8.
        assert stats.restarts == 2
        assert stats.last_restart_round == 6
        assert not stats.crashed
        assert stats.listen_rounds == 5

    def test_recovery_then_crash_stop(self):
        protocol = ScriptProtocol({0: [Listen()] * 5})
        plan = FaultPlan(
            crashes={0: [CrashEvent(1, 2), CrashEvent(4)]}
        )
        result = run_both(empty_graph(1), protocol, CD, 0, faults=plan)
        stats = result.node_stats[0]
        assert stats.restarts == 1
        assert stats.crashed
        assert stats.finish_round == 4

    def test_crash_before_wake_is_fatal_while_asleep(self):
        protocol = ScriptProtocol({0: [Listen()] * 2})
        plan = FaultPlan(crashes={0: CrashEvent(4)})
        result = run_both(
            empty_graph(1), protocol, CD, 0, faults=plan,
            wake_schedule={0: 10},
        )
        stats = result.node_stats[0]
        assert stats.crashed
        assert stats.awake_rounds == 0  # never got to act
        assert stats.finish_round == 4

    def test_crash_after_termination_is_noop(self):
        protocol = ScriptProtocol({0: [Listen()]})
        plan = FaultPlan(crashes={0: CrashEvent(100, 5)})
        result = run_both(empty_graph(1), protocol, CD, 0, faults=plan)
        assert not result.node_stats[0].crashed
        assert result.node_stats[0].restarts == 0

    def test_restart_rngs_differ_from_first_incarnation(self):
        class CoinFlipper(ScriptProtocol):
            def run(self, ctx):
                ctx.info["coins"] = [ctx.rng.random() for _ in range(3)]
                for _ in range(4):
                    yield Listen()

        plan = FaultPlan(crashes={0: CrashEvent(2, 2)})
        with_faults = run_both(
            empty_graph(1), CoinFlipper({}), CD, 7, faults=plan
        )
        without = run_both(empty_graph(1), CoinFlipper({}), CD, 7)
        assert with_faults.node_info[0]["coins"] != without.node_info[0]["coins"]


class TestNoopNormalization:
    def test_noop_plan_is_bit_identical_to_no_plan(self):
        graph = gnp_random_graph(30, 0.2, seed=5)
        protocol = CDMISProtocol(constants=FAST)
        baseline = run_protocol(graph, protocol, CD, seed=5)
        assert run_protocol(
            graph, protocol, CD, seed=5, faults=FaultPlan(seed=99)
        ) == baseline

    def test_real_protocol_recovery_is_measured_not_hidden(self):
        # Recovery is *allowed* to break independence (a restarted node
        # can win next to an already-committed MIS member) — the
        # degradation metric must agree with the boolean check either
        # way, and both engines must agree on the whole result.
        graph = gnp_random_graph(30, 0.2, seed=2)
        plan = FaultPlan(seed=2, crash_fraction=0.2, crash_round=10,
                         crash_recovery=8)
        result = run_both(
            graph, CDMISProtocol(constants=FAST), CD, 2, faults=plan
        )
        assert result.restarted_nodes
        violation_rate = result.independence_violation_rate()
        assert (violation_rate > 0.0) == (not result.surviving_mis_independent())


class TestBatteryDeterminism:
    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(seed=1, drop_p=0.03),
            FaultPlan(seed=1, crash_fraction=0.2, crash_round=8,
                      crash_recovery=6, max_wake_skew=2),
        ],
        ids=["drop", "crash-recovery+skew"],
    )
    def test_sequential_and_pool_agree_under_faults(self, plan):
        def battery(jobs):
            return run_trials(
                lambda seed: gnp_random_graph(24, 0.25, seed=seed),
                CDMISProtocol(constants=FAST),
                CD,
                seeds=range(6),
                jobs=jobs,
                faults=plan,
            ).outcomes

        assert battery(1) == battery(2)
