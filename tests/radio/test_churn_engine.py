"""Golden churn cases: hand-picked topology events with known repair
behaviour, checked bit-identically on both engines.

Complements the randomized suite (:mod:`tests.faults.test_churn_fuzz`)
with cases whose repair dynamics are fully predictable: an edge insert
between two decided ``IN_MIS`` nodes, an edge delete that undominates
an ``OUT_MIS`` node, a join wave landing mid-run, the departure of a
decided MIS node, and a 512-node acceptance run.  The no-CD energy
protocol, the one that reads a joiner's phase anchor and the run-wide
degree bound, gets its own oracle comparison under churn.
"""

import pytest

from repro.constants import ConstantsProfile
from repro.core import CDMISProtocol, NoCDEnergyMISProtocol
from repro.faults import ChurnPlan, FaultPlan
from repro.graphs import Graph, gnp_random_graph
from repro.radio import CD, NO_CD, run_protocol
from repro.radio._engine_reference import run_protocol_reference

FAST = ConstantsProfile.fast()


def run_both(graph, plan, seed, constants=FAST):
    protocol = CDMISProtocol(constants=constants)
    optimized = run_protocol(graph, protocol, CD, seed=seed, faults=plan)
    reference = run_protocol_reference(
        graph, protocol, CD, seed=seed, faults=plan
    )
    assert optimized == reference
    if optimized.final_graph is not None:
        assert set(optimized.final_graph.edges) == set(
            reference.final_graph.edges
        )
    return optimized


class TestNoopPlan:
    def test_noop_churn_plan_matches_static_run(self):
        graph = gnp_random_graph(24, 0.2, seed=3)
        protocol = CDMISProtocol(constants=FAST)
        static = run_protocol(graph, protocol, CD, seed=3)
        churned = run_protocol(
            graph, protocol, CD, seed=3, faults=FaultPlan(churn=ChurnPlan())
        )
        assert churned == static
        assert churned.final_graph is None
        assert churned.churn_events == ()


class TestEdgeToggleRepair:
    def test_insert_between_two_in_mis_nodes_repairs(self):
        # Two isolated nodes both join the MIS immediately; a guaranteed
        # toggle (p=1, one live pair) then inserts the edge between
        # them, breaking independence — exactly one must restart out.
        graph = Graph(2, [], name="two-isolated")
        plan = FaultPlan(seed=5, churn=ChurnPlan(edge_p=1.0, start=30, stop=31))
        result = run_both(graph, plan, seed=5)
        assert result.churn_events == (("toggle", 1),)
        assert set(result.final_graph.edges) == {(0, 1)}
        assert result.is_valid_mis()
        assert len(result.mis) == 1  # K2 has a singleton MIS
        assert result.mis_violation_window > 0
        assert result.repair_rounds > 0
        assert result.repair_energy > 0
        # The one event needed a repair window with a positive settle.
        ((event_round, settle),) = result.time_to_restabilize
        assert event_round == 30 and settle is not None and settle > 0
        # Repair restarts register like crash recoveries, so the
        # generic stabilization metric sees them too (it counts from
        # the restart round, the window from the event round).
        assert 0 < result.time_to_stabilize() <= settle

    def test_delete_undominating_edge_repairs(self):
        # K2 decides one node in, one out; deleting its only edge
        # leaves the OUT node undominated, so it must restart into the
        # MIS — the final (empty) graph has both nodes in.
        graph = Graph(2, [(0, 1)], name="pair")
        plan = FaultPlan(seed=0, churn=ChurnPlan(edge_p=1.0, start=40, stop=41))
        result = run_both(graph, plan, seed=0)
        assert result.churn_events == (("toggle", 1),)
        assert result.final_graph.edges == ()
        assert result.is_valid_mis()
        assert result.mis == frozenset({0, 1})
        restarted = [stats for stats in result.node_stats if stats.restarts]
        assert len(restarted) == 1


class TestJoinMidRun:
    def test_joiners_decide_and_final_mis_covers_them(self):
        graph = gnp_random_graph(16, 0.25, seed=7)
        plan = FaultPlan(seed=7, churn=ChurnPlan(joins=((12, 3),)))
        result = run_both(graph, plan, seed=7)
        assert ("join", 3) in result.churn_events
        assert result.final_graph.num_nodes == 19
        assert result.is_valid_mis()
        joiners = [
            stats for stats in result.node_stats if stats.node >= 16
        ]
        assert len(joiners) == 3
        for stats in joiners:
            assert stats.decision.name in ("IN_MIS", "OUT_MIS")
            assert stats.finish_round >= 12  # woke at the join round
        # A join breaks nothing by itself: if no other repair window
        # covered it, its restabilization entry is an immediate 0.
        entries = dict(result.time_to_restabilize)
        assert entries.get(12, 0) is not None


class TestNoCDEnergyUnderChurn:
    @pytest.mark.parametrize("seed", range(4))
    def test_edge_churn_and_join_wave_match_oracle(self, seed):
        # Joiners anchor their phase schedule at the join round
        # (ctx.restart_round), and every node sizes its schedule by the
        # run-wide degree bound (ctx.delta): both differ from the static
        # graph's values only under churn.
        graph = gnp_random_graph(24, 0.2, seed=seed)
        plan = FaultPlan(
            seed=seed,
            churn=ChurnPlan(edge_p=0.05, start=5, stop=60, joins=((20, 2),)),
        )
        protocol = NoCDEnergyMISProtocol(constants=FAST)
        optimized = run_protocol(graph, protocol, NO_CD, seed=seed, faults=plan)
        reference = run_protocol_reference(
            graph, protocol, NO_CD, seed=seed, faults=plan
        )
        assert optimized == reference
        assert ("join", 2) in optimized.churn_events
        assert optimized.final_graph.num_nodes == 26


class TestLeaveOfDecidedMISNode:
    def test_departure_undominates_and_repair_restabilizes(self):
        # Find a MIS node that uniquely dominates some neighbor in the
        # static run; its departure must open a violation window and
        # repair must re-cover the orphaned neighbor.
        graph = gnp_random_graph(20, 0.15, seed=9)
        protocol = CDMISProtocol(constants=FAST)
        static = run_protocol(graph, protocol, CD, seed=9)
        assert static.is_valid_mis()
        target = None
        for candidate in sorted(static.mis):
            for neighbor in graph.neighbor_set(candidate):
                if neighbor in static.mis:
                    continue
                if graph.neighbor_set(neighbor) & static.mis == {candidate}:
                    target = candidate
                    break
            if target is not None:
                break
        assert target is not None, "seed must yield a unique dominator"
        finish = max(stats.finish_round for stats in static.node_stats)

        plan = FaultPlan(
            seed=9, churn=ChurnPlan(leaves=((target, finish + 4),))
        )
        result = run_both(graph, plan, seed=9)
        assert result.churn_events == (("leave", 1),)
        assert result.left_nodes == frozenset({target})
        assert target not in result.mis
        assert result.is_valid_mis()
        assert result.mis_violation_window > 0
        # The leaver's stats are labelled left, not crashed.
        (stats,) = [s for s in result.node_stats if s.node == target]
        assert stats.left and not stats.crashed
        # Its edges are gone from the final topology.
        assert all(target not in edge for edge in result.final_graph.edges)

    def test_leave_distinct_from_crash(self):
        # A crash keeps the topology: the dead node's neighbors stay
        # dominated on paper. A leave rewires: same node, same round,
        # different final graph.
        graph = Graph(3, [(0, 1), (1, 2)], name="path")
        leave = run_both(
            graph, FaultPlan(seed=4, churn=ChurnPlan(leaves=((1, 50),)))
        , seed=4)
        assert all(1 not in edge for edge in leave.final_graph.edges)
        crash = run_protocol(
            graph,
            CDMISProtocol(constants=FAST),
            CD,
            seed=4,
            faults=FaultPlan(seed=4, crashes={1: 50}),
        )
        assert crash.final_graph is None  # topology untouched


class TestAcceptance512:
    def test_512_node_gnp_churn_restabilizes_bit_identically(self):
        # The issue's acceptance run: n=512 G(n,p) under churn=0.01
        # over rounds 10..200 converges to a valid MIS of the final
        # graph, identically in both engines.
        n = 512
        graph = gnp_random_graph(n, 8.0 / (n - 1), seed=11)
        plan = FaultPlan(
            seed=11, churn=ChurnPlan(edge_p=0.01, start=10, stop=200)
        )
        result = run_both(
            graph, plan, seed=11, constants=ConstantsProfile.practical()
        )
        assert result.is_valid_mis()
        assert sum(count for _, count in result.churn_events) >= 1
        # Every event either broke nothing (0) or restabilized (finite).
        assert all(
            settle is not None for _, settle in result.time_to_restabilize
        )
