"""Tests for Algorithm 1 (CD MIS) and its beeping variant."""

import math

import pytest

from repro.constants import ConstantsProfile
from repro.core import BeepingMISProtocol, CDMISProtocol
from repro.graphs import (
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_random_graph,
    matching_plus_isolated_graph,
    path_graph,
    star_graph,
)
from repro.radio import BEEPING, CD, Decision, run_protocol


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid_on_random_graph(self, fast_constants, seed):
        graph = gnp_random_graph(48, 0.15, seed=seed)
        result = run_protocol(
            graph, CDMISProtocol(constants=fast_constants), CD, seed=seed
        )
        assert result.is_valid_mis()

    def test_valid_on_small_suite(self, fast_constants, small_graphs):
        for graph in small_graphs:
            result = run_protocol(
                graph, CDMISProtocol(constants=fast_constants), CD, seed=11
            )
            assert result.is_valid_mis(), graph.name

    def test_isolated_nodes_always_join(self, fast_constants):
        graph = empty_graph(6)
        result = run_protocol(
            graph, CDMISProtocol(constants=fast_constants), CD, seed=0
        )
        assert result.mis == frozenset(range(6))

    def test_clique_selects_exactly_one(self, fast_constants):
        for seed in range(5):
            result = run_protocol(
                complete_graph(12), CDMISProtocol(constants=fast_constants), CD, seed=seed
            )
            assert result.is_valid_mis()
            assert len(result.mis) == 1

    def test_star_valid(self, fast_constants):
        # Either the hub alone or all leaves.
        result = run_protocol(
            star_graph(12), CDMISProtocol(constants=fast_constants), CD, seed=2
        )
        assert result.is_valid_mis()
        assert result.mis == frozenset({0}) or result.mis == frozenset(range(1, 12))

    def test_hard_instance(self, fast_constants):
        graph = matching_plus_isolated_graph(24)
        result = run_protocol(
            graph, CDMISProtocol(constants=fast_constants), CD, seed=1
        )
        assert result.is_valid_mis()

    def test_failure_rate_small(self, fast_constants):
        graph = gnp_random_graph(40, 0.15, seed=0)
        failures = sum(
            0
            if run_protocol(
                graph, CDMISProtocol(constants=fast_constants), CD, seed=s
            ).is_valid_mis()
            else 1
            for s in range(40)
        )
        assert failures <= 2


class TestEnergyAndRounds:
    def test_round_budget_respected(self, fast_constants):
        graph = gnp_random_graph(64, 0.1, seed=1)
        protocol = CDMISProtocol(constants=fast_constants)
        result = run_protocol(graph, protocol, CD, seed=1)
        assert result.rounds <= protocol.max_rounds_hint(64, graph.max_degree())

    def test_phase_alignment(self, fast_constants):
        # Every decision lands at a phase boundary: finish rounds are
        # multiples of (bits + 1).
        graph = gnp_random_graph(32, 0.2, seed=2)
        protocol = CDMISProtocol(constants=fast_constants)
        result = run_protocol(graph, protocol, CD, seed=2)
        phase_length = fast_constants.rank_bits(32) + 1
        for stats in result.node_stats:
            assert stats.finish_round % phase_length == 0

    def test_energy_scales_like_log_n(self, practical_constants):
        # Theorem 2's shape check: energy at n=512 stays within a small
        # factor of energy at n=64 (log growth), far below the 8x a
        # linear dependence would give.
        energies = {}
        for n in (64, 512):
            graph = gnp_random_graph(n, 8.0 / (n - 1), seed=3)
            result = run_protocol(
                graph, CDMISProtocol(constants=practical_constants), CD, seed=3
            )
            energies[n] = result.max_energy
        assert energies[512] <= 2.5 * energies[64]

    def test_winner_energy_within_one_phase_of_losers(self, fast_constants):
        # Late rounds fit inside a single Luby phase (Theorem 2 proof).
        graph = complete_graph(10)
        result = run_protocol(
            graph, CDMISProtocol(constants=fast_constants), CD, seed=4
        )
        bits = fast_constants.rank_bits(10)
        winner = next(iter(result.mis))
        assert result.node_stats[winner].awake_rounds <= result.rounds


class TestInstrumentation:
    def test_phase_log_recorded(self, fast_constants):
        graph = path_graph(6)
        protocol = CDMISProtocol(constants=fast_constants, instrument=True)
        result = run_protocol(graph, protocol, CD, seed=3)
        for node, info in enumerate(result.node_info):
            assert "phase_log" in info
            assert info["decided_phase"] is not None
            last = info["phase_log"][-1]
            assert last["outcome"] in ("win", "dominated")

    def test_no_instrumentation_by_default(self, fast_constants):
        result = run_protocol(
            path_graph(4), CDMISProtocol(constants=fast_constants), CD, seed=3
        )
        assert all("phase_log" not in info for info in result.node_info)

    def test_decided_phase_monotone_with_outcome(self, fast_constants):
        graph = gnp_random_graph(24, 0.2, seed=6)
        protocol = CDMISProtocol(constants=fast_constants, instrument=True)
        result = run_protocol(graph, protocol, CD, seed=6)
        for info in result.node_info:
            phases = [entry["phase"] for entry in info["phase_log"]]
            assert phases == sorted(phases)


class TestBeepingEquivalence:
    def test_identical_trajectories_in_cd_and_beep(self, fast_constants):
        # Algorithm 1 only tests "heard anything", which CD and beeping
        # answer identically — so the whole run must coincide per seed.
        graph = gnp_random_graph(32, 0.15, seed=8)
        cd_result = run_protocol(
            graph, CDMISProtocol(constants=fast_constants), CD, seed=8
        )
        beep_result = run_protocol(
            graph, BeepingMISProtocol(constants=fast_constants), BEEPING, seed=8
        )
        assert cd_result.mis == beep_result.mis
        assert cd_result.rounds == beep_result.rounds
        assert [s.awake_rounds for s in cd_result.node_stats] == [
            s.awake_rounds for s in beep_result.node_stats
        ]

    def test_beeping_valid(self, fast_constants, small_graphs):
        for graph in small_graphs:
            result = run_protocol(
                graph, BeepingMISProtocol(constants=fast_constants), BEEPING, seed=9
            )
            assert result.is_valid_mis(), graph.name

    def test_cd_protocol_also_runs_on_beep_model(self, fast_constants):
        result = run_protocol(
            cycle_graph(9), CDMISProtocol(constants=fast_constants), BEEPING, seed=1
        )
        assert result.is_valid_mis()


class TestUnaryCommunication:
    def test_only_ones_transmitted(self, fast_constants):
        from repro.radio import TraceRecorder

        trace = TraceRecorder()
        run_protocol(
            gnp_random_graph(24, 0.2, seed=4),
            CDMISProtocol(constants=fast_constants),
            CD,
            seed=4,
            trace=trace,
        )
        payloads = {event.payload for event in trace.transmissions()}
        assert payloads == {1}
