"""Tests for the idealized message-passing Luby baseline."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import greedy_mis, luby_mis
from repro.errors import SimulationError
from repro.graphs import complete_graph, empty_graph, gnp_random_graph


class TestLuby:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid(self, seed):
        graph = gnp_random_graph(60, 0.1, seed=seed)
        result = luby_mis(graph, seed=seed)
        assert graph.is_maximal_independent_set(result.mis)
        assert result.converged

    def test_empty_graph_one_phase(self):
        result = luby_mis(empty_graph(5), seed=0)
        assert result.mis == set(range(5))
        assert result.phases_used == 1

    def test_zero_node_graph(self):
        from repro.graphs import Graph

        result = luby_mis(Graph(0), seed=0)
        assert result.mis == set()
        assert result.phases_used == 0

    def test_residual_series_shape(self):
        graph = gnp_random_graph(60, 0.1, seed=3)
        result = luby_mis(graph, seed=3)
        assert result.residual_edges[0] == graph.num_edges
        assert result.residual_edges[-1] == 0
        assert result.residual_nodes[-1] == 0
        assert len(result.residual_edges) == result.phases_used + 1

    def test_residual_edges_monotone(self):
        graph = gnp_random_graph(60, 0.15, seed=4)
        result = luby_mis(graph, seed=4)
        for before, after in zip(result.residual_edges, result.residual_edges[1:]):
            assert after <= before

    def test_expected_halving_statistically(self):
        # Lemma 5's reference process: first-phase shrinkage averaged
        # over seeds must be at most ~1/2 (generous margin 0.6).
        graph = gnp_random_graph(80, 0.1, seed=5)
        ratios = []
        for seed in range(30):
            result = luby_mis(graph, seed=seed)
            if result.residual_edges[0]:
                ratios.append(result.residual_edges[1] / result.residual_edges[0])
        assert sum(ratios) / len(ratios) <= 0.6

    def test_discrete_ranks_variant(self):
        graph = gnp_random_graph(40, 0.15, seed=6)
        result = luby_mis(graph, seed=6, rank_bits=24)
        assert graph.is_maximal_independent_set(result.mis)

    def test_phase_budget_enforced(self):
        graph = complete_graph(30)
        with pytest.raises(SimulationError):
            luby_mis(graph, seed=0, max_phases=0)

    def test_phases_logarithmic(self):
        graph = gnp_random_graph(200, 0.05, seed=7)
        result = luby_mis(graph, seed=7)
        assert result.phases_used <= 20

    @given(st.integers(1, 30), st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_property_valid_on_random_graphs(self, n, seed):
        graph = gnp_random_graph(n, 0.2, seed=seed)
        result = luby_mis(graph, seed=seed)
        assert graph.is_maximal_independent_set(result.mis)


class TestAgreementAcrossAlgorithms:
    def test_mis_sizes_comparable(self):
        # Different MIS algorithms give different sets, but sizes live
        # within a small band on the same graph.
        graph = gnp_random_graph(80, 0.1, seed=9)
        sizes = {
            "greedy": len(greedy_mis(graph, rng=random.Random(1))),
            "luby": len(luby_mis(graph, seed=1).mis),
        }
        low, high = min(sizes.values()), max(sizes.values())
        assert high <= 1.6 * low
