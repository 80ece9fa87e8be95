"""Tests for the Theorem 1 lower-bound package."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.lowerbound import (
    SUCCESS_THRESHOLD,
    EnergyCappedCDMIS,
    SynchronizedCoinStrategy,
    hard_instance,
    min_budget_for_success,
    run_lower_bound_experiment,
    sync_coin_failure,
    sync_coin_pair_failure,
    theorem1_exact_pair_bound,
    theorem1_failure_lower_bound,
)
from repro.radio import CD, run_protocol


class TestHardInstance:
    def test_structure(self):
        graph = hard_instance(32)
        assert graph.num_nodes == 32
        assert graph.num_edges == 8
        assert [graph.degree(node) for node in graph.nodes].count(0) == 16

    def test_requires_multiple_of_four(self):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            hard_instance(30)


class TestAnalytic:
    def test_thm1_bound_at_zero_budget(self):
        assert theorem1_failure_lower_bound(64, 0) == pytest.approx(
            1 - math.exp(-16.0)
        )

    def test_bounds_decreasing_in_budget(self):
        values = [theorem1_failure_lower_bound(64, b) for b in range(12)]
        assert values == sorted(values, reverse=True)

    def test_pair_bound_dominates_exponential_bound(self):
        for b in range(10):
            assert theorem1_exact_pair_bound(64, b) >= theorem1_failure_lower_bound(
                64, b
            )

    def test_coin_failure_dominates_thm1_bound(self):
        # The coin strategy is a *specific* member of the budget-b family,
        # so its failure law sits above the universal lower bound.
        for b in range(12):
            assert sync_coin_failure(256, b) >= theorem1_failure_lower_bound(256, b)

    def test_pair_failure(self):
        assert sync_coin_pair_failure(0) == 1.0
        assert sync_coin_pair_failure(3) == pytest.approx(1 / 8)

    def test_min_budget_scales_like_half_log(self):
        # Theorem 1: ~(1/2) log2 n at the e^{-1/4} threshold.
        for n in (64, 256, 1024, 4096):
            budget = min_budget_for_success(n)
            assert 0.4 * math.log2(n) <= budget <= 0.9 * math.log2(n) + 2

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            theorem1_failure_lower_bound(30, 1)  # not multiple of 4
        with pytest.raises(ConfigurationError):
            theorem1_failure_lower_bound(32, -1)
        with pytest.raises(ConfigurationError):
            sync_coin_pair_failure(-1)
        with pytest.raises(ConfigurationError):
            min_budget_for_success(64, target_failure=1.5)

    def test_threshold_value(self):
        assert SUCCESS_THRESHOLD == pytest.approx(math.exp(-0.25))

    @given(st.integers(1, 12), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_bounds_in_unit_interval(self, n4, budget):
        n = 4 * n4
        for value in (
            theorem1_failure_lower_bound(n, budget),
            theorem1_exact_pair_bound(n, budget),
            sync_coin_failure(n, budget),
        ):
            assert 0.0 <= value <= 1.0


class TestStrategies:
    def test_budget_respected_sync(self):
        graph = hard_instance(16)
        for budget in (0, 1, 3, 7):
            result = run_protocol(graph, SynchronizedCoinStrategy(budget), CD, seed=1)
            assert result.max_energy <= budget
            assert not result.undecided

    def test_budget_respected_capped_cd_mis(self, fast_constants):
        graph = hard_instance(16)
        for budget in (1, 4, 8):
            protocol = EnergyCappedCDMIS(budget, constants=fast_constants)
            result = run_protocol(graph, protocol, CD, seed=2)
            assert result.max_energy <= budget
            assert not result.undecided

    def test_zero_budget_everyone_joins(self):
        graph = hard_instance(8)
        result = run_protocol(graph, SynchronizedCoinStrategy(0), CD, seed=3)
        assert result.mis == frozenset(range(8))

    def test_isolated_nodes_always_join(self):
        graph = hard_instance(16)
        result = run_protocol(graph, SynchronizedCoinStrategy(6), CD, seed=4)
        for node in graph.nodes:
            if graph.degree(node) == 0:
                assert node in result.mis

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            SynchronizedCoinStrategy(-1)
        with pytest.raises(ConfigurationError):
            EnergyCappedCDMIS(-2)

    def test_capped_cd_mis_with_large_budget_is_correct(self, fast_constants):
        # With a generous budget, the cap never binds and Algorithm 1's
        # correctness shines through.
        graph = hard_instance(32)
        protocol = EnergyCappedCDMIS(10_000, constants=fast_constants)
        failures = sum(
            0 if run_protocol(graph, protocol, CD, seed=s).is_valid_mis() else 1
            for s in range(20)
        )
        assert failures <= 1


class TestExperiment:
    def test_report_structure(self):
        report = run_lower_bound_experiment(
            16, budgets=(1, 4), strategy_factory=SynchronizedCoinStrategy, trials=10
        )
        assert report.n == 16
        assert [point.budget for point in report.points] == [1, 4]
        assert all(point.trials == 10 for point in report.points)
        rows = report.rows()
        assert {"b", "empirical", "thm1_bound"} <= set(rows[0])

    def test_empirical_failure_decreases_with_budget(self):
        report = run_lower_bound_experiment(
            64,
            budgets=(1, 12),
            strategy_factory=SynchronizedCoinStrategy,
            trials=40,
        )
        assert report.points[0].empirical_failure > report.points[1].empirical_failure

    def test_empirical_tracks_exact_coin_law(self):
        # At b=2 the exact law for n=64 is 1-(3/4)^16 ~ 0.99.
        report = run_lower_bound_experiment(
            64, budgets=(2,), strategy_factory=SynchronizedCoinStrategy, trials=60
        )
        point = report.points[0]
        assert point.empirical_failure >= 0.85

    def test_max_energy_within_budget(self):
        report = run_lower_bound_experiment(
            32, budgets=(3,), strategy_factory=SynchronizedCoinStrategy, trials=10
        )
        assert report.points[0].max_energy_seen <= 3
