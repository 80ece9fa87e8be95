"""Tests for the statistics helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    percentile,
    summarize,
    wilson_interval,
)
from repro.errors import ConfigurationError

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSummarize:
    def test_basic(self):
        summary = summarize([1, 2, 3, 4, 5])
        assert summary.count == 5
        assert summary.mean == 3.0
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0
        assert summary.median == 3.0
        assert summary.stdev == pytest.approx(math.sqrt(2.5))

    def test_single_value(self):
        summary = summarize([7.0])
        assert summary.stdev == 0.0
        assert summary.median == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])

    def test_str(self):
        assert "mean=" in str(summarize([1, 2]))

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, values):
        summary = summarize(values)
        assert summary.minimum <= summary.median <= summary.maximum
        assert summary.minimum <= summary.mean <= summary.maximum
        assert summary.stdev >= 0


class TestPercentile:
    def test_endpoints(self):
        values = [3, 1, 2]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5.0
        assert percentile([0, 10, 20], 25) == 5.0

    def test_single_element(self):
        assert percentile([4], 75) == 4

    def test_range_validation(self):
        with pytest.raises(ConfigurationError):
            percentile([1], -1)
        with pytest.raises(ConfigurationError):
            percentile([], 50)

    @given(st.lists(finite_floats, min_size=1, max_size=30), st.floats(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_within_sample_range(self, values, q):
        result = percentile(values, q)
        assert min(values) <= result <= max(values)


class TestWilson:
    def test_half_centered(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high
        assert high - low < 0.25

    def test_extremes_clamped(self):
        low, high = wilson_interval(0, 20)
        assert low == 0.0
        low, high = wilson_interval(20, 20)
        assert high == 1.0

    def test_interval_narrows_with_trials(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(5, 10)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 0)
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 3)
        with pytest.raises(ConfigurationError):
            wilson_interval(-1, 3)

    @given(st.integers(0, 50), st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_contains_point_estimate(self, successes, extra):
        trials = successes + extra
        low, high = wilson_interval(successes, trials)
        assert low <= successes / trials <= high


class TestWilsonBoundaries:
    """Boundary behaviour the claims subsystem's rate predicates rely on."""

    @given(st.integers(1, 200))
    @settings(max_examples=50, deadline=None)
    def test_zero_successes_low_is_exactly_zero(self, trials):
        low, high = wilson_interval(0, trials)
        assert low == 0.0
        assert 0.0 < high <= 1.0

    @given(st.integers(1, 200))
    @settings(max_examples=50, deadline=None)
    def test_all_successes_high_is_exactly_one(self, trials):
        low, high = wilson_interval(trials, trials)
        assert high == 1.0
        assert 0.0 <= low < 1.0

    @given(st.integers(0, 100), st.integers(1, 100))
    @settings(max_examples=50, deadline=None)
    def test_endpoints_stay_in_unit_interval(self, successes, extra):
        trials = successes + extra
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= high <= 1.0

    def test_zero_z_collapses_to_proportion(self):
        assert wilson_interval(3, 10, z=0.0) == (0.3, 0.3)


class TestPercentileEdges:
    @given(st.lists(finite_floats, min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_extreme_quantiles_are_exact_min_max(self, values):
        assert percentile(values, 0.0) == min(values)
        assert percentile(values, 100.0) == max(values)

    def test_duplicates_do_not_break_interpolation(self):
        assert percentile([5.0, 5.0, 5.0, 5.0], 37.0) == 5.0

    def test_unsorted_input_matches_sorted(self):
        shuffled = [9.0, 1.0, 5.0, 3.0, 7.0]
        assert percentile(shuffled, 60.0) == percentile(sorted(shuffled), 60.0)

    def test_above_range_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 100.5)
