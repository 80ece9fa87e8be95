"""Tests for the multi-trial runner and size-sweep harness."""

import pytest

from repro.analysis.runner import run_trials
from repro.analysis.sweep import run_size_sweep
from repro.core import CDMISProtocol
from repro.graphs import gnp_random_graph, path_graph
from repro.radio import CD


class TestRunTrials:
    def test_fixed_graph(self, fast_constants):
        summary = run_trials(
            path_graph(8), CDMISProtocol(constants=fast_constants), CD, seeds=range(5)
        )
        assert summary.trials == 5
        assert summary.failures == 0
        assert summary.failure_rate == 0.0
        assert summary.graph_name == "path(n=8)"

    def test_graph_factory(self, fast_constants):
        summary = run_trials(
            lambda seed: gnp_random_graph(16, 0.2, seed=seed),
            CDMISProtocol(constants=fast_constants),
            CD,
            seeds=range(4),
        )
        assert summary.trials == 4

    def test_summaries_consistent(self, fast_constants):
        summary = run_trials(
            path_graph(8), CDMISProtocol(constants=fast_constants), CD, seeds=range(5)
        )
        energy = summary.max_energy_summary()
        assert energy.count == 5
        assert energy.minimum <= energy.mean <= energy.maximum
        rounds = summary.rounds_summary()
        assert rounds.minimum >= 1
        sizes = summary.mis_size_summary()
        assert sizes.minimum >= 1

    @pytest.mark.parametrize("engine, trials", [("scalar", 6), ("batch", 48)])
    def test_factory_builds_one_graph_per_trial(
        self, fast_constants, engine, trials
    ):
        if engine == "batch":
            pytest.importorskip("numpy")
        built = []

        def factory(seed):
            built.append(seed)
            return gnp_random_graph(16, 0.2, seed=seed)

        summary = run_trials(
            factory,
            CDMISProtocol(constants=fast_constants),
            CD,
            range(trials),
            cache=False,
            engine=engine,
        )
        assert summary.trials == trials
        assert len(built) == trials

    def test_interval_sane(self, fast_constants):
        summary = run_trials(
            path_graph(6), CDMISProtocol(constants=fast_constants), CD, seeds=range(3)
        )
        low, high = summary.failure_rate_interval()
        assert 0.0 <= low <= high <= 1.0

    def test_describe_renders(self, fast_constants):
        summary = run_trials(
            path_graph(6), CDMISProtocol(constants=fast_constants), CD, seeds=range(2)
        )
        text = summary.describe()
        assert "trials" in text and "max-energy" in text


class TestSizeSweep:
    def test_sweep_shape(self, fast_constants):
        result = run_size_sweep(
            (16, 32),
            lambda n, seed: gnp_random_graph(n, 0.2, seed=seed),
            lambda n: CDMISProtocol(constants=fast_constants),
            CD,
            trials=3,
        )
        assert result.sizes == [16, 32]
        assert len(result.points) == 2
        assert all(point.trials == 3 for point in result.points)

    def test_series_and_fit(self, fast_constants):
        result = run_size_sweep(
            (16, 32, 64, 128),
            lambda n, seed: gnp_random_graph(n, 8.0 / (n - 1), seed=seed),
            lambda n: CDMISProtocol(constants=fast_constants),
            CD,
            trials=3,
        )
        series = result.series("max_energy_mean")
        assert len(series) == 4
        fit = result.fit("max_energy_mean")
        # CD MIS energy is Theta(log n): fitted exponent far below 2.
        assert fit.exponent < 2.0

    def test_table_renders(self, fast_constants):
        result = run_size_sweep(
            (16, 32),
            lambda n, seed: gnp_random_graph(n, 0.2, seed=seed),
            lambda n: CDMISProtocol(constants=fast_constants),
            CD,
            trials=2,
        )
        table = result.to_table()
        assert "cd-mis@cd" in table
        assert "fail%" in table
