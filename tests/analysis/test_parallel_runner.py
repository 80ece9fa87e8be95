"""Parallel-vs-sequential equivalence, caching, and seed-decoupling tests
for :func:`repro.analysis.runner.run_trials`."""

import pytest

from repro.analysis.runner import run_trials
from repro.core import CDMISProtocol
from repro.constants import ConstantsProfile
from repro.exec.cache import ResultCache
from repro.exec.executor import execution_defaults
from repro.exec.seeds import graph_seed, protocol_seed
from repro.graphs import gnp_random_graph, path_graph
from repro.radio import CD
from repro.radio.engine import run_protocol


def factory(seed):
    return gnp_random_graph(24, 0.2, seed=seed)


class TestParallelEquivalence:
    def test_jobs4_identical_to_sequential(self, fast_constants):
        protocol = CDMISProtocol(constants=fast_constants)
        sequential = run_trials(factory, protocol, CD, range(8), jobs=1)
        parallel = run_trials(factory, protocol, CD, range(8), jobs=4)
        assert parallel.outcomes == sequential.outcomes
        assert parallel.graph_name == sequential.graph_name

    def test_fixed_graph_parallel(self, fast_constants):
        protocol = CDMISProtocol(constants=fast_constants)
        sequential = run_trials(path_graph(10), protocol, CD, range(6), jobs=1)
        parallel = run_trials(path_graph(10), protocol, CD, range(6), jobs=3)
        assert parallel.outcomes == sequential.outcomes

    def test_jobs_from_execution_defaults(self, fast_constants):
        protocol = CDMISProtocol(constants=fast_constants)
        baseline = run_trials(factory, protocol, CD, range(4))
        with execution_defaults(jobs=4):
            parallel = run_trials(factory, protocol, CD, range(4))
        assert parallel.outcomes == baseline.outcomes


class TestCaching:
    def test_second_run_is_all_hits(self, fast_constants, tmp_path):
        protocol = CDMISProtocol(constants=fast_constants)
        cache = ResultCache(tmp_path / "cache")
        first = run_trials(
            factory, protocol, CD, range(6), cache=cache, graph_spec="gnp/n=24"
        )
        assert cache.stats.hits == 0 and cache.stats.writes == 6
        second = run_trials(
            factory, protocol, CD, range(6), cache=cache, graph_spec="gnp/n=24"
        )
        assert cache.stats.hits == 6
        assert second.outcomes == first.outcomes

    def test_cached_outcomes_identical_across_processes(
        self, fast_constants, tmp_path
    ):
        protocol = CDMISProtocol(constants=fast_constants)
        root = tmp_path / "cache"
        first = run_trials(
            factory, protocol, CD, range(6), jobs=4,
            cache=ResultCache(root), graph_spec="gnp/n=24",
        )
        fresh = ResultCache(root)
        second = run_trials(
            factory, protocol, CD, range(6), jobs=1,
            cache=fresh, graph_spec="gnp/n=24",
        )
        assert fresh.stats.hits == 6 and fresh.stats.misses == 0
        assert second.outcomes == first.outcomes

    def test_changed_constants_profile_misses(self, fast_constants, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_trials(
            factory, CDMISProtocol(constants=fast_constants), CD, range(4),
            cache=cache, graph_spec="gnp/n=24",
        )
        other = CDMISProtocol(constants=ConstantsProfile.practical())
        run_trials(factory, other, CD, range(4), cache=cache, graph_spec="gnp/n=24")
        assert cache.stats.hits == 0
        assert cache.stats.writes == 8

    def test_fixed_graph_cached_without_spec(self, fast_constants, tmp_path):
        protocol = CDMISProtocol(constants=fast_constants)
        cache = ResultCache(tmp_path / "cache")
        run_trials(path_graph(10), protocol, CD, range(4), cache=cache)
        run_trials(path_graph(10), protocol, CD, range(4), cache=cache)
        assert cache.stats.hits == 4

    def test_factory_without_spec_skips_cache(self, fast_constants, tmp_path):
        protocol = CDMISProtocol(constants=fast_constants)
        cache = ResultCache(tmp_path / "cache")
        run_trials(factory, protocol, CD, range(4), cache=cache)
        assert cache.stats.lookups == 0 and cache.stats.writes == 0

    def test_progress_reports_hits_and_eta(self, fast_constants, tmp_path):
        protocol = CDMISProtocol(constants=fast_constants)
        cache = ResultCache(tmp_path / "cache")
        run_trials(factory, protocol, CD, range(4), cache=cache,
                   graph_spec="gnp/n=24")
        events = []
        run_trials(factory, protocol, CD, range(4), cache=cache,
                   graph_spec="gnp/n=24", progress=events.append)
        assert len(events) == 1  # everything served from cache
        assert events[0].done == events[0].total == events[0].cache_hits == 4
        assert events[0].eta_s == 0.0


class TestSeedDecoupling:
    def test_factory_seed_differs_from_protocol_seed(self, fast_constants):
        seen = []

        def spy_factory(seed):
            seen.append(seed)
            return gnp_random_graph(16, 0.2, seed=seed)

        run_trials(
            spy_factory, CDMISProtocol(constants=fast_constants), CD, [5]
        )
        # One build for the summary's graph name + one for the trial.
        assert all(seed == graph_seed(5) for seed in seen)
        assert graph_seed(5) != 5

    def test_decoupled_uses_derived_protocol_seed(self, fast_constants):
        protocol = CDMISProtocol(constants=fast_constants)
        summary = run_trials(factory, protocol, CD, [9])
        result = run_protocol(
            factory(graph_seed(9)), protocol, CD, seed=protocol_seed(9)
        )
        outcome = summary.outcomes[0]
        assert outcome.rounds == result.rounds
        assert outcome.max_energy == result.max_energy

    def test_fixed_graph_keeps_master_seed(self, fast_constants):
        protocol = CDMISProtocol(constants=fast_constants)
        summary = run_trials(path_graph(10), protocol, CD, [3])
        result = run_protocol(path_graph(10), protocol, CD, seed=3)
        assert summary.outcomes[0].rounds == result.rounds
        assert summary.outcomes[0].max_energy == result.max_energy


class TestDescribeMeanEnergy:
    def test_mean_energy_line_present(self, fast_constants):
        summary = run_trials(
            path_graph(8), CDMISProtocol(constants=fast_constants), CD,
            seeds=range(3),
        )
        text = summary.describe()
        assert "max-energy" in text and "mean-energy" in text
        mean_line = next(
            line for line in text.splitlines() if "mean-energy" in line
        )
        assert f"mean={summary.mean_energy_summary().mean:.2f}" in mean_line
