"""Tests for the executor facade, the supervised pool, and defaults."""

import os
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.executor import (
    ExecutionDefaults,
    ProgressEvent,
    TrialExecutor,
    execution_defaults,
    get_execution_defaults,
)
from repro.exec.pool import fork_available, run_in_pool
from repro.exec.resilience import RetryPolicy
from repro.obs.registry import Registry, get_registry, recording


def square(seed):
    return seed * seed


def pool_run(run_one, pairs, jobs):
    """``run_in_pool`` without a retry budget: (results, failures)."""
    results, failures = [], []
    run_in_pool(
        run_one, pairs, jobs, RetryPolicy(),
        lambda index, outcome: results.append((index, outcome)),
        lambda index, seed, attempts, exc, trace: failures.append((index, exc)),
    )
    return sorted(results), failures


@pytest.mark.skipif(not fork_available(), reason="requires fork start method")
class TestRunInPool:
    def test_results_cover_all_indices(self):
        results, failures = pool_run(square, [(i, i) for i in range(9)], 3)
        assert results == [(i, i * i) for i in range(9)] and not failures

    def test_closures_cross_fork(self):
        offset = 1000
        results, _ = pool_run(lambda s: s + offset, [(0, 1), (1, 2)], 2)
        assert results == [(0, 1001), (1, 1002)]

    def test_worker_exception_propagates(self):
        # The worker's exception reaches the parent with its own type.
        def boom(seed):
            raise ValueError(f"seed {seed}")

        results, failures = pool_run(boom, [(0, 0), (1, 1)], 2)
        assert not results
        assert sorted(index for index, _ in failures) == [0, 1]
        assert all(isinstance(exc, ValueError) for _, exc in failures)

    def test_worker_exception_waits_for_the_other_chunks(self):
        # Without a policy the executor raises the first failure only
        # after every other seed has been reported.
        def boom_on_0(seed):
            if seed == 0:
                raise ValueError("seed 0")
            time.sleep(0.2)
            return seed

        events = []
        with pytest.raises(ValueError, match="seed 0"):
            TrialExecutor(jobs=2).execute(
                boom_on_0, [0, 1, 2, 3], progress=events.append
            )
        assert events[-1].done == 3

    def test_unpicklable_exception_arrives_named(self):
        class TwoArgError(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a}/{b}")

        def boom(seed):
            raise TwoArgError(seed, "x")

        _, [(index, exc)] = pool_run(boom, [(0, 5)], 1)
        assert isinstance(exc, RuntimeError) and "TwoArgError: 5/x" in str(exc)

    def test_worker_dying_while_idle_is_replaced(self):
        # Each worker exits shortly after replying, while the parent is
        # still busy in on_result: the next send finds it dead.
        def reply_then_die(seed):
            threading.Timer(0.05, os._exit, (0,)).start()
            return seed

        results = []

        def slow_on_result(index, outcome):
            results.append(outcome)
            time.sleep(0.3)

        run_in_pool(
            reply_then_die, [(0, 0), (1, 1)], 1,
            RetryPolicy(max_retries=1, backoff_base_s=0.0),
            slow_on_result, lambda *failure: results.append(failure),
        )
        assert results == [0, 1]

    def test_pooled_telemetry_merges_like_in_process(self):
        def counted(seed):
            get_registry().counter("test.trials").inc()
            get_registry().counter("test.seed_sum").inc(seed)
            get_registry().histogram("test.seed").observe(seed)
            return seed

        snapshots = []
        for jobs in (1, 2):
            with recording(Registry()) as registry:
                TrialExecutor(jobs).execute(counted, range(6))
            snapshot = registry.snapshot()
            snapshots.append(
                (
                    {
                        name: value
                        for name, value in snapshot["counters"].items()
                        if name.startswith(("test.", "exec.trials"))
                    },
                    snapshot["histograms"]["test.seed"],
                )
            )
        assert snapshots[0] == snapshots[1]
        assert snapshots[0][0]["test.seed_sum"] == 15


class TestExecutors:
    def test_sequential_order(self):
        outcomes = TrialExecutor().execute(square, [3, 1, 2])
        assert outcomes == [9, 1, 4]

    def test_pool_matches_sequential(self):
        seeds = list(range(12))
        seq = TrialExecutor().execute(square, seeds)
        par = TrialExecutor(jobs=4).execute(square, seeds)
        assert par == seq

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            TrialExecutor(jobs=0)

    def test_cache_short_circuits_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        calls = []

        def run_one(seed):
            calls.append(seed)
            return seed * 10

        key_for = lambda seed: f"{seed:02d}" + "0" * 62  # noqa: E731
        executor = TrialExecutor()
        first = executor.execute(
            run_one, [1, 2, 3], cache=cache, key_for=key_for,
            encode=lambda v: {"v": v}, decode=lambda r: r["v"],
        )
        assert first == [10, 20, 30] and calls == [1, 2, 3]
        second = executor.execute(
            run_one, [1, 2, 3], cache=cache, key_for=key_for,
            encode=lambda v: {"v": v}, decode=lambda r: r["v"],
        )
        assert second == first
        assert calls == [1, 2, 3]  # nothing re-ran
        assert cache.stats.hits == 3

    def test_progress_events(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key_for = lambda seed: f"{seed:02d}" + "0" * 62  # noqa: E731
        executor = TrialExecutor()
        executor.execute(
            square, [1, 2], cache=cache, key_for=key_for,
            encode=lambda v: {"v": v}, decode=lambda r: r["v"],
        )
        events = []
        executor.execute(
            square, [1, 2, 3], cache=cache, key_for=key_for,
            encode=lambda v: {"v": v}, decode=lambda r: r["v"],
            progress=events.append,
        )
        assert [event.done for event in events] == [2, 3]
        assert all(event.total == 3 for event in events)
        assert all(event.cache_hits == 2 for event in events)
        assert events[-1].eta_s == 0.0
        assert events[-1].remaining == 0


class ReversedCompletionExecutor(TrialExecutor):
    """Completes pending trials in reverse submission order.

    Models the pool's out-of-order chunk completions deterministically:
    ``on_result`` fires for the *last* pending trial first, so progress
    accounting and result placement must not assume arrival order.
    """

    def _dispatch(
        self, run_one, pending, on_result, policy=None, on_failure=None
    ) -> None:
        for index, seed in reversed(pending):
            on_result(index, run_one(seed))


class TestProgressEvent:
    def test_remaining_counts_down(self):
        event = ProgressEvent(
            done=3, total=10, cache_hits=1, elapsed_s=0.5, eta_s=1.0
        )
        assert event.remaining == 7

    def test_remaining_zero_when_done(self):
        event = ProgressEvent(
            done=10, total=10, cache_hits=0, elapsed_s=1.0, eta_s=0.0
        )
        assert event.remaining == 0

    def test_remaining_empty_battery(self):
        event = ProgressEvent(
            done=0, total=0, cache_hits=0, elapsed_s=0.0, eta_s=None
        )
        assert event.remaining == 0


class TestOutOfOrderProgress:
    """Progress/ETA emission when pool completions arrive out of order."""

    def test_done_is_monotonic_and_results_ordered(self):
        events = []
        results = ReversedCompletionExecutor().execute(
            square, [1, 2, 3, 4], progress=events.append
        )
        assert results == [1, 4, 9, 16]  # seed order, not completion order
        assert [event.done for event in events] == [0, 1, 2, 3, 4]
        assert [event.remaining for event in events] == [4, 3, 2, 1, 0]
        assert all(event.total == 4 for event in events)

    def test_eta_none_until_first_completion_then_zero_at_end(self):
        events = []
        ReversedCompletionExecutor().execute(
            square, [1, 2, 3], progress=events.append
        )
        assert events[0].eta_s is None  # nothing computed yet
        assert all(event.eta_s is not None for event in events[1:])
        assert events[-1].eta_s == 0.0

    def test_elapsed_is_monotonic(self):
        events = []
        ReversedCompletionExecutor().execute(
            square, [5, 6, 7], progress=events.append
        )
        elapsed = [event.elapsed_s for event in events]
        assert elapsed == sorted(elapsed)

    def test_cache_hits_counted_before_dispatch(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key_for = lambda seed: f"{seed:02d}" + "0" * 62  # noqa: E731
        encode, decode = lambda v: {"v": v}, lambda r: r["v"]  # noqa: E731
        ReversedCompletionExecutor().execute(
            square, [1, 2], cache=cache, key_for=key_for,
            encode=encode, decode=decode,
        )
        events = []
        results = ReversedCompletionExecutor().execute(
            square, [1, 2, 3, 4], cache=cache, key_for=key_for,
            encode=encode, decode=decode, progress=events.append,
        )
        assert results == [1, 4, 9, 16]
        # Initial event carries the cache hits; computed trials then
        # arrive out of order without disturbing the counters.
        assert [event.done for event in events] == [2, 3, 4]
        assert all(event.cache_hits == 2 for event in events)
        assert events[0].eta_s is None  # hits alone predict nothing
        assert events[-1].eta_s == 0.0
        assert events[-1].remaining == 0

    @pytest.mark.skipif(not fork_available(), reason="requires fork")
    def test_real_pool_progress_matches_sequential_accounting(self):
        seeds = list(range(8))
        pool_events, seq_events = [], []
        pool = TrialExecutor(jobs=4).execute(
            square, seeds, progress=pool_events.append
        )
        seq = TrialExecutor().execute(
            square, seeds, progress=seq_events.append
        )
        assert pool == seq
        assert [e.done for e in pool_events] == [e.done for e in seq_events]
        assert pool_events[-1].eta_s == 0.0 and pool_events[-1].remaining == 0


class TestExecutionDefaults:
    def test_default_is_sequential_uncached(self):
        defaults = get_execution_defaults()
        assert defaults == ExecutionDefaults(jobs=1, cache=None)

    def test_context_manager_swaps_and_restores(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with execution_defaults(jobs=4, cache=cache) as installed:
            assert installed.jobs == 4
            assert get_execution_defaults().cache is cache
            with execution_defaults(cache=None):
                assert get_execution_defaults().jobs == 4
                assert get_execution_defaults().cache is None
        assert get_execution_defaults() == ExecutionDefaults(jobs=1, cache=None)

    def test_active_policy_without_fork_is_refused(self, monkeypatch):
        monkeypatch.setattr("repro.exec.pool.fork_available", lambda: False)
        with pytest.raises(ConfigurationError, match="--trial-timeout"):
            ExecutionDefaults(policy=RetryPolicy(timeout_s=1.0))
        assert ExecutionDefaults(policy=RetryPolicy()).policy == RetryPolicy()

    def test_install_is_context_local(self):
        installed = threading.Event()
        release = threading.Event()
        seen = []

        def worker():
            with execution_defaults(jobs=4):
                seen.append(get_execution_defaults().jobs)
                installed.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert installed.wait(timeout=10)
            assert seen == [4]
            assert get_execution_defaults().jobs == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
