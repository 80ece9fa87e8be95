"""Tests for the executor facade, pool partitioning, and defaults."""

import threading
import time

import pytest

from repro.exec.cache import ResultCache
from repro.exec.executor import (
    ExecutionDefaults,
    ProcessPoolExecutor,
    ProgressEvent,
    SequentialExecutor,
    TrialExecutor,
    execution_defaults,
    get_execution_defaults,
    make_executor,
)
from repro.exec.pool import fork_available, partition_chunks, run_in_pool


def square(seed):
    return seed * seed


class TestPartitionChunks:
    def test_empty(self):
        assert partition_chunks([], 4) == []

    def test_covers_all_items_in_order(self):
        items = [(i, 10 + i) for i in range(10)]
        chunks = partition_chunks(items, 3)
        assert [pair for chunk in chunks for pair in chunk] == items

    def test_explicit_chunk_size(self):
        chunks = partition_chunks([(i, i) for i in range(5)], 2, chunk_size=2)
        assert [len(c) for c in chunks] == [2, 2, 1]

    def test_default_targets_four_chunks_per_worker(self):
        chunks = partition_chunks([(i, i) for i in range(80)], 2)
        assert len(chunks) == 8


@pytest.mark.skipif(not fork_available(), reason="requires fork start method")
class TestRunInPool:
    def test_results_cover_all_indices(self):
        pairs = run_in_pool(square, [(i, i) for i in range(9)], jobs=3)
        assert sorted(pairs) == [(i, i * i) for i in range(9)]

    def test_closures_cross_fork(self):
        offset = 1000
        pairs = run_in_pool(lambda s: s + offset, [(0, 1), (1, 2)], jobs=2)
        assert sorted(pairs) == [(0, 1001), (1, 1002)]

    def test_worker_exception_propagates(self):
        def boom(seed):
            raise ValueError(f"seed {seed}")

        with pytest.raises(ValueError, match="seed"):
            run_in_pool(boom, [(0, 0), (1, 1)], jobs=2)

    def test_worker_exception_waits_for_the_other_chunks(self):
        # The pool drains before the exception propagates, so no worker
        # is killed while it may hold the result queue's write lock.
        def boom_on_0(seed):
            if seed == 0:
                raise ValueError("seed 0")
            time.sleep(0.2)
            return seed

        reported = []
        with pytest.raises(ValueError, match="seed 0"):
            run_in_pool(
                boom_on_0,
                [(0, 0), (1, 1), (2, 2)],
                jobs=2,
                on_result=lambda index, outcome: reported.append(index),
                chunk_size=1,
            )
        assert sorted(reported) == [1, 2]


class TestExecutors:
    def test_sequential_order(self):
        outcomes = SequentialExecutor().execute(square, [3, 1, 2])
        assert outcomes == [9, 1, 4]

    def test_pool_matches_sequential(self):
        seeds = list(range(12))
        seq = SequentialExecutor().execute(square, seeds)
        par = ProcessPoolExecutor(jobs=4).execute(square, seeds)
        assert par == seq

    def test_make_executor(self):
        assert isinstance(make_executor(1), SequentialExecutor)
        pool = make_executor(4)
        assert isinstance(pool, ProcessPoolExecutor)
        assert pool.jobs == 4

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolExecutor(jobs=0)

    def test_cache_short_circuits_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        calls = []

        def run_one(seed):
            calls.append(seed)
            return seed * 10

        key_for = lambda seed: f"{seed:02d}" + "0" * 62  # noqa: E731
        executor = SequentialExecutor()
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
        executor = SequentialExecutor()
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

    jobs = 3

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
        pool = ProcessPoolExecutor(jobs=4).execute(
            square, seeds, progress=pool_events.append
        )
        seq = SequentialExecutor().execute(
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
