"""Retry / timeout / quarantine behaviour of the executor and its pool."""

import gc
import multiprocessing.connection
import os
import time

import pytest

from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.executor import TrialExecutor
from repro.exec.pool import fork_available, run_in_pool
from repro.exec.resilience import (
    QuarantinedTrial,
    QuarantineRecord,
    RetryPolicy,
    WorkerCrashed,
    is_quarantine_record,
)


def square(seed):
    return seed * seed


def boom_on_7(seed):
    if seed == 7:
        raise ValueError("seed 7 is poisoned")
    return seed * seed


def hang_on_7(seed):
    if seed == 7:
        time.sleep(60.0)
    return seed * seed


def exit_on_7(seed):
    if seed == 7:
        os._exit(3)  # dies without reporting, like a segfault
    return seed * seed


FAST_POLICY = RetryPolicy(max_retries=2, backoff_base_s=0.0)


class TestRetryPolicy:
    def test_defaults_inactive(self):
        assert not RetryPolicy().active
        assert RetryPolicy(max_retries=1).active
        assert RetryPolicy(timeout_s=5.0).active

    def test_max_attempts(self):
        assert RetryPolicy(max_retries=2).max_attempts == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"timeout_s": 0.0},
            {"timeout_s": -2.0},
            {"backoff_base_s": -0.1},
            {"jitter": -0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_backoff_grows_and_is_deterministic(self):
        policy = RetryPolicy(max_retries=5, backoff_base_s=0.25)
        first = policy.backoff_s(seed=3, attempt=1)
        second = policy.backoff_s(seed=3, attempt=2)
        assert 0.25 <= first <= 0.375  # base * (1 + jitter*U)
        assert second > first
        assert first == RetryPolicy(max_retries=5).backoff_s(seed=3, attempt=1)
        # Different seeds jitter differently (no thundering herd).
        assert first != policy.backoff_s(seed=4, attempt=1)

    def test_backoff_caps(self):
        policy = RetryPolicy(
            max_retries=50, backoff_base_s=1.0, backoff_cap_s=4.0, jitter=0.0
        )
        assert policy.backoff_s(seed=0, attempt=40) == 4.0


class TestQuarantineRecord:
    def test_cache_round_trip(self):
        record = QuarantineRecord(
            seed=7, attempts=3, error_type="ValueError",
            message="boom", traceback="trace...",
        )
        encoded = record.to_record()
        assert is_quarantine_record(encoded)
        assert QuarantineRecord.from_record(encoded) == record

    def test_ordinary_records_not_mistaken(self):
        assert not is_quarantine_record({"valid": True, "mis_size": 4})
        assert not is_quarantine_record(None)

    def test_describe_names_seed_and_error(self):
        record = QuarantineRecord(
            seed=7, attempts=3, error_type="ValueError",
            message="boom", traceback="",
        )
        text = record.describe()
        assert "7" in text and "ValueError" in text


def executors():
    # Under a policy both run in the supervised pool, one or two
    # workers wide; without one, jobs=1 runs in-process.
    yield "sequential", TrialExecutor(jobs=1)
    yield "pool", TrialExecutor(jobs=2)


@pytest.mark.skipif(not fork_available(), reason="requires fork start method")
@pytest.mark.parametrize(
    "executor", [e for _, e in executors()], ids=[n for n, _ in executors()]
)
class TestQuarantine:
    def test_poisoned_seed_quarantined_others_complete(self, executor):
        results = executor.execute(
            boom_on_7, [5, 6, 7, 8], policy=FAST_POLICY
        )
        assert results[0] == 25 and results[1] == 36 and results[3] == 64
        quarantined = results[2]
        assert isinstance(quarantined, QuarantinedTrial)
        assert quarantined.record.seed == 7
        assert quarantined.record.attempts == FAST_POLICY.max_attempts
        assert quarantined.record.error_type == "ValueError"
        assert not quarantined.from_cache

    def test_quarantine_persists_through_cache(self, executor, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        calls = {"count": 0}

        def key_for(seed):
            return f"seed-{seed}"

        def flaky(seed):
            calls["count"] += 1
            return boom_on_7(seed)

        first = executor.execute(
            flaky, [6, 7], cache=cache, key_for=key_for, policy=FAST_POLICY
        )
        assert isinstance(first[1], QuarantinedTrial)
        assert is_quarantine_record(cache.get(key_for(7)))

        # Resume: the poisoned seed is skipped outright, not re-run.
        resumed = TrialExecutor().execute(
            boom_on_7, [6, 7], cache=cache, key_for=key_for, policy=FAST_POLICY
        )
        assert resumed[0] == 36
        assert isinstance(resumed[1], QuarantinedTrial)
        assert resumed[1].from_cache

    def test_without_policy_failures_still_propagate(self, executor):
        with pytest.raises(ValueError, match="poisoned"):
            executor.execute(boom_on_7, [7])

    def test_flaky_seed_recovers_within_budget(self, executor, tmp_path):
        # Fails twice, succeeds on the third attempt — inside the
        # policy's budget, so no quarantine.  A file tracks attempts
        # across pool workers (fork shares no state back).
        marker = tmp_path / "attempts"

        def flaky(seed):
            count = len(marker.read_text()) if marker.exists() else 0
            if seed == 7 and count < 2:
                marker.write_text("x" * (count + 1))
                raise ValueError("transient")
            return seed * seed

        results = executor.execute(flaky, [7], policy=FAST_POLICY)
        assert results == [49]

    def test_retry_runs_in_a_fresh_process(self, executor, tmp_path):
        marker = tmp_path / "failed-pid"

        def fails_once(seed):
            if not marker.exists():
                marker.write_text(str(os.getpid()))
                raise ValueError("first attempt")
            return os.getpid()

        [pid] = executor.execute(fails_once, [7], policy=FAST_POLICY)
        assert pid not in (int(marker.read_text()), os.getpid())

    def test_dead_worker_quarantined_others_complete(self, executor):
        results = executor.execute(
            exit_on_7, [6, 7, 8], policy=RetryPolicy(max_retries=1)
        )
        assert results[0] == 36 and results[2] == 64
        assert isinstance(results[1], QuarantinedTrial)
        assert results[1].record.error_type == "WorkerCrashed"
        assert results[1].record.attempts == 2


@pytest.mark.skipif(not fork_available(), reason="requires fork start method")
class TestTimeouts:
    def test_hung_trial_is_killed_and_quarantined(self):
        policy = RetryPolicy(timeout_s=0.5, backoff_base_s=0.0)
        start = time.monotonic()
        results = TrialExecutor(jobs=2).execute(
            hang_on_7, [6, 7, 8], policy=policy
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # nowhere near the 60 s sleep
        assert results[0] == 36 and results[2] == 64
        assert isinstance(results[1], QuarantinedTrial)
        assert results[1].record.error_type == "TrialTimeoutError"

    def test_sequential_timeout_interrupts_main_thread(self):
        # jobs=1 under a timeout runs in a one-worker pool, so the hung
        # trial is killed too.
        policy = RetryPolicy(timeout_s=0.2, backoff_base_s=0.0)
        start = time.monotonic()
        results = TrialExecutor(jobs=1).execute(hang_on_7, [7], policy=policy)
        assert time.monotonic() - start < 30.0
        assert isinstance(results[0], QuarantinedTrial)
        assert results[0].record.error_type == "TrialTimeoutError"

    def test_sequential_timeout_swallowed_by_a_gc_callback_still_counts(self):
        # A trial stuck in a gc callback cannot be interrupted from
        # inside its process; the supervisor kills the worker instead.
        def slow_callback(phase, info):
            time.sleep(0.5)

        def trial(seed):
            gc.callbacks.append(slow_callback)
            try:
                gc.collect()
            finally:
                gc.callbacks.remove(slow_callback)
            return seed

        policy = RetryPolicy(timeout_s=0.05, backoff_base_s=0.0)
        results = TrialExecutor(jobs=1).execute(trial, [7], policy=policy)
        assert isinstance(results[0], QuarantinedTrial)
        assert results[0].record.error_type == "TrialTimeoutError"

    def test_overrun_read_after_its_reply_arrived_still_times_out(
        self, monkeypatch
    ):
        # The parent gets to the pipe only after the trial has replied,
        # so no deadline check fires first: the trial's own run time
        # must still mark the 50 ms run as over its 20 ms bound.
        real_wait = multiprocessing.connection.wait

        def late_wait(connections, timeout=None):
            time.sleep(0.1)
            return real_wait(connections, timeout)

        def slow(seed):
            time.sleep(0.05)
            return seed

        monkeypatch.setattr(multiprocessing.connection, "wait", late_wait)
        results, failures = [], []
        run_in_pool(
            slow, [(0, 7)], 1, RetryPolicy(timeout_s=0.02),
            lambda index, outcome: results.append(outcome),
            lambda index, seed, attempts, exc, trace: failures.append(
                (seed, type(exc).__name__)
            ),
        )
        assert not results
        assert failures == [(7, "TrialTimeoutError")]

    def test_dead_worker_without_policy_raises_instead_of_hanging(self):
        start = time.monotonic()
        with pytest.raises(WorkerCrashed, match="seed 7"):
            TrialExecutor(jobs=2).execute(exit_on_7, [6, 7, 8])
        assert time.monotonic() - start < 30.0


class TestAllQuarantined:
    def test_summary_describe_survives_empty_outcomes(self):
        # Regression: a battery whose every seed quarantined used to
        # crash describe() on summarize([]) instead of reporting.
        from repro.analysis.runner import TrialSummary

        record = QuarantineRecord(
            seed=7, attempts=3, error_type="TrialTimeoutError",
            message="trial exceeded timeout of 0.005s", traceback="",
        )
        summary = TrialSummary(
            protocol_name="cd-mis", model_name="cd", graph_name="gnp(8)",
            outcomes=[],
            quarantined=[QuarantinedTrial(record)],
        )
        text = summary.describe()
        assert "0 trials" in text
        assert "quarantined 1 seed" in text
        assert "TrialTimeoutError" in text


class TestDeterminism:
    @pytest.mark.skipif(not fork_available(), reason="requires fork")
    def test_pool_matches_sequential_under_quarantine(self):
        seq = TrialExecutor().execute(
            boom_on_7, list(range(10)), policy=FAST_POLICY
        )
        par = TrialExecutor(jobs=3).execute(
            boom_on_7, list(range(10)), policy=FAST_POLICY
        )
        assert [r for r in seq if not isinstance(r, QuarantinedTrial)] == [
            r for r in par if not isinstance(r, QuarantinedTrial)
        ]
        assert isinstance(seq[7], QuarantinedTrial)
        assert isinstance(par[7], QuarantinedTrial)
        assert par[7].record.seed == seq[7].record.seed == 7
