"""Fork-based process pools for trial execution.

Trials are independent randomized executions, so a battery parallelizes
by partitioning its seed list across worker processes.  Each
(index, seed) pair travels with its position in the original list, so
the caller can merge results back into seed order — parallel output is
bit-identical to sequential output.

Two pool shapes live here:

* :func:`run_in_pool` — the fast path: chunked ``multiprocessing.Pool``
  execution for well-behaved trials.  A worker exception fails the
  whole batch (it propagates to the caller once the other chunks are
  done), so campaigns that need to survive poisoned seeds go through
  the resilient pool instead;
* :func:`run_resilient_in_pool` — one fresh fork per trial attempt,
  supervised over pipes: per-trial wall-clock deadlines are enforced by
  killing the worker (hangs included — no cooperation needed from the
  trial), failures retry with the policy's backoff, and seeds that
  exhaust their budget report through ``on_failure`` instead of
  aborting the battery.

Both require the ``fork`` start method: the per-trial callable is a
closure over the protocol, model, and graph factory (often lambdas),
which ``fork`` workers inherit by address-space copy without pickling.
On platforms without ``fork`` the executor layer transparently falls
back to sequential execution.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import multiprocessing.connection
import time
from collections import deque
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..obs.registry import get_registry
from .resilience import RetryPolicy, TrialError, describe_error

__all__ = [
    "fork_available",
    "partition_chunks",
    "run_in_pool",
    "run_resilient_in_pool",
]

IndexedSeed = Tuple[int, int]  # (position in the seed list, master seed)

# Worker-process state, installed by the pool initializer.  Inherited
# via fork, so arbitrary closures are fine.
_WORKER_RUN_ONE: Optional[Callable[[int], Any]] = None


def _init_worker(run_one: Callable[[int], Any]) -> None:
    global _WORKER_RUN_ONE
    _WORKER_RUN_ONE = run_one


def _run_chunk(chunk: Sequence[IndexedSeed]) -> List[Tuple[int, Any]]:
    assert _WORKER_RUN_ONE is not None, "pool worker not initialized"
    return [(index, _WORKER_RUN_ONE(seed)) for index, seed in chunk]


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def partition_chunks(
    items: Sequence[IndexedSeed],
    jobs: int,
    chunk_size: Optional[int] = None,
) -> List[List[IndexedSeed]]:
    """Split the work list into contiguous chunks.

    The default size targets ~4 chunks per worker, balancing scheduling
    overhead against load-balance for heterogeneous trial durations.
    """
    if not items:
        return []
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(items) / max(1, jobs * 4)))
    return [
        list(items[start : start + chunk_size])
        for start in range(0, len(items), chunk_size)
    ]


def run_in_pool(
    run_one: Callable[[int], Any],
    indexed_seeds: Sequence[IndexedSeed],
    jobs: int,
    on_result: Optional[Callable[[int, Any], None]] = None,
    chunk_size: Optional[int] = None,
) -> List[Tuple[int, Any]]:
    """Run ``run_one(seed)`` for every (index, seed) pair via a fork pool.

    ``on_result(index, outcome)`` fires in the parent as each result
    arrives (chunk completion order, i.e. non-deterministic order — the
    indices are what restore determinism).  Returns all (index, outcome)
    pairs.  A worker exception propagates to the caller once the other
    chunks have finished (their results still reach ``on_result``);
    batteries that must survive failing or hanging seeds run under a
    :class:`~repro.exec.resilience.RetryPolicy`, which routes them
    through :func:`run_resilient_in_pool` instead.

    The pool always shuts down with ``close`` and ``join``, never by
    killing a busy worker: ``Pool.terminate`` can kill a worker while it
    holds the result queue's write lock, and the pool's own shutdown
    then waits on that lock forever.
    """
    chunks = partition_chunks(list(indexed_seeds), jobs, chunk_size)
    if not chunks:
        return []
    context = multiprocessing.get_context("fork")
    workers = max(1, min(jobs, len(chunks)))
    registry = get_registry()
    if registry.enabled:
        registry.counter("exec.pool.batches").inc()
        registry.counter("exec.pool.chunks").inc(len(chunks))
        registry.histogram("exec.pool.workers").observe(workers)
    results: List[Tuple[int, Any]] = []
    failure: Optional[Exception] = None
    with context.Pool(
        processes=workers, initializer=_init_worker, initargs=(run_one,)
    ) as pool:
        chunk_results = pool.imap_unordered(_run_chunk, chunks)
        for _ in chunks:
            try:
                chunk_result = next(chunk_results)
            except Exception as exc:  # re-raised once the pool has drained
                failure = failure or exc
                continue
            for index, outcome in chunk_result:
                if on_result is not None:
                    on_result(index, outcome)
                results.append((index, outcome))
        pool.close()
        pool.join()
    if failure is not None:
        raise failure
    return results


# ----------------------------------------------------------------------
# Resilient per-trial pool (timeouts, retries, quarantine)
# ----------------------------------------------------------------------


def _resilient_worker(run_one, seed, connection) -> None:
    """Child side of one trial attempt: run, then ship the verdict."""
    try:
        outcome = run_one(seed)
    except BaseException as exc:
        connection.send(("error",) + describe_error(exc))
    else:
        try:
            connection.send(("ok", outcome))
        except Exception as exc:  # unpicklable outcome
            connection.send(("error",) + describe_error(exc))
    finally:
        connection.close()


def run_resilient_in_pool(
    run_one: Callable[[int], Any],
    indexed_seeds: Sequence[IndexedSeed],
    jobs: int,
    policy: RetryPolicy,
    on_result: Callable[[int, Any], None],
    on_failure: Callable[[int, int, int, TrialError], None],
) -> None:
    """Supervised fork-per-trial execution under a retry policy.

    Each attempt runs in its own fresh fork with a result pipe back to
    the parent.  The supervisor enforces ``policy.timeout_s`` by
    terminating the worker (so hard hangs — C loops, deadlocks — are
    bounded too), retries failed attempts after the policy's backoff
    (without blocking other trials: the retry waits in a delay queue
    while other seeds run), and hands seeds that exhaust their budget to
    ``on_failure(index, seed, attempts, error)``.  A worker that dies
    without reporting (segfault, ``os._exit``) counts as a failed
    attempt, not a battery abort.
    """
    registry = get_registry()
    context = multiprocessing.get_context("fork")
    #: Trials ready to start: (index, seed, attempt) — attempt is 1-based.
    queue = deque((index, seed, 1) for index, seed in indexed_seeds)
    #: Backoff parking lot: (not_before, index, seed, next_attempt).
    delayed: List[Tuple[float, int, int, int]] = []
    #: In-flight attempts: reader-connection -> bookkeeping.
    running: dict = {}

    def handle_failure(index, seed, attempt, error: TrialError) -> None:
        if attempt >= policy.max_attempts:
            on_failure(index, seed, attempt, error)
            return
        if registry.enabled:
            registry.counter("exec.trials.retries").inc()
        not_before = time.monotonic() + policy.backoff_s(seed, attempt)
        heapq.heappush(delayed, (not_before, index, seed, attempt + 1))

    try:
        while queue or delayed or running:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, index, seed, attempt = heapq.heappop(delayed)
                queue.append((index, seed, attempt))
            while queue and len(running) < max(1, jobs):
                index, seed, attempt = queue.popleft()
                reader, writer = context.Pipe(duplex=False)
                process = context.Process(
                    target=_resilient_worker,
                    args=(run_one, seed, writer),
                    daemon=True,
                )
                process.start()
                writer.close()  # parent keeps only the read end
                deadline = (
                    now + policy.timeout_s
                    if policy.timeout_s is not None
                    else None
                )
                running[reader] = (process, index, seed, attempt, deadline)
            if not running:
                # Everything is parked in the backoff queue.
                time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                continue

            wait_until = min(
                (entry[4] for entry in running.values() if entry[4] is not None),
                default=None,
            )
            if delayed:
                head = delayed[0][0]
                wait_until = head if wait_until is None else min(wait_until, head)
            timeout = (
                None
                if wait_until is None
                else max(0.0, wait_until - time.monotonic())
            )
            ready = multiprocessing.connection.wait(
                list(running), timeout=timeout
            )

            for reader in ready:
                process, index, seed, attempt, _ = running.pop(reader)
                try:
                    verdict = reader.recv()
                except EOFError:
                    # Died without reporting: segfault, os._exit, kill.
                    verdict = (
                        "error",
                        "WorkerCrashed",
                        f"worker for seed {seed} exited without a result",
                        "",
                    )
                reader.close()
                process.join()
                if verdict[0] == "ok":
                    on_result(index, verdict[1])
                else:
                    handle_failure(index, seed, attempt, verdict[1:])

            now = time.monotonic()
            expired = [
                reader
                for reader, entry in running.items()
                if entry[4] is not None and entry[4] <= now
            ]
            for reader in expired:
                process, index, seed, attempt, _ = running.pop(reader)
                process.terminate()
                process.join()
                reader.close()
                if registry.enabled:
                    registry.counter("exec.trials.timeouts").inc()
                handle_failure(
                    index,
                    seed,
                    attempt,
                    (
                        "TrialTimeoutError",
                        f"trial exceeded timeout of {policy.timeout_s:g}s",
                        "",
                    ),
                )
    finally:
        for reader, (process, *_rest) in running.items():
            process.terminate()
            process.join()
            reader.close()
