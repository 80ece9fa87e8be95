"""The supervised fork pool every pooled or retry-governed battery runs in.

Trials are independent randomized executions, so a battery parallelizes
by spreading its seeds over worker processes.  Each (index, seed) pair
travels with its position in the original list, so the caller merges
results back into seed order — parallel output is bit-identical to
sequential output.

:func:`run_in_pool` forks its workers once per battery and feeds each
one seed at a time over its own pipe.  The parent supervises them: it
enforces the policy's per-attempt deadline by terminating the worker
(hard hangs included — no cooperation needed from the trial) and by
reading a reply whose trial ran past it as a timeout, detects a
worker that died without reporting (segfault, ``os._exit``) by the
pipe's end-of-file, retries a failed attempt after the policy's backoff
in a fresh process, and hands seeds that exhaust their budget to
``on_failure`` instead of aborting the battery.

The pool requires the ``fork`` start method: the per-trial callable is
a closure over the protocol, model, and graph factory (often lambdas),
which ``fork`` workers inherit by address-space copy without pickling.
Without ``fork`` an unpoliced battery runs in-process, and an active
:class:`~repro.exec.resilience.RetryPolicy` is refused by
:func:`require_fork` where it is installed.
"""

from __future__ import annotations

import heapq
import multiprocessing
import multiprocessing.connection
import pickle
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..obs.registry import get_registry
from .resilience import RetryPolicy, TrialTimeoutError, WorkerCrashed

__all__ = ["fork_available", "require_fork", "run_in_pool"]

IndexedSeed = Tuple[int, int]  # (position in the seed list, master seed)

#: ``on_failure(index, seed, attempts, exception, traceback_text)``.
FailureCallback = Callable[[int, int, int, BaseException, str], None]


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def require_fork(policy: Optional[RetryPolicy]) -> None:
    """Refuse an active policy on a platform that cannot enforce it."""
    if policy is not None and policy.active and not fork_available():
        raise ConfigurationError(
            "a trial timeout or retry budget needs the 'fork' start method, "
            "which this platform lacks; drop --trial-timeout and "
            "--max-retries to run in-process"
        )


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _serve(run_one: Callable[[int], Any], connection) -> None:
    """Worker loop: run each seed received, reply, stop on ``None``.

    A result travels with the trial's own run time, so the parent can
    tell an overrun from a reply it merely read late.
    """
    for seed in iter(connection.recv, None):
        try:
            start = time.monotonic()
            outcome = run_one(seed)
            connection.send((True, outcome, time.monotonic() - start))
        except BaseException as exc:  # the trial's, or an unpicklable outcome
            connection.send((False, _portable(exc), traceback.format_exc()))


def run_in_pool(
    run_one: Callable[[int], Any],
    indexed_seeds: Sequence[IndexedSeed],
    jobs: int,
    policy: RetryPolicy,
    on_result: Callable[[int, Any], None],
    on_failure: FailureCallback,
) -> None:
    """Run ``run_one(seed)`` for every (index, seed) pair in fork workers.

    ``on_result(index, outcome)`` fires in the parent as each outcome
    arrives (completion order; the indices restore seed order).  A
    failed attempt — an exception, a deadline overrun
    (:class:`TrialTimeoutError`) or a dead worker
    (:class:`WorkerCrashed`) — retires its worker and, while the
    policy's budget lasts, retries the seed after its backoff; an
    exhausted seed reports through ``on_failure`` and the battery goes
    on.  Retries wait in a delay queue while other seeds run.
    """
    context = multiprocessing.get_context("fork")
    registry = get_registry()
    size = max(1, min(jobs, len(indexed_seeds)))
    if registry.enabled:
        registry.counter("exec.pool.batches").inc()
        registry.histogram("exec.pool.workers").observe(size)
    #: Attempts ready to start: (index, seed, attempt), attempt 1-based.
    ready = deque((index, seed, 1) for index, seed in indexed_seeds)
    #: Backoff parking lot: (not_before, index, seed, next_attempt).
    delayed: List[Tuple[float, int, int, int]] = []
    idle: List[Tuple[Any, Any]] = []  # (process, connection)
    #: connection -> (process, index, seed, attempt, deadline)
    busy: Dict[Any, Tuple[Any, int, int, int, Optional[float]]] = {}

    def spawn() -> Tuple[Any, Any]:
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=_serve, args=(run_one, child_end), daemon=True
        )
        process.start()
        child_end.close()  # EOF on parent_end now means the worker died
        return process, parent_end

    def retire(process, connection, kill: bool) -> None:
        try:
            if not kill:
                connection.send(None)  # lets the worker exit cleanly
        except OSError:  # it already died
            kill = True
        if kill:
            process.terminate()
        connection.close()
        process.join()

    def timed_out(index, seed, attempt) -> None:
        if registry.enabled:
            registry.counter("exec.trials.timeouts").inc()
        message = f"trial exceeded timeout of {policy.timeout_s:g}s"
        failed(index, seed, attempt, TrialTimeoutError(message), "")

    def failed(index, seed, attempt, exc: BaseException, trace: str) -> None:
        if attempt >= policy.max_attempts:
            on_failure(index, seed, attempt, exc, trace)
            return
        if registry.enabled:
            registry.counter("exec.trials.retries").inc()
        not_before = time.monotonic() + policy.backoff_s(seed, attempt)
        heapq.heappush(delayed, (not_before, index, seed, attempt + 1))

    try:
        while ready or delayed or busy:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                ready.append(heapq.heappop(delayed)[1:])
            while ready and (idle or len(busy) < size):
                process, connection = idle.pop() if idle else spawn()
                index, seed, attempt = ready.popleft()
                try:
                    connection.send(seed)
                except OSError:  # died while idle: recv reports the crash
                    pass
                deadline = None if policy.timeout_s is None else (
                    time.monotonic() + policy.timeout_s
                )
                busy[connection] = (process, index, seed, attempt, deadline)
            wake = [entry[4] for entry in busy.values() if entry[4] is not None]
            if delayed:
                wake.append(delayed[0][0])
            timeout = (
                max(0.0, min(wake) - time.monotonic()) if wake else None
            )
            for connection in multiprocessing.connection.wait(
                list(busy), timeout=timeout
            ):
                process, index, seed, attempt, _ = busy.pop(connection)
                try:
                    ok, *reply = connection.recv()
                except EOFError:
                    ok, reply = False, [
                        WorkerCrashed(
                            f"worker for seed {seed} exited without a result"
                        ),
                        "",
                    ]
                if ok:
                    idle.append((process, connection))
                    outcome, elapsed = reply
                    if policy.timeout_s is not None and elapsed > policy.timeout_s:
                        # Finished, but past its deadline: an overrun
                        # however soon the parent got to the reply.
                        timed_out(index, seed, attempt)
                    else:
                        on_result(index, outcome)
                else:
                    # Retries and later seeds start in a fresh process.
                    retire(process, connection, kill=True)
                    failed(index, seed, attempt, *reply)
            now = time.monotonic()
            for connection, entry in list(busy.items()):
                process, index, seed, attempt, deadline = entry
                if deadline is not None and deadline <= now:
                    del busy[connection]
                    retire(process, connection, kill=True)
                    timed_out(index, seed, attempt)
    finally:
        for process, connection in idle:
            retire(process, connection, kill=False)
        for connection, (process, *_) in busy.items():
            retire(process, connection, kill=True)
