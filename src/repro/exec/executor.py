"""Executor facade: sequential / process-pool trial execution.

A :class:`TrialExecutor` turns a per-seed callable into a list of
outcomes, with two orthogonal services layered on top:

* **caching** — when given a :class:`~repro.exec.cache.ResultCache` and
  a key function, cached trials are served without execution and fresh
  results are persisted the moment they complete (interrupted batteries
  resume for free);
* **progress hooks** — an optional callback receives
  :class:`ProgressEvent` snapshots (trials done, cache hits, elapsed,
  ETA) as the battery advances.

When a recording :class:`~repro.obs.registry.Registry` is installed
(``repro.obs.recording`` / the CLI's ``--telemetry``), every battery is
instrumented for free: per-trial wall times, computed-vs-cache-hit
counts, and battery wall time land in the registry, and each trial runs
against its own fresh worker registry whose snapshot is merged back into
the parent's — so engine telemetry recorded inside fork-pool workers
aggregates exactly as in sequential runs.  With the default
:class:`~repro.obs.registry.NullRegistry` installed, none of this
machinery activates.

Both implementations produce outcomes in seed order;
:class:`ProcessPoolExecutor` is bit-identical to
:class:`SequentialExecutor` because each trial depends only on its own
master seed.

The module also holds the :class:`ExecutionDefaults` value that the
CLI installs once per command from its execution flags and telemetry
session; ``run_trials`` and ``run_records`` read it, so no layer
between the CLI and the runner takes execution parameters (progress
included) of its own.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ConfigurationError
from ..obs.registry import Registry, get_registry, recording
from .cache import ResultCache
from .pool import fork_available, run_in_pool, run_resilient_in_pool
from .resilience import (
    QuarantinedTrial,
    QuarantineRecord,
    RetryPolicy,
    TrialError,
    is_quarantine_record,
    run_resilient_sequential,
)

if TYPE_CHECKING:  # import cycle guard: repro.faults imports exec.seeds
    from ..faults.plan import FaultPlan

__all__ = [
    "ProgressEvent",
    "ProgressCallback",
    "TrialExecutor",
    "SequentialExecutor",
    "ProcessPoolExecutor",
    "make_executor",
    "ExecutionDefaults",
    "get_execution_defaults",
    "execution_defaults",
]


@dataclass(frozen=True)
class ProgressEvent:
    """Snapshot of a battery's progress, passed to progress callbacks."""

    done: int  # trials finished (computed + cache hits)
    total: int
    cache_hits: int
    elapsed_s: float
    eta_s: Optional[float]  # None until at least one trial finished

    @property
    def remaining(self) -> int:
        return self.total - self.done

    @classmethod
    def from_counts(
        cls, done: int, total: int, cache_hits: int, elapsed_s: float
    ) -> "ProgressEvent":
        """The event for these counts, with the ETA extrapolated from the
        trials computed so far (cache hits cost nothing)."""
        computed = done - cache_hits
        if done >= total:
            eta: Optional[float] = 0.0
        elif computed > 0:
            eta = elapsed_s / computed * (total - done)
        else:
            eta = None
        return cls(done, total, cache_hits, elapsed_s, eta)


ProgressCallback = Callable[[ProgressEvent], None]


class TrialExecutor(ABC):
    """Common cache + progress plumbing; subclasses supply dispatch."""

    #: Worker count this executor targets (1 for sequential).
    jobs: int = 1

    def execute(
        self,
        run_one: Callable[[int], Any],
        seeds: Sequence[int],
        *,
        cache: Optional[ResultCache] = None,
        key_for: Optional[Callable[[int], Optional[str]]] = None,
        encode: Optional[Callable[[Any], Dict]] = None,
        decode: Optional[Callable[[Dict], Any]] = None,
        progress: Optional[ProgressCallback] = None,
        policy: Optional[RetryPolicy] = None,
        run_many: Optional[Callable[[List[int]], List[Any]]] = None,
    ) -> List[Any]:
        """Run ``run_one(seed)`` for every seed, in seed order.

        When ``cache`` and ``key_for`` are given, each seed's key is
        looked up first; hits skip execution and misses are persisted on
        completion (``encode``/``decode`` translate between outcomes and
        the cache's JSON records).

        With an active :class:`~repro.exec.resilience.RetryPolicy`, a
        seed that keeps failing (or hanging, under ``timeout_s``) is
        retried up to the policy's budget and then **quarantined**: its
        result slot holds a :class:`QuarantinedTrial` instead of an
        outcome, the battery continues, and the quarantine record is
        persisted through the cache so resumed batteries skip the
        poisoned seed outright.  Without a policy, worker exceptions
        propagate and abort the battery (the historical fail-fast
        behaviour).

        When ``run_many`` is given, the uncached seeds are computed by
        one ``run_many(seeds) -> outcomes`` call in this process instead
        of per-seed dispatch (the batch engine's way of running a
        battery); ``run_one`` and ``policy`` go unused.  Under telemetry
        each of those trials records an equal share of the call's wall
        time, and whatever ``run_many`` records lands directly in the
        battery's registry.
        """
        seeds = list(seeds)
        total = len(seeds)
        results: List[Any] = [None] * total
        keys: Dict[int, str] = {}
        pending: List[Tuple[int, int]] = []
        cache_hits = 0
        start = time.monotonic()

        registry = get_registry()
        instrument = registry.enabled
        if instrument:
            # Each trial records into its own fresh registry (installed
            # around the call, so it is also what fork-pool workers see)
            # and ships (outcome, wall seconds, snapshot) back; the
            # parent-side merge in on_result below makes pooled and
            # sequential telemetry identical.
            base_run_one = run_one

            def run_one(seed: int) -> Tuple[Any, float, Dict]:
                with recording(Registry()) as trial_registry:
                    begin = time.perf_counter()
                    outcome = base_run_one(seed)
                    elapsed = time.perf_counter() - begin
                return outcome, elapsed, trial_registry.snapshot()

        quarantine_skips = 0
        for index, seed in enumerate(seeds):
            key = None
            if cache is not None and key_for is not None:
                key = key_for(seed)
            if key is not None:
                record = cache.get(key)
                if record is not None:
                    if is_quarantine_record(record):
                        # A previously poisoned seed: resume skips it
                        # rather than re-dying on it.
                        results[index] = QuarantinedTrial(
                            QuarantineRecord.from_record(record),
                            from_cache=True,
                        )
                        quarantine_skips += 1
                    else:
                        results[index] = decode(record) if decode else record
                    cache_hits += 1
                    continue
                keys[index] = key
            pending.append((index, seed))

        done = cache_hits

        def emit() -> None:
            if progress is not None:
                progress(
                    ProgressEvent.from_counts(
                        done, total, cache_hits, time.monotonic() - start
                    )
                )

        emit()

        def on_result(index: int, outcome: Any) -> None:
            nonlocal done
            if instrument:
                outcome, elapsed, snapshot = outcome
                registry.merge(snapshot)
                registry.histogram("exec.trial_wall_s").observe(elapsed)
                registry.counter("exec.trials.computed").inc()
            results[index] = outcome
            key = keys.get(index)
            if key is not None and cache is not None:
                cache.put(key, encode(outcome) if encode else outcome)
            done += 1
            emit()

        def on_failure(
            index: int, seed: int, attempts: int, error: TrialError
        ) -> None:
            nonlocal done
            error_type, message, trace = error
            record = QuarantineRecord(
                seed=seed,
                attempts=attempts,
                error_type=error_type,
                message=message,
                traceback=trace,
            )
            results[index] = QuarantinedTrial(record)
            key = keys.get(index)
            if key is not None and cache is not None:
                cache.put(key, record.to_record())
            if instrument:
                registry.counter("exec.trials.quarantined").inc()
            done += 1
            emit()

        if pending and run_many is not None:
            begin = time.perf_counter()
            computed = run_many([seed for _, seed in pending])
            share = (time.perf_counter() - begin) / len(pending)
            for (index, _), outcome in zip(pending, computed):
                on_result(index, (outcome, share, {}) if instrument else outcome)
        elif pending:
            self._dispatch(run_one, pending, on_result, policy, on_failure)
        if instrument:
            registry.counter("exec.batteries").inc()
            registry.counter("exec.trials.total").inc(total)
            registry.counter("exec.trials.cache_hits").inc(cache_hits)
            if quarantine_skips:
                registry.counter("exec.trials.quarantine_skips").inc(
                    quarantine_skips
                )
            registry.histogram("exec.jobs").observe(self.jobs)
            registry.histogram("exec.battery_wall_s").observe(
                time.monotonic() - start
            )
        return results

    @abstractmethod
    def _dispatch(
        self,
        run_one: Callable[[int], Any],
        pending: List[Tuple[int, int]],
        on_result: Callable[[int, Any], None],
        policy: Optional[RetryPolicy] = None,
        on_failure: Optional[Callable[[int, int, int, TrialError], None]] = None,
    ) -> None:
        """Execute every (index, seed) pair, reporting via ``on_result``.

        With an active ``policy``, exhausted seeds report via
        ``on_failure`` instead of raising.
        """


class SequentialExecutor(TrialExecutor):
    """In-process, one-trial-at-a-time execution (the reference order)."""

    jobs = 1

    def _dispatch(
        self, run_one, pending, on_result, policy=None, on_failure=None
    ) -> None:
        if policy is not None and policy.active:
            run_resilient_sequential(
                run_one, pending, policy, on_result, on_failure
            )
            return
        for index, seed in pending:
            on_result(index, run_one(seed))


class ProcessPoolExecutor(TrialExecutor):
    """Chunked fork-pool execution, merged back into seed order.

    Falls back to sequential execution when ``fork`` is unavailable
    (non-POSIX platforms) or the battery is too small to amortize a
    pool — either way the outcomes are identical.  Under an active
    retry policy the chunked pool is replaced by the supervised
    fork-per-trial pool, whose process kills bound hung trials.
    """

    def __init__(self, jobs: int, chunk_size: Optional[int] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.chunk_size = chunk_size

    def _dispatch(
        self, run_one, pending, on_result, policy=None, on_failure=None
    ) -> None:
        if policy is not None and policy.active:
            if not fork_available():
                run_resilient_sequential(
                    run_one, pending, policy, on_result, on_failure
                )
                return
            run_resilient_in_pool(
                run_one, pending, self.jobs, policy, on_result, on_failure
            )
            return
        if self.jobs <= 1 or len(pending) <= 1 or not fork_available():
            for index, seed in pending:
                on_result(index, run_one(seed))
            return
        run_in_pool(
            run_one,
            pending,
            self.jobs,
            on_result=on_result,
            chunk_size=self.chunk_size,
        )


def make_executor(jobs: int) -> TrialExecutor:
    """Executor for a worker count: sequential for 1, pool otherwise."""
    return SequentialExecutor() if jobs <= 1 else ProcessPoolExecutor(jobs)


# ----------------------------------------------------------------------
# Installed execution defaults
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionDefaults:
    """Execution settings consulted by ``run_trials`` and ``run_records``.

    A value validates itself on construction (and on
    :func:`dataclasses.replace`), so a bad combination fails where it is
    installed rather than deep inside a sweep.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    policy: Optional[RetryPolicy] = None
    faults: Optional["FaultPlan"] = None
    #: Engine backend: "auto" (batched when the battery qualifies),
    #: "scalar" (always the coroutine engine), or "batch" (force the
    #: batched backend; unbatchable batteries raise).
    engine: str = "auto"
    #: Batch-engine fan-out cap for no-CD competition rounds (None runs
    #: exact counts).  Setting it implies the batch engine.
    sparsify: Optional[int] = None
    #: Radio channel count: ``run_trials`` lifts the collision model with
    #: :class:`~repro.radio.models.MultichannelModel` when this exceeds 1.
    channels: int = 1
    #: Callback every battery reports :class:`ProgressEvent` updates to.
    progress: Optional[ProgressCallback] = None

    def __post_init__(self) -> None:
        if self.engine not in ("auto", "scalar", "batch"):
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected 'auto', 'scalar', "
                f"or 'batch'"
            )
        if self.sparsify is not None:
            if self.sparsify < 1:
                raise ConfigurationError(
                    f"sparsify cap must be a positive degree, got {self.sparsify}"
                )
            if self.engine == "scalar":
                raise ConfigurationError(
                    "sparsify requires the batch engine; engine='scalar' "
                    "cannot honor it"
                )
        if not isinstance(self.channels, int) or self.channels < 1:
            raise ConfigurationError(
                f"channel count must be a positive int, got {self.channels!r}"
            )
        if self.faults is not None and self.faults.is_noop:
            # Keeps fault-free cache keys and the engine fast path.
            object.__setattr__(self, "faults", None)


_DEFAULTS: ContextVar[ExecutionDefaults] = ContextVar(
    "execution_defaults", default=ExecutionDefaults()
)


def get_execution_defaults() -> ExecutionDefaults:
    """The execution defaults installed in the current context."""
    return _DEFAULTS.get()


@contextmanager
def execution_defaults(**changes: Any) -> Iterator[ExecutionDefaults]:
    """Install execution defaults for a code region.

    The installed value is :func:`dataclasses.replace` of the current
    one: a field not named is inherited, a named field is set as given
    (``cache=None`` turns caching off).  The value lives in a
    :class:`~contextvars.ContextVar`, so an install inside one thread
    (a service worker, say) is invisible to every other thread.
    """
    token = _DEFAULTS.set(replace(_DEFAULTS.get(), **changes))
    try:
        yield _DEFAULTS.get()
    finally:
        _DEFAULTS.reset(token)
