"""Trial execution backends: process pools, result caching, seed derivation.

The :mod:`repro.exec` subsystem decouples *what* a trial battery computes
(:func:`repro.analysis.runner.run_trials` and everything layered on it)
from *how* the trials are executed:

* :mod:`repro.exec.seeds` — deterministic sub-seed derivation, so the
  topology RNG and the protocol RNG of one trial are independent streams
  of a single master seed;
* :mod:`repro.exec.cache` — a content-addressed, JSONL-backed result
  cache keyed by the full trial identity (protocol + constants, model,
  graph spec, seed, round budget), giving free resume for interrupted
  campaigns and incremental re-runs of partially-changed grids;
* :mod:`repro.exec.pool` — a fork-based process pool that partitions a
  seed list into chunks and merges results in seed order, so parallel
  results are bit-identical to sequential execution;
* :mod:`repro.exec.resilience` — graceful degradation for long
  campaigns: per-trial timeouts, bounded retries with exponential
  backoff and deterministic jitter (:class:`RetryPolicy`), and
  quarantine records persisted through the cache so resumed campaigns
  skip poisoned seeds instead of re-dying on them;
* :mod:`repro.exec.executor` — the facade: :class:`SequentialExecutor`
  and :class:`ProcessPoolExecutor` behind one :class:`TrialExecutor`
  interface with cache integration, progress-callback hooks, and
  retry/quarantine handling, plus the :class:`ExecutionDefaults` value
  the CLI installs once per command from its execution flags.

Trials of a battery are independent randomized executions (the very
property the paper's algorithms exploit), so any partition of the seed
list onto workers yields the same outcomes.
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache, graph_fingerprint, trial_key
from .executor import (
    ExecutionDefaults,
    ProcessPoolExecutor,
    ProgressEvent,
    SequentialExecutor,
    TrialExecutor,
    execution_defaults,
    get_execution_defaults,
    make_executor,
)
from .pool import fork_available, partition_chunks
from .resilience import (
    QuarantinedTrial,
    QuarantineRecord,
    RetryPolicy,
    TrialTimeoutError,
    is_quarantine_record,
)
from .seeds import derive_seed, graph_seed, protocol_seed

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "graph_fingerprint",
    "trial_key",
    "ExecutionDefaults",
    "ProcessPoolExecutor",
    "ProgressEvent",
    "SequentialExecutor",
    "TrialExecutor",
    "execution_defaults",
    "get_execution_defaults",
    "make_executor",
    "fork_available",
    "partition_chunks",
    "QuarantinedTrial",
    "QuarantineRecord",
    "RetryPolicy",
    "TrialTimeoutError",
    "is_quarantine_record",
    "derive_seed",
    "graph_seed",
    "protocol_seed",
]
