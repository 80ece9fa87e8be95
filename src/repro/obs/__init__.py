"""Observability: metrics registry, engine telemetry, JSONL export, profiling.

The subsystem has four layers, all stdlib-only and importable from
anywhere in :mod:`repro` without cycles (``obs`` imports nothing from
the rest of the package):

* :mod:`repro.obs.registry` — zero-overhead-when-disabled
  counter/histogram/timer registry with a Null implementation, plus the
  process-wide current registry (:func:`get_registry` /
  :func:`recording`);
* :mod:`repro.obs.telemetry` — :class:`EngineTelemetry`, the per-run
  hot-path flight recorder surfaced on ``RunResult.telemetry``;
* :mod:`repro.obs.export` / :mod:`repro.obs.summary` — the JSONL
  telemetry schema, validation, and the ``repro-mis obs summarize``
  report renderer;
* :mod:`repro.obs.profiler` / :mod:`repro.obs.session` — cProfile hooks
  (``--cprofile``) and the ``--telemetry`` session scoping.

See ``docs/API.md`` → "Observability" for the full field tables and a
worked workflow.
"""

from .export import (
    OBS_SCHEMA,
    JsonlProgressEmitter,
    JsonlWriter,
    SchemaError,
    meta_record,
    progress_record,
    read_jsonl,
    records_to_registry,
    summary_record,
    validate_record,
)
from .profiler import DEFAULT_PROFILE_DIR, profile_path, profiled
from .registry import (
    NULL_REGISTRY,
    Counter,
    Histogram,
    NullRegistry,
    Registry,
    Timer,
    get_registry,
    recording,
    set_registry,
)
from .session import TelemetrySession
from .summary import summarize_files, summarize_records
from .telemetry import EngineTelemetry

__all__ = [
    # registry
    "Counter",
    "Histogram",
    "Timer",
    "Registry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "recording",
    # telemetry
    "EngineTelemetry",
    # export
    "OBS_SCHEMA",
    "SchemaError",
    "validate_record",
    "meta_record",
    "progress_record",
    "summary_record",
    "JsonlWriter",
    "read_jsonl",
    "JsonlProgressEmitter",
    "records_to_registry",
    # summary
    "summarize_records",
    "summarize_files",
    # profiling / sessions
    "DEFAULT_PROFILE_DIR",
    "profiled",
    "profile_path",
    "TelemetrySession",
]
