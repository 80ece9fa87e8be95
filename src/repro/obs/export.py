"""Telemetry JSONL export: schema, writer, validation, progress emitter.

A telemetry file is JSON-lines, one record per line, every record
carrying ``{"schema": "repro-obs/1", "type": <record type>}``.  Record
types (see ``docs/API.md`` → "Observability" for the field tables):

``meta``
    First record of a session: the command, its argv, and a wall-clock
    timestamp.
``progress``
    Periodic structured progress (trials done/total, cache hits,
    elapsed, ETA) emitted by :class:`JsonlProgressEmitter` as a battery
    advances.
``run``
    One engine run's :class:`~repro.obs.telemetry.EngineTelemetry`
    record (optional; emitted by callers that track individual runs).
``summary``
    Final record: the recording registry's full snapshot (counters and
    histograms), plus optional cache statistics.

Readers must ignore record types they do not know — the schema tag only
bumps on incompatible changes to existing types.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, TextIO, Union

from .registry import Registry

__all__ = [
    "OBS_SCHEMA",
    "RECORD_TYPES",
    "SchemaError",
    "validate_record",
    "meta_record",
    "progress_record",
    "summary_record",
    "JsonlWriter",
    "read_jsonl",
    "JsonlProgressEmitter",
    "records_to_registry",
]

#: Schema tag stamped on every record; bump on incompatible changes.
OBS_SCHEMA = "repro-obs/1"

#: Known record types and their required fields (beyond schema/type).
RECORD_TYPES: Dict[str, tuple] = {
    "meta": ("command", "argv", "created_unix_s"),
    "progress": ("done", "total", "cache_hits", "elapsed_s"),
    "run": ("telemetry",),
    "summary": ("counters", "histograms"),
}

_HISTOGRAM_FIELDS = ("count", "sum", "min", "max")


class SchemaError(ValueError):
    """A telemetry record does not conform to the documented schema."""


def validate_record(record: Any) -> Dict[str, Any]:
    """Validate one parsed JSONL record; returns it on success.

    Raises :class:`SchemaError` with an actionable message on a missing
    or unknown schema tag, an unknown record type, a missing required
    field, or malformed summary instrument values.
    """
    if not isinstance(record, dict):
        raise SchemaError(f"record must be a JSON object, got {type(record).__name__}")
    schema = record.get("schema")
    if schema != OBS_SCHEMA:
        raise SchemaError(f"unknown schema tag {schema!r} (expected {OBS_SCHEMA!r})")
    record_type = record.get("type")
    required = RECORD_TYPES.get(record_type)
    if required is None:
        raise SchemaError(
            f"unknown record type {record_type!r} "
            f"(known: {sorted(RECORD_TYPES)})"
        )
    missing = [name for name in required if name not in record]
    if missing:
        raise SchemaError(f"{record_type} record missing field(s) {missing}")
    if record_type == "summary":
        counters = record["counters"]
        if not isinstance(counters, dict) or not all(
            isinstance(value, int) for value in counters.values()
        ):
            raise SchemaError("summary counters must map names to integers")
        histograms = record["histograms"]
        if not isinstance(histograms, dict):
            raise SchemaError("summary histograms must be an object")
        for name, hist in histograms.items():
            if not isinstance(hist, dict) or any(
                field not in hist for field in _HISTOGRAM_FIELDS
            ):
                raise SchemaError(
                    f"histogram {name!r} must carry fields {_HISTOGRAM_FIELDS}"
                )
    return record


# ----------------------------------------------------------------------
# Record builders
# ----------------------------------------------------------------------


def _record(record_type: str, **fields: Any) -> Dict[str, Any]:
    record: Dict[str, Any] = {"schema": OBS_SCHEMA, "type": record_type}
    record.update(fields)
    return record


def meta_record(command: str, argv: List[str]) -> Dict[str, Any]:
    return _record(
        "meta",
        command=command,
        argv=list(argv),
        created_unix_s=round(time.time(), 3),
    )


def progress_record(
    done: int,
    total: int,
    cache_hits: int,
    elapsed_s: float,
    eta_s: Optional[float] = None,
) -> Dict[str, Any]:
    return _record(
        "progress",
        done=done,
        total=total,
        cache_hits=cache_hits,
        elapsed_s=round(elapsed_s, 6),
        eta_s=None if eta_s is None else round(eta_s, 6),
    )


def summary_record(
    registry: Registry, cache_stats: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The final record: the registry's full snapshot."""
    snapshot = registry.snapshot()
    record = _record(
        "summary",
        counters=snapshot["counters"],
        histograms=snapshot["histograms"],
    )
    if cache_stats is not None:
        record["cache"] = cache_stats
    return record


# ----------------------------------------------------------------------
# I/O
# ----------------------------------------------------------------------


class JsonlWriter:
    """Line-buffered JSONL sink (file path or open stream).

    Each :meth:`write` validates, serializes, appends, and flushes one
    record, so an interrupted session keeps everything emitted so far.
    """

    def __init__(self, target: Union[str, Path, TextIO]):
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._handle: TextIO = open(path, "a")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self.records_written = 0

    def write(self, record: Dict[str, Any]) -> None:
        validate_record(record)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self.records_written += 1

    def close(self) -> None:
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_jsonl(
    path: Union[str, Path], strict: bool = False
) -> List[Dict[str, Any]]:
    """Parse a telemetry JSONL file.

    Non-strict mode (the default) skips malformed lines and records that
    fail validation — e.g. a torn tail from an interrupted session —
    mirroring the result cache's tolerance.  Strict mode raises
    :class:`SchemaError` on the first bad line.
    """
    records: List[Dict[str, Any]] = []
    for line_number, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if strict:
                raise SchemaError(f"{path}:{line_number}: invalid JSON: {exc}")
            continue
        try:
            records.append(validate_record(record))
        except SchemaError as exc:
            if strict:
                raise SchemaError(f"{path}:{line_number}: {exc}") from None
            continue
    return records


class JsonlProgressEmitter:
    """Progress callback that writes throttled ``progress`` records.

    Duck-types against :class:`repro.exec.executor.ProgressEvent` (so
    :mod:`repro.obs` needs no import from the exec layer).  Events
    arrive per completed trial; each record goes to ``write`` (say
    :meth:`JsonlWriter.write`) at most every ``min_interval_s`` seconds,
    plus always for a forced call and, unless ``terminal`` is off, for
    each battery's terminal event (``done == total``).
    """

    def __init__(
        self,
        write: Callable[[Dict[str, Any]], None],
        min_interval_s: float = 1.0,
        terminal: bool = True,
    ):
        self._write = write
        self._min_interval_s = min_interval_s
        self._terminal = terminal
        self._last_emit: Optional[float] = None

    def due(self) -> bool:
        """Whether the throttle would pass an ordinary event now."""
        return (
            self._last_emit is None
            or time.monotonic() - self._last_emit >= self._min_interval_s
        )

    def __call__(self, event: Any, force: bool = False) -> None:
        terminal = self._terminal and event.done >= event.total
        if not (force or terminal or self.due()):
            return
        self._last_emit = time.monotonic()
        self._write(
            progress_record(
                done=event.done,
                total=event.total,
                cache_hits=event.cache_hits,
                elapsed_s=event.elapsed_s,
                eta_s=getattr(event, "eta_s", None),
            )
        )


def records_to_registry(records: Iterable[Dict[str, Any]]) -> Registry:
    """Rebuild a registry by merging every ``summary`` record's snapshot."""
    registry = Registry()
    for record in records:
        if record.get("type") == "summary":
            registry.merge(
                {
                    "counters": record["counters"],
                    "histograms": record["histograms"],
                }
            )
    return registry
