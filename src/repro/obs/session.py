"""Telemetry sessions: the CLI's ``--telemetry`` plumbing.

A :class:`TelemetrySession` scopes one instrumented command: it installs
a recording :class:`~repro.obs.registry.Registry` as the process-wide
current registry, opens a JSONL writer, emits the ``meta`` record, and
on exit emits the final ``summary`` record (registry snapshot plus
optional cache statistics) and restores the previous registry.

Its :attr:`~TelemetrySession.progress` emitter writes throttled
``progress`` records; the CLI installs it as the ``progress`` field of
the execution defaults, so every battery of the command reports to it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .export import JsonlProgressEmitter, JsonlWriter, meta_record, summary_record
from .registry import Registry, set_registry

__all__ = ["TelemetrySession"]


class TelemetrySession:
    """Context manager recording one command's telemetry to JSONL."""

    def __init__(
        self,
        path: Union[str, Path],
        command: str,
        argv: Optional[List[str]] = None,
        progress_interval_s: float = 1.0,
    ):
        self.path = Path(path)
        self.command = command
        self.argv = list(argv or [])
        self.registry = Registry()
        self._writer: Optional[JsonlWriter] = None
        self._progress: Optional[JsonlProgressEmitter] = None
        self._progress_interval_s = progress_interval_s
        self._previous_registry: Optional[Registry] = None
        #: Cache statistics to embed in the summary record, set by the
        #: CLI when a result cache is in play.
        self.cache_stats: Optional[Dict[str, Any]] = None
        self._watched_cache: Optional[Any] = None

    def watch_cache(self, cache: Any) -> None:
        """Snapshot ``cache.stats`` into the summary record at exit.

        Registered at cache-construction time (counters still zero), so
        the summary reflects the cache's final hit/miss/write totals.
        """
        self._watched_cache = cache

    @property
    def progress(self) -> JsonlProgressEmitter:
        assert self._progress is not None, "session not entered"
        return self._progress

    def __enter__(self) -> "TelemetrySession":
        self._writer = JsonlWriter(self.path)
        self._progress = JsonlProgressEmitter(
            self._writer.write, min_interval_s=self._progress_interval_s
        )
        self._writer.write(meta_record(self.command, self.argv))
        self._previous_registry = set_registry(self.registry)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._previous_registry is not None:
            set_registry(self._previous_registry)
        if self.cache_stats is None and self._watched_cache is not None:
            self.cache_stats = self._watched_cache.stats.to_record()
        if self._writer is not None:
            try:
                self._writer.write(
                    summary_record(self.registry, cache_stats=self.cache_stats)
                )
            finally:
                self._writer.close()
