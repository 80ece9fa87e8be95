"""Job scheduler: sharded workers, dedup, progress, durable job state.

The scheduler owns everything between the HTTP layer and the exec
stack:

* **decomposition** — a validated :class:`~repro.service.jobs.JobSpec`
  flattens into trial units; each unit resolves through the
  :class:`~repro.service.dedup.DedupIndex` as cached / in-flight / new;
* **sharded dispatch** — new units land on ``shard_of(trial_key)``'s
  queue; one asyncio worker loop per shard executes units in a thread
  (and, under an active :class:`~repro.exec.resilience.RetryPolicy`,
  inside the supervised fork pool with kill-based timeouts);
* **progress** — jobs accumulate repro-obs/1 ``meta``/``progress``
  records that the ``/events`` endpoint streams as chunked JSONL;
* **durability** — unfinished jobs' specs persist as JSON under the
  cache root; a restarted service resubmits them, and their
  already-computed units replay instantly from the result cache.

Everything except unit execution runs on the event loop, single
threaded — submission, dedup resolution, completion bookkeeping, and
result assembly need no locks.
"""

from __future__ import annotations

import asyncio
import json
import secrets
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..catalog import PROFILES
from ..errors import ReproError
from ..exec.cache import ResultCache
from ..exec.executor import ProgressCallback, ProgressEvent
from ..exec.resilience import is_quarantine_record
from ..obs.export import JsonlProgressEmitter, meta_record
from ..obs.registry import NullRegistry, Registry
from .dedup import DedupIndex, UnitTask
from .jobs import JobSpec, assemble_cell_result, normalize_job
from .limits import LimitPolicy, TenantLimiter
from .units import execute_unit, unit_key

__all__ = ["RateLimited", "Job", "JobStore", "Scheduler"]

_SHUTDOWN = object()  # shard-queue sentinel

#: Minimum seconds between unforced progress records per job.
_PROGRESS_INTERVAL_S = 0.2


def _progress_emitter(
    write: Callable[[Dict[str, Any]], None]
) -> JsonlProgressEmitter:
    """A job's progress throttle: one record per interval, plus forced
    ones (submission, completion, failure).  A claims job's batteries
    end many times per job, so their terminal events are throttled too."""
    return JsonlProgressEmitter(
        write, min_interval_s=_PROGRESS_INTERVAL_S, terminal=False
    )


class RateLimited(ReproError):
    """A submission was rejected by the tenant limiter (HTTP 429)."""


class Job:
    """Runtime state of one submitted job."""

    def __init__(self, job_id: str, client: str, spec: JobSpec):
        self.id = job_id
        self.client = client
        self.jobspec = spec
        self.status = "queued"  # queued | running | done | failed
        self.error: Optional[str] = None
        self.created_unix_s = round(time.time(), 3)
        self._start = time.monotonic()
        self.finished_s: Optional[float] = None
        self.total_units = spec.total_units
        self.done_units = 0
        self.cached_units = 0
        self.deduped_units = 0
        self.computed_units = 0
        self.quarantined_units = 0
        self.result: Optional[Dict[str, Any]] = None
        #: Per-unit records, aligned with ``spec.units()`` order.
        self.records: List[Optional[Dict[str, Any]]] = [None] * spec.total_units
        #: repro-obs/1 event log streamed by ``/events``.
        self.events: List[Dict[str, Any]] = [
            meta_record(f"service:{spec.kind}", [job_id])
        ]
        self._progress = _progress_emitter(self.append_event)
        self._waiters: List[asyncio.Event] = []

    # -- streaming ------------------------------------------------------

    def add_waiter(self) -> asyncio.Event:
        event = asyncio.Event()
        self._waiters.append(event)
        return event

    def remove_waiter(self, event: asyncio.Event) -> None:
        if event in self._waiters:
            self._waiters.remove(event)

    def _wake(self) -> None:
        for event in self._waiters:
            event.set()

    @property
    def elapsed_s(self) -> float:
        if self.finished_s is not None:
            return self.finished_s
        return time.monotonic() - self._start

    def _emit_progress(self, force: bool = False) -> None:
        # Checked first so a throttled unit builds no event.
        if force or self._progress.due():
            self._progress(
                ProgressEvent.from_counts(
                    self.done_units, self.total_units, self.cached_units,
                    self.elapsed_s,
                ),
                force=True,
            )

    def append_event(self, record: Dict[str, Any]) -> None:
        """Append one repro-obs/1 record and wake the event streams."""
        self.events.append(record)
        self._wake()

    # -- lifecycle ------------------------------------------------------

    def unit_done(self, position: int, record: Dict[str, Any]) -> bool:
        """Record one finished unit; returns True when the job is done."""
        if self.records[position] is None:
            self.records[position] = record
            self.done_units += 1
            if is_quarantine_record(record):
                self.quarantined_units += 1
        finished = self.done_units >= self.total_units
        self._emit_progress(force=finished)
        return finished

    def finalize(self) -> None:
        self.status = "done"
        self.finished_s = time.monotonic() - self._start
        cells: List[Dict[str, Any]] = []
        offset = 0
        for cell in self.jobspec.cells:
            count = len(cell.seeds)
            cells.append(
                assemble_cell_result(cell, self.records[offset : offset + count])
            )
            offset += count
        self.result = {
            "job": self.describe(),
            "kind": self.jobspec.kind,
            "spec": self.jobspec.spec,
            "cells": cells,
        }
        self._wake()

    def fail(self, message: str) -> None:
        self.status = "failed"
        self.error = message
        self.finished_s = time.monotonic() - self._start
        self._emit_progress(force=True)
        self._wake()

    def describe(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "client": self.client,
            "kind": self.jobspec.kind,
            "status": self.status,
            "created_unix_s": self.created_unix_s,
            "total_units": self.total_units,
            "done_units": self.done_units,
            "cached_units": self.cached_units,
            "deduped_units": self.deduped_units,
            "computed_units": self.computed_units,
            "quarantined_units": self.quarantined_units,
            "elapsed_s": round(self.elapsed_s, 6),
            "error": self.error,
        }


class JobStore:
    """Durable job specs: ``<state_dir>/<job_id>.json``, atomic writes."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def save(self, job: Job) -> None:
        payload = {
            "id": job.id,
            "client": job.client,
            "kind": job.jobspec.kind,
            "spec": job.jobspec.spec,
            "status": job.status,
            "created_unix_s": job.created_unix_s,
        }
        path = self.root / f"{job.id}.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.rename(path)

    def load_all(self) -> List[Dict[str, Any]]:
        entries = []
        for path in sorted(self.root.glob("*.json")):
            try:
                entries.append(json.loads(path.read_text()))
            except (json.JSONDecodeError, OSError):
                continue  # torn write from a crash mid-save
        return entries


class Scheduler:
    """Sharded unit execution behind a dedup index and tenant limits."""

    def __init__(
        self,
        cache: ResultCache,
        workers: int = 2,
        *,
        limits: Optional[LimitPolicy] = None,
        registry: Optional[Registry] = None,
        state_dir: Optional[Path] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.cache = cache
        self.workers = workers
        self.registry = registry if registry is not None else NullRegistry()
        self.limiter = TenantLimiter(limits)
        self.index = DedupIndex(cache, workers)
        self.store = JobStore(
            Path(state_dir)
            if state_dir is not None
            else Path(cache.root) / "service" / "jobs"
        )
        self.jobs: Dict[str, Job] = {}
        self.accepting = False
        self._queues: List[asyncio.Queue] = []
        self._worker_tasks: List[asyncio.Task] = []
        self._claims_tasks: Dict[str, asyncio.Task] = {}
        self._claims_gate: Optional[asyncio.Semaphore] = None
        #: Submitting client per in-flight unit key (budget accounting).
        self._unit_owner: Dict[str, str] = {}

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> int:
        """Spin up shard workers and resume persisted unfinished jobs.

        Returns the number of resumed jobs.
        """
        self._queues = [asyncio.Queue() for _ in range(self.workers)]
        self._worker_tasks = [
            asyncio.create_task(self._shard_loop(shard))
            for shard in range(self.workers)
        ]
        self._claims_gate = asyncio.Semaphore(1)
        self.accepting = True
        resumed = 0
        for entry in self.store.load_all():
            if entry.get("status") == "done":
                continue
            try:
                self._submit(
                    entry["kind"],
                    entry["spec"],
                    entry.get("client", "unknown"),
                    job_id=entry["id"],
                    admitted=True,
                )
                resumed += 1
            except ReproError:
                continue  # spec from an older schema; leave it on disk
        if resumed:
            self.registry.counter("service.jobs.resumed").inc(resumed)
        return resumed

    async def shutdown(self) -> None:
        """Graceful stop: finish in-flight units, persist job state."""
        self.accepting = False
        for task in self._claims_tasks.values():
            task.cancel()
        for queue in self._queues:
            queue.put_nowait(_SHUTDOWN)
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        # Units still queued (never started) stay uncomputed; their jobs
        # persist as unfinished and resume on the next start.
        for job in self.jobs.values():
            if job.status in ("queued", "running"):
                self.store.save(job)

    # -- submission -----------------------------------------------------

    def submit(self, kind: str, spec: Any, client: str) -> Job:
        """Validate, admit, decompose, and schedule one submission.

        Raises :class:`~repro.errors.ConfigurationError` for malformed
        specs (HTTP 400) and :class:`RateLimited` when the client's
        token bucket or in-flight budget rejects it (HTTP 429).
        """
        if not self.accepting:
            raise RateLimited("service is shutting down; not accepting jobs")
        return self._submit(kind, spec, client)

    def _submit(
        self,
        kind: str,
        spec: Any,
        client: str,
        *,
        job_id: Optional[str] = None,
        admitted: bool = False,
    ) -> Job:
        jobspec = normalize_job(kind, spec)
        units = jobspec.units()
        keys = [unit_key(unit) for unit in units]

        if not admitted:
            # Count what this submission would actually add: keys that
            # are neither cached nor already in flight (first occurrence
            # only — a duplicate within the job rides along for free).
            seen: set = set()
            new_units = 0
            for key in keys:
                if key in seen:
                    continue
                seen.add(key)
                if key not in self.index._inflight and key not in self.cache:
                    new_units += 1
            ok, reason = self.limiter.admit(client, new_units)
            if not ok:
                self.registry.counter("service.jobs.rejected").inc()
                raise RateLimited(reason)

        job = Job(job_id or self._new_job_id(), client, jobspec)
        self.jobs[job.id] = job
        self.registry.counter("service.jobs.submitted").inc()
        self.registry.counter("service.units.total").inc(len(units))

        if jobspec.kind == "claims":
            self._claims_tasks[job.id] = asyncio.get_running_loop().create_task(
                self._run_claims(job)
            )
            self.store.save(job)
            return job

        job.status = "running"
        charged: set = set()
        for position, (unit, key) in enumerate(zip(units, keys)):
            source, record, task = self.index.resolve(key, unit)
            if source == "cached":
                job.cached_units += 1
                self.registry.counter("service.units.cached").inc()
                job.unit_done(position, record)
            elif source == "inflight":
                job.deduped_units += 1
                self.registry.counter("service.units.deduped").inc()
                task.subscribers.append((job, position))
            else:
                job.computed_units += 1
                task.subscribers.append((job, position))
                if key not in charged:
                    charged.add(key)
                    self._unit_owner.setdefault(key, client)
                self._queues[task.shard].put_nowait(task)
        if job.done_units >= job.total_units:
            job.finalize()
            self.registry.counter("service.jobs.completed").inc()
        else:
            job._emit_progress(force=True)
        if job.status != "done" or admitted:
            # A fresh job complete at submission leaves nothing to resume;
            # a resumed one overwrites its spec file as done.
            self.store.save(job)
        return job

    def _new_job_id(self) -> str:
        return f"j-{secrets.token_hex(6)}"

    # -- workers --------------------------------------------------------

    async def _shard_loop(self, shard: int) -> None:
        queue = self._queues[shard]
        while True:
            task = await queue.get()
            if task is _SHUTDOWN:
                return
            try:
                record = await asyncio.to_thread(execute_unit, task.unit)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # defensively quarantine the unit
                record = {
                    "quarantined": True,
                    "seed": task.unit.seed,
                    "attempts": 1,
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": "",
                }
            self._complete(task, record)

    def _complete(self, task: UnitTask, record: Dict[str, Any]) -> None:
        self.index.complete(task, record)
        self.registry.counter("service.units.computed").inc()
        if is_quarantine_record(record):
            self.registry.counter("service.units.quarantined").inc()
        owner = self._unit_owner.pop(task.key, None)
        if owner is not None:
            self.limiter.release(owner)
        for job, position in task.subscribers:
            if job.unit_done(position, record):
                job.finalize()
                self.registry.counter("service.jobs.completed").inc()
                self.store.save(job)

    # -- claims jobs ----------------------------------------------------

    async def _run_claims(self, job: Job) -> None:
        """Run one claims verification as an opaque, cache-coupled task.

        Claims sampling is adaptive (not statically decomposable into
        units), so it runs whole — but through the *shared* result
        cache, so its trials dedupe against every other job's cells and
        a re-verification is served almost entirely from cache.  A
        single gate serializes claims jobs to bound thread contention.
        """
        assert self._claims_gate is not None
        loop = asyncio.get_running_loop()

        # Batteries report from the worker thread; records hop to the
        # loop to touch job state.
        throttle = _progress_emitter(
            lambda record: loop.call_soon_threadsafe(job.append_event, record)
        )
        finished = [0, 0]  # trials and cache hits of the finished batteries

        def progress(event: ProgressEvent) -> None:
            if event.done >= event.total:
                finished[0] += event.total
                finished[1] += event.cache_hits
            throttle(event)

        async with self._claims_gate:
            job.status = "running"
            self.store.save(job)
            try:
                document = await asyncio.to_thread(
                    _run_claims_job, job.jobspec.spec, self.cache, progress
                )
            except asyncio.CancelledError:
                job.status = "queued"  # resumes on next service start
                raise
            except Exception as exc:
                job.fail(f"{type(exc).__name__}: {exc}")
                self.registry.counter("service.jobs.failed").inc()
                self.store.save(job)
                return
            finally:
                self._claims_tasks.pop(job.id, None)
        job.status = "done"
        job.finished_s = time.monotonic() - job._start
        job.result = {
            "job": job.describe(),
            "kind": "claims",
            "spec": job.jobspec.spec,
            "document": document,
        }
        # The job's own unit counters stay 0: its trials are battery ones.
        job._progress(
            ProgressEvent.from_counts(
                finished[0], finished[0], finished[1], job.elapsed_s
            ),
            force=True,
        )
        self.registry.counter("service.jobs.completed").inc()
        self.store.save(job)

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        by_status: Dict[str, int] = {}
        for job in self.jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "jobs": by_status,
            "inflight_units": self.index.inflight,
            "workers": self.workers,
            "accepting": self.accepting,
            "cache": self.cache.stats.to_record(),
            "counters": self.registry.counter_values(),
        }


def _run_claims_job(
    spec: Dict[str, Any], cache: ResultCache, progress: ProgressCallback
) -> Dict[str, Any]:
    """Blocking claims verification (runs in a worker thread)."""
    from ..claims import build_document, registered_claims, verify_claims
    from ..exec.executor import execution_defaults

    constants = PROFILES[spec["profile"]]()
    selected = None
    if spec["claim_ids"]:
        registry = registered_claims(spec["tier"], constants)
        selected = [registry[cid] for cid in spec["claim_ids"]]
    with execution_defaults(jobs=1, cache=cache, progress=progress):
        result = verify_claims(
            selected,
            tier=spec["tier"],
            constants=constants,
            profile=spec["profile"],
            budget=spec["budget"],
            base_seed=spec["seed"],
        )
    return build_document(result)
