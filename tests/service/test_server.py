"""End-to-end campaign service tests.

The HTTP tests host a real :class:`CampaignService` on an ephemeral
port inside a background thread (its own event loop) and drive it with
the stdlib :class:`ServiceClient` — the same path the CLI and CI smoke
job use.  Scheduler-level behaviours that need deterministic control of
unit execution (in-flight dedup, quarantine, resume) drive the
:class:`Scheduler` directly under ``asyncio.run``.
"""

import asyncio
import json
import queue
import threading
import time
from contextlib import contextmanager

import pytest

from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.resilience import RetryPolicy
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import normalize_job
from repro.service.limits import LimitPolicy
from repro.service.scheduler import Job, JobStore, RateLimited, Scheduler
from repro.service.server import CampaignService

RUN_SPEC = {"algorithm": "beeping-mis", "topology": "gnp", "n": 16, "trials": 2}
SWEEP_SPEC = {
    "algorithm": "beeping-mis",
    "sizes": [16, 24],
    "trials": 2,
    "seed": 0,
}


@contextmanager
def running_service(tmp_path, **service_kwargs):
    """Host a CampaignService on an ephemeral port in a thread."""
    cache = ResultCache(tmp_path / "cache")
    ready: "queue.Queue" = queue.Queue()

    async def main():
        service = CampaignService(cache, workers=2, **service_kwargs)
        await service.start("127.0.0.1", 0)
        port = service._server.sockets[0].getsockname()[1]
        ready.put((service, port, asyncio.get_running_loop()))
        await service.serve_until_stopped()

    thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
    thread.start()
    service, port, loop = ready.get(timeout=10)
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=30)
    try:
        yield client, service, cache
    finally:
        try:
            loop.call_soon_threadsafe(service.request_stop)
        except RuntimeError:
            pass  # already stopped via POST /v1/shutdown
        thread.join(timeout=20)
        assert not thread.is_alive(), "service thread failed to stop"


class TestHttpApi:
    def test_health_and_stats(self, tmp_path):
        with running_service(tmp_path) as (client, _service, _cache):
            health = client.health()
            assert health["status"] == "ok" and health["accepting"]
            stats = client.stats()
            assert stats["workers"] == 2
            assert stats["jobs"] == {}

    def test_run_job_end_to_end(self, tmp_path):
        with running_service(tmp_path) as (client, _service, _cache):
            job = client.submit("run", {**RUN_SPEC, "seed": 3}, client="alice")
            assert job["total_units"] == 2
            result = client.wait(job["id"], timeout=60)
            assert result["kind"] == "run"
            [cell] = result["cells"]
            assert [r["seed"] for r in cell["outcomes"]] == [3, 4]
            assert cell["stats"]["trials"] == 2
            assert cell["graph_spec"] == "workload:gnp/n=16"
            descriptor = client.status(job["id"])
            assert descriptor["status"] == "done"
            assert descriptor["computed_units"] == 2
            assert descriptor["cached_units"] == 0

    def test_duplicate_sweep_serves_from_cache(self, tmp_path):
        with running_service(tmp_path) as (client, _service, _cache):
            first = client.submit("sweep", SWEEP_SPEC, client="alice")
            result_1 = client.wait(first["id"], timeout=120)
            second = client.submit("sweep", SWEEP_SPEC, client="bob")
            result_2 = client.wait(second["id"], timeout=30)
            descriptor = client.status(second["id"])
            assert descriptor["cached_units"] == 4
            assert descriptor["computed_units"] == 0
            assert json.dumps(result_1["cells"], sort_keys=True) == json.dumps(
                result_2["cells"], sort_keys=True
            )

    def test_events_stream_replays_finished_job(self, tmp_path):
        with running_service(tmp_path) as (client, _service, _cache):
            job = client.submit("run", {**RUN_SPEC, "trials": 1}, client="a")
            client.wait(job["id"], timeout=60)
            events = list(client.events(job["id"]))
            assert events[0]["type"] == "meta"
            assert events[0]["command"] == "service:run"
            final = events[-1]
            assert final["type"] == "progress"
            assert final["done"] == final["total"] == 1
            assert final["eta_s"] == 0.0

    def test_claims_job_produces_document(self, tmp_path):
        with running_service(tmp_path) as (client, _service, cache):
            spec = {
                "tier": "quick",
                "claim_ids": ["thm2-cd-energy"],
                "budget": 4,
            }
            job = client.submit("claims", spec, client="alice")
            result = client.wait(job["id"], timeout=120)
            [claim] = result["document"]["claims"]
            assert claim["claim_id"] == "thm2-cd-energy"
            assert claim["verdict"] in ("reproduced", "inconclusive")
            assert len(cache) > 0  # the sampler went through the shared cache
            # identical re-verification rides the cache
            job2 = client.submit("claims", spec, client="bob")
            result2 = client.wait(job2["id"], timeout=120)
            assert result2["document"]["claims"] == result["document"]["claims"]
            assert cache.stats.hits > 0

    def test_error_mapping(self, tmp_path):
        with running_service(tmp_path) as (client, _service, _cache):
            with pytest.raises(ServiceError) as excinfo:
                client.submit("run", {"algorithm": "no-such"}, client="a")
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client.submit("nope", {}, client="a")
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client.status("j-missing")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/nowhere")
            assert excinfo.value.status == 404

    def test_submission_rate_limit_maps_to_429(self, tmp_path):
        limits = LimitPolicy(submit_rate=0.001, submit_burst=1)
        with running_service(tmp_path, limits=limits) as (client, _s, _c):
            client.submit("run", {**RUN_SPEC, "trials": 1}, client="alice")
            with pytest.raises(ServiceError) as excinfo:
                client.submit("run", {**RUN_SPEC, "seed": 9}, client="alice")
            assert excinfo.value.status == 429
            assert "rate" in str(excinfo.value)
            # a different tenant has its own bucket
            job = client.submit("run", {**RUN_SPEC, "seed": 9}, client="bob")
            client.wait(job["id"], timeout=60)

    def test_shutdown_endpoint_stops_service(self, tmp_path):
        with running_service(tmp_path) as (client, service, _cache):
            assert client.shutdown()["status"] == "shutting down"
            deadline = time.monotonic() + 10
            while service.scheduler.accepting and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not service.scheduler.accepting


def _gated_execute(gate: threading.Event):
    """An execute_unit stand-in that blocks until the gate opens."""

    def fake_execute(unit, policy=None):
        assert gate.wait(timeout=30)
        return {
            "seed": unit.seed,
            "valid": True,
            "rounds": 1,
            "max_energy": 1,
            "mean_energy": 1.0,
            "mis_size": 1,
            "failure_kinds": [],
        }

    return fake_execute


class TestSchedulerDedup:
    def test_inflight_units_dedupe_across_jobs(self, tmp_path, monkeypatch):
        gate = threading.Event()
        monkeypatch.setattr(
            "repro.service.scheduler.execute_unit", _gated_execute(gate)
        )

        async def scenario():
            from repro.obs.registry import Registry

            scheduler = Scheduler(
                ResultCache(tmp_path / "cache"), workers=2, registry=Registry()
            )
            await scheduler.start()
            spec = {**RUN_SPEC, "seed": 5}
            job_1 = scheduler.submit("run", spec, "alice")
            job_2 = scheduler.submit("run", spec, "bob")
            # identical cell, still in flight: subscribe, don't recompute
            assert job_1.computed_units == 2
            assert job_2.deduped_units == 2
            assert job_2.computed_units == 0
            assert scheduler.limiter.inflight("alice") == 2
            assert scheduler.limiter.inflight("bob") == 0
            gate.set()
            deadline = asyncio.get_running_loop().time() + 20
            while not (job_1.status == job_2.status == "done"):
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            assert job_1.records == job_2.records
            assert scheduler.limiter.inflight("alice") == 0
            counters = scheduler.stats()["counters"]
            assert counters.get("service.units.deduped") == 2
            assert counters.get("service.units.computed") == 2
            await scheduler.shutdown()

        asyncio.run(scenario())

    def test_duplicate_units_within_one_job_compute_once(
        self, tmp_path, monkeypatch
    ):
        gate = threading.Event()
        gate.set()
        monkeypatch.setattr(
            "repro.service.scheduler.execute_unit", _gated_execute(gate)
        )

        async def scenario():
            scheduler = Scheduler(ResultCache(tmp_path / "cache"), workers=1)
            await scheduler.start()
            # two cells, same (n, seed) → identical trial keys
            spec = {
                "cells": [
                    {"algorithm": "beeping-mis", "n": 16, "seed": 1},
                    {"algorithm": "beeping-mis", "n": 16, "seed": 1},
                ]
            }
            job = scheduler.submit("batch", spec, "alice")
            while job.status != "done":
                await asyncio.sleep(0.01)
            assert job.total_units == 2
            assert job.computed_units == 1
            assert job.deduped_units == 1
            assert job.records[0] == job.records[1]
            await scheduler.shutdown()

        asyncio.run(scenario())

    def test_claims_job_progress_is_throttled(self, tmp_path):
        # Claims batteries report per trial; the job keeps at most one
        # record per throttle interval plus the forced ones.
        async def scenario():
            scheduler = Scheduler(ResultCache(tmp_path / "cache"), workers=1)
            await scheduler.start()
            job = scheduler.submit(
                "claims",
                {"tier": "quick", "claim_ids": ["thm1-energy-lower-bound"]},
                "alice",
            )
            while job.status not in ("done", "failed"):
                await asyncio.sleep(0.01)
            await scheduler.shutdown()
            return job

        job = asyncio.run(scenario())
        assert job.status == "done"
        progress = [e for e in job.events if e["type"] == "progress"]
        assert progress
        assert len(progress) <= job.elapsed_s / 0.2 + 2
        # The terminal record counts the trials of the job's batteries.
        assert progress[-1]["done"] == progress[-1]["total"] > 0

    def test_active_policy_without_fork_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.exec.pool.fork_available", lambda: False)
        with pytest.raises(ConfigurationError, match="fork"):
            Scheduler(
                ResultCache(tmp_path / "cache"),
                policy=RetryPolicy(timeout_s=1.0),
            )
        Scheduler(ResultCache(tmp_path / "cache"), policy=RetryPolicy())

    def test_inflight_budget_rejects_oversized_submission(self, tmp_path):
        async def scenario():
            scheduler = Scheduler(
                ResultCache(tmp_path / "cache"),
                workers=1,
                limits=LimitPolicy(
                    max_inflight_trials=1, submit_rate=100, submit_burst=100
                ),
            )
            await scheduler.start()
            with pytest.raises(RateLimited):
                scheduler.submit("run", {**RUN_SPEC, "trials": 2}, "alice")
            await scheduler.shutdown()

        asyncio.run(scenario())

    def test_worker_crash_becomes_quarantine_record(
        self, tmp_path, monkeypatch
    ):
        def broken_execute(unit, policy=None):
            raise ValueError("synthetic worker failure")

        monkeypatch.setattr(
            "repro.service.scheduler.execute_unit", broken_execute
        )

        async def scenario():
            scheduler = Scheduler(ResultCache(tmp_path / "cache"), workers=1)
            await scheduler.start()
            job = scheduler.submit("run", {**RUN_SPEC, "trials": 1}, "a")
            while job.status != "done":
                await asyncio.sleep(0.01)
            assert job.quarantined_units == 1
            [cell] = job.result["cells"]
            assert cell["outcomes"] == []
            assert cell["quarantined"][0]["error_type"] == "ValueError"
            await scheduler.shutdown()

        asyncio.run(scenario())


class TestPersistence:
    def test_unfinished_jobs_resume_on_start(self, tmp_path):
        cache_dir = tmp_path / "cache"
        state_dir = cache_dir / "service" / "jobs"
        spec = normalize_job("run", {**RUN_SPEC, "seed": 21, "trials": 1})
        interrupted = Job("j-interrupted01", "alice", spec)
        interrupted.status = "running"
        JobStore(state_dir).save(interrupted)

        async def scenario():
            scheduler = Scheduler(ResultCache(cache_dir), workers=1)
            resumed = await scheduler.start()
            assert resumed == 1
            job = scheduler.jobs["j-interrupted01"]
            assert job.client == "alice"
            while job.status != "done":
                await asyncio.sleep(0.01)
            assert job.result["cells"][0]["outcomes"][0]["seed"] == 21
            await scheduler.shutdown()

        asyncio.run(scenario())

    def test_done_jobs_are_not_resumed(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = normalize_job("run", {**RUN_SPEC, "seed": 3, "trials": 1})
        finished = Job("j-finished00000", "alice", spec)
        finished.status = "done"
        JobStore(cache_dir / "service" / "jobs").save(finished)

        async def scenario():
            scheduler = Scheduler(ResultCache(cache_dir), workers=1)
            assert await scheduler.start() == 0
            assert "j-finished00000" not in scheduler.jobs
            await scheduler.shutdown()

        asyncio.run(scenario())

    def test_cached_resubmission_writes_no_job_file(self, tmp_path):
        async def scenario():
            scheduler = Scheduler(ResultCache(tmp_path / "cache"), workers=1)
            await scheduler.start()
            job = scheduler.submit("run", {**RUN_SPEC, "seed": 5}, "alice")
            while job.status != "done":
                await asyncio.sleep(0.01)
            files = sorted(scheduler.store.root.iterdir())
            again = scheduler.submit("run", {**RUN_SPEC, "seed": 5}, "bob")
            assert again.status == "done"
            assert sorted(scheduler.store.root.iterdir()) == files
            await scheduler.shutdown()

        asyncio.run(scenario())

    def test_resumed_job_complete_at_start_is_saved_done(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = {**RUN_SPEC, "seed": 13, "trials": 1}

        async def scenario():
            scheduler = Scheduler(ResultCache(cache_dir), workers=1)
            await scheduler.start()
            job = scheduler.submit("run", spec, "alice")
            while job.status != "done":
                await asyncio.sleep(0.01)
            await scheduler.shutdown()
            # Interrupted after its unit was cached, before it was saved.
            job.status = "running"
            JobStore(scheduler.store.root).save(job)
            restarted = Scheduler(ResultCache(cache_dir), workers=1)
            assert await restarted.start() == 1
            assert restarted.jobs[job.id].status == "done"
            await restarted.shutdown()
            again = Scheduler(ResultCache(cache_dir), workers=1)
            assert await again.start() == 0
            await again.shutdown()

        asyncio.run(scenario())

    def test_restarted_service_serves_prior_results_from_cache(
        self, tmp_path
    ):
        async def first_life():
            scheduler = Scheduler(ResultCache(tmp_path / "cache"), workers=2)
            await scheduler.start()
            job = scheduler.submit("run", {**RUN_SPEC, "seed": 8}, "alice")
            while job.status != "done":
                await asyncio.sleep(0.01)
            await scheduler.shutdown()
            return job.result

        async def second_life():
            # a fresh process would build a fresh ResultCache over the
            # same shards; the identical submission is served instantly
            scheduler = Scheduler(ResultCache(tmp_path / "cache"), workers=2)
            await scheduler.start()
            job = scheduler.submit("run", {**RUN_SPEC, "seed": 8}, "bob")
            assert job.status == "done"
            assert job.cached_units == job.total_units == 2
            await scheduler.shutdown()
            return job.result

        result_1 = asyncio.run(first_life())
        result_2 = asyncio.run(second_life())
        assert json.dumps(result_1["cells"], sort_keys=True) == json.dumps(
            result_2["cells"], sort_keys=True
        )
