"""The campaign service: HTTP/JSON API over the job scheduler.

Endpoints (all JSON; one-shot connections):

========  ==========================  ===========================================
method    path                        purpose
========  ==========================  ===========================================
GET       /v1/health                  liveness + version
GET       /v1/stats                   scheduler/cache/limiter counters
POST      /v1/jobs                    submit ``{"kind", "spec", "client"?}``
GET       /v1/jobs                    list job descriptors
GET       /v1/jobs/{id}               one job descriptor
GET       /v1/jobs/{id}/result        result document (409 until done)
GET       /v1/jobs/{id}/events        chunked repro-obs/1 JSONL stream
POST      /v1/shutdown                graceful stop (drains in-flight units)
========  ==========================  ===========================================

Error mapping: malformed specs → 400, unknown jobs → 404, limiter
rejections → 429, result-before-done → 409, handler crashes → 500 with
the exception type in the body.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from pathlib import Path
from typing import Optional, Tuple

from .. import __version__
from ..errors import ConfigurationError
from ..exec.cache import ResultCache
from ..obs.registry import Registry
from .httpd import ChunkedResponse, HttpError, Request, json_response, read_request
from .limits import LimitPolicy
from .scheduler import Job, RateLimited, Scheduler

__all__ = ["CampaignService", "serve_forever"]


class CampaignService:
    """Route table + connection handling for one scheduler."""

    def __init__(
        self,
        cache: ResultCache,
        *,
        workers: int = 2,
        limits: Optional[LimitPolicy] = None,
        registry: Optional[Registry] = None,
        state_dir: Optional[Path] = None,
    ):
        self.registry = registry if registry is not None else Registry()
        self.scheduler = Scheduler(
            cache,
            workers,
            limits=limits,
            registry=self.registry,
            state_dir=state_dir,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop = asyncio.Event()

    # -- lifecycle ------------------------------------------------------

    async def start(self, host: str, port: int) -> Tuple[str, int]:
        """Bind, start shard workers, resume persisted jobs.

        ``port=0`` binds an ephemeral port; the bound address is
        returned either way.
        """
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        sock = self._server.sockets[0]
        bound_host, bound_port = sock.getsockname()[:2]
        return bound_host, bound_port

    async def serve_until_stopped(self) -> None:
        await self._stop.wait()
        await self.stop()

    def request_stop(self) -> None:
        self._stop.set()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.shutdown()

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                writer.write(json_response(exc.status, {"error": str(exc)}))
                await writer.drain()
                return
            if request is None:
                return
            self.registry.counter("service.http.requests").inc()
            await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        try:
            response = await self._route(request, writer)
        except HttpError as exc:
            self.registry.counter("service.http.errors").inc()
            response = json_response(exc.status, {"error": str(exc)})
        except ConfigurationError as exc:
            self.registry.counter("service.http.errors").inc()
            response = json_response(400, {"error": str(exc)})
        except RateLimited as exc:
            self.registry.counter("service.http.rate_limited").inc()
            response = json_response(429, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — keep the service alive
            self.registry.counter("service.http.errors").inc()
            response = json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        if response is not None:  # streaming routes write directly
            writer.write(response)
            await writer.drain()

    async def _route(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Optional[bytes]:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/v1/health" and method == "GET":
            return json_response(
                200,
                {
                    "status": "ok",
                    "version": __version__,
                    "accepting": self.scheduler.accepting,
                },
            )
        if path == "/v1/stats" and method == "GET":
            return json_response(200, self.scheduler.stats())
        if path == "/v1/jobs" and method == "POST":
            return self._submit(request)
        if path == "/v1/jobs" and method == "GET":
            return json_response(
                200,
                {
                    "jobs": [
                        job.describe()
                        for job in self.scheduler.jobs.values()
                    ]
                },
            )
        if path == "/v1/shutdown" and method == "POST":
            self.scheduler.accepting = False
            self.request_stop()
            return json_response(200, {"status": "shutting down"})
        if path.startswith("/v1/jobs/"):
            return await self._job_route(request, path, writer)
        raise HttpError(404, f"no route for {method} {path}")

    def _submit(self, request: Request) -> bytes:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "submission must be a JSON object")
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise HttpError(400, "submission needs a string 'kind'")
        client = payload.get("client", "anonymous")
        if not isinstance(client, str) or not client:
            raise HttpError(400, "'client' must be a non-empty string")
        job = self.scheduler.submit(kind, payload.get("spec", {}), client)
        return json_response(200, {"job": job.describe()})

    async def _job_route(
        self, request: Request, path: str, writer: asyncio.StreamWriter
    ) -> Optional[bytes]:
        parts = path.split("/")  # ['', 'v1', 'jobs', '{id}', tail?]
        job_id = parts[3]
        job = self.scheduler.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"no such job: {job_id}")
        tail = parts[4] if len(parts) > 4 else None
        if tail is None:
            if request.method != "GET":
                raise HttpError(405, "job resources are GET-only")
            return json_response(200, {"job": job.describe()})
        if request.method != "GET":
            raise HttpError(405, "job resources are GET-only")
        if tail == "result":
            if job.status == "failed":
                return json_response(
                    500, {"job": job.describe(), "error": job.error}
                )
            if job.status != "done" or job.result is None:
                raise HttpError(
                    409,
                    f"job {job_id} is {job.status}; result not ready "
                    f"({job.done_units}/{job.total_units} units)",
                )
            return json_response(200, job.result)
        if tail == "events":
            await self._stream_events(job, writer)
            return None
        raise HttpError(404, f"no route for job resource {tail!r}")

    async def _stream_events(
        self, job: Job, writer: asyncio.StreamWriter
    ) -> None:
        """Stream the job's repro-obs/1 log, live, until it finishes."""
        self.registry.counter("service.http.streams").inc()
        stream = ChunkedResponse(writer)
        await stream.start()
        waiter = job.add_waiter()
        cursor = 0
        try:
            while True:
                while cursor < len(job.events):
                    await stream.send_record(job.events[cursor])
                    cursor += 1
                if job.status in ("done", "failed"):
                    break
                waiter.clear()
                await waiter.wait()
            await stream.end()
        finally:
            job.remove_waiter(waiter)


async def _serve(
    host: str,
    port: int,
    cache: ResultCache,
    *,
    workers: int,
    limits: Optional[LimitPolicy],
    registry: Optional[Registry],
    state_dir: Optional[Path],
) -> None:
    service = CampaignService(
        cache,
        workers=workers,
        limits=limits,
        registry=registry,
        state_dir=state_dir,
    )
    bound_host, bound_port = await service.start(host, port)
    # This exact line is the machine-readable readiness signal the
    # bench harness and CI smoke job parse — keep it stable.
    print(
        f"repro service listening on http://{bound_host}:{bound_port}",
        flush=True,
    )
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, service.request_stop)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support
    await service.serve_until_stopped()
    print("repro service stopped", file=sys.stderr, flush=True)


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8765,
    cache: Optional[ResultCache] = None,
    *,
    workers: int = 2,
    limits: Optional[LimitPolicy] = None,
    registry: Optional[Registry] = None,
    state_dir: Optional[Path] = None,
) -> None:
    """Run the campaign service until SIGINT/SIGTERM or POST /v1/shutdown.

    ``port=0`` binds an ephemeral port (printed on the readiness line).
    """
    asyncio.run(
        _serve(
            host,
            port,
            cache if cache is not None else ResultCache(),
            workers=workers,
            limits=limits,
            registry=registry,
            state_dir=state_dir,
        )
    )
