"""The DSE service application: routing, lifecycle, graceful shutdown.

:class:`ReproService` ties the pieces together — the stdlib HTTP layer
(:mod:`repro.service.http`), the coalescing job manager
(:mod:`repro.service.jobs`), the per-client rate limiter
(:mod:`repro.service.ratelimit`), and the warm-keeper
(:mod:`repro.service.warm`) — behind a small JSON API:

========  =============================  =======================================
method    path                           semantics
========  =============================  =======================================
GET       ``/healthz``                   liveness + draining flag
GET       ``/v1/studies``                the study registry
POST      ``/v1/submit``                 submit a study/sweep request
                                         (rate-limited; 202 queued/running,
                                         200 already finished, 429 throttled,
                                         503 draining)
GET       ``/v1/jobs``                   all job statuses
GET       ``/v1/jobs/{id}``              one job's status (volatile view)
GET       ``/v1/jobs/{id}/result``       the stable result document
                                         (409 until done; byte-identical
                                         across cold/warm/restart)
GET       ``/v1/jobs/{id}/events``       server-sent progress events
                                         (replay + live, terminal ``done``)
GET       ``/v1/stats``                  manager / limiter / warm-keeper stats
POST      ``/v1/shutdown``               request graceful shutdown
========  =============================  =======================================

Shutdown — whether from ``/v1/shutdown``, SIGINT, or SIGTERM — always
takes the same drain path: stop accepting submissions (503), close the
listener, cancel the warm-keeper, wait up to ``drain_timeout_s`` for
in-flight jobs, then tear down the worker pool and end every open event
stream.
"""

from __future__ import annotations

import asyncio
import logging
import signal
from typing import Optional

from repro.config.schema import ServiceConfig
from repro.errors import ReproError
from repro.service.http import (
    HttpError,
    HttpRequest,
    error_response,
    json_response,
    read_request,
    render_json,
    response_bytes,
    sse_event,
    sse_headers,
)
from repro.service.jobs import DONE, FAILED, Job, JobManager
from repro.service.ratelimit import RateLimiter
from repro.service.requests import resolve_request
from repro.service.warm import WarmKeeper
from repro.studies.pipeline import REGISTRY

logger = logging.getLogger("repro.service")


class ReproService:
    """One serving instance; ``start()`` binds, ``shutdown()`` drains."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.manager = JobManager(
            runtime=self.config.runtime,
            workers=self.config.workers,
        )
        self.limiter = RateLimiter(
            self.config.rate_limit_rps, self.config.rate_limit_burst
        )
        self.warm_keeper = WarmKeeper(
            self.manager,
            self.config.warm_studies,
            cache_dir=self.config.runtime.cache_dir,
            interval_s=self.config.warm_interval_s,
        )
        self.draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._warm_task: Optional[asyncio.Task] = None
        self._shutdown_requested = asyncio.Event()
        self.host = self.config.host
        self.port = self.config.port

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start workers, bind the listener, launch the warm-keeper.

        With ``port=0`` the OS picks a free port; :attr:`port` is
        updated to the bound one (the in-process test hook).
        """
        self.manager.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.warm_studies:
            self._warm_task = asyncio.get_running_loop().create_task(
                self.warm_keeper.run_forever(), name="repro-service-warm"
            )
        logger.info("serving on %s:%d", self.host, self.port)

    def request_shutdown(self) -> None:
        """Signal :meth:`serve_until_shutdown` to drain and exit."""
        self.draining = True
        self._shutdown_requested.set()

    async def shutdown(self) -> bool:
        """Graceful drain; returns ``True`` when all jobs finished in time."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._warm_task is not None:
            self._warm_task.cancel()
            try:
                await self._warm_task
            except asyncio.CancelledError:
                pass
            self._warm_task = None
        drained = await self.manager.drain(self.config.drain_timeout_s)
        logger.info("shutdown complete (drained=%s)", drained)
        return drained

    async def serve_until_shutdown(self) -> bool:
        """Run until :meth:`request_shutdown` (or a signal), then drain."""
        await self._shutdown_requested.wait()
        return await self.shutdown()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                peername = writer.get_extra_info("peername")
                request.peer = peername[0] if peername else ""
                await self._route(request, writer)
            except HttpError as exc:
                writer.write(error_response(exc))
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception:
                logger.exception("request handling failed")
                writer.write(
                    error_response(HttpError(500, "internal server error"))
                )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to tell it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: HttpRequest, writer) -> None:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            writer.write(json_response(200, {
                "status": "draining" if self.draining else "ok",
            }))
            return
        if path == "/v1/studies" and method == "GET":
            writer.write(json_response(200, {"studies": [
                {
                    "name": spec.name,
                    "figure": spec.figure,
                    "description": spec.description,
                    "params": dict(spec.params),
                }
                for spec in REGISTRY.values()
            ]}))
            return
        if path == "/v1/submit" and method == "POST":
            writer.write(self._submit(request))
            return
        if path == "/v1/jobs" and method == "GET":
            writer.write(json_response(200, {
                "jobs": [job.status() for job in self.manager.jobs.values()],
            }))
            return
        if path.startswith("/v1/jobs/"):
            await self._route_job(request, path, writer)
            return
        if path == "/v1/stats" and method == "GET":
            writer.write(json_response(200, self.stats()))
            return
        if path == "/v1/shutdown" and method == "POST":
            writer.write(json_response(200, {"status": "draining"}))
            await writer.drain()
            self.request_shutdown()
            return
        raise HttpError(404, f"no route for {method} {path}")

    def _submit(self, request: HttpRequest) -> bytes:
        client_id = request.headers.get("x-client-id") or request.peer
        allowed, retry_after = self.limiter.check(client_id)
        if not allowed:
            raise HttpError(
                429, "rate limit exceeded for this client",
                retry_after=retry_after,
            )
        if self.draining or not self.manager.accepting:
            raise HttpError(503, "service is draining; not accepting submissions")
        try:
            query = resolve_request(request.json())
        except ReproError as exc:
            raise HttpError(400, str(exc)) from None
        job, mode = self.manager.submit(query)
        status = 200 if job.finished else 202
        return json_response(status, {"job": job.status(), "submission": mode})

    async def _route_job(self, request: HttpRequest, path: str, writer) -> None:
        if request.method != "GET":
            raise HttpError(405, f"{request.method} not allowed here")
        parts = path.split("/")  # ["", "v1", "jobs", "<id>", ...]
        job = self.manager.get(parts[3])
        if job is None:
            raise HttpError(404, f"unknown job {parts[3]!r}")
        tail = parts[4:]
        if not tail:
            writer.write(json_response(200, job.status()))
            return
        if tail == ["result"]:
            writer.write(self._result(job))
            return
        if tail == ["events"]:
            await self._stream_events(job, writer)
            return
        raise HttpError(404, f"no route for GET {path}")

    def _result(self, job: Job) -> bytes:
        if job.state == FAILED:
            raise HttpError(409, f"job {job.id} failed: {job.error}")
        if job.state != DONE:
            raise HttpError(
                409, f"job {job.id} is {job.state}; result not available yet"
            )
        return response_bytes(200, render_json(job.result_payload()))

    async def _stream_events(self, job: Job, writer) -> None:
        writer.write(sse_headers())
        await writer.drain()
        async for payload in self.manager.stream(job):
            writer.write(sse_event(payload, event="progress"))
            await writer.drain()
        writer.write(sse_event(job.status(), event="done"))
        await writer.drain()

    def stats(self) -> dict:
        return {
            "draining": self.draining,
            "manager": self.manager.stats(),
            "rate_limiter": self.limiter.stats(),
            "warm_keeper": self.warm_keeper.stats(),
        }


async def serve(config: Optional[ServiceConfig] = None) -> int:
    """Run a service until SIGINT/SIGTERM (or ``POST /v1/shutdown``).

    Returns a process exit code: 0 on a clean drain, 1 when the drain
    timed out with jobs still in flight.
    """
    service = ReproService(config)
    await service.start()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    for signame in ("SIGINT", "SIGTERM"):
        if hasattr(signal, signame):
            try:
                loop.add_signal_handler(
                    getattr(signal, signame), service.request_shutdown
                )
                installed.append(getattr(signal, signame))
            except (NotImplementedError, RuntimeError):
                pass  # platform/embedding without loop signal support
    try:
        drained = await service.serve_until_shutdown()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
    return 0 if drained else 1
