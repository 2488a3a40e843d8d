"""Async-safe bridges between asyncio services and the blocking DSE stack.

The engine, the study registry, and the persistent caches are all
synchronous (every sweep runs serially in its calling thread).  A long-lived
asyncio service cannot call them directly without stalling its event
loop, and their telemetry callbacks fire on worker threads, where
touching asyncio state is undefined behavior.  Two small adapters close
the gap:

* :class:`TelemetryBridge` — a thread-safe progress callback that
  forwards every :class:`~repro.runtime.telemetry.ProgressEvent` onto an
  event loop via ``loop.call_soon_threadsafe``, so an async consumer
  (an SSE stream, a live dashboard) observes sweep progress without any
  locking of its own.
* :class:`AsyncStudyRunner` — a bounded thread pool that runs blocking
  study/sweep callables off the loop (``await runner.call(fn, ...)``).
  The runner's width bounds how many *studies* are in flight
  concurrently, which is exactly the service's job-slot knob.

Both are dependency-free (stdlib ``asyncio`` + ``concurrent.futures``)
and usable from any asyncio application, not just :mod:`repro.service`.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional

from repro.runtime.telemetry import ProgressCallback, ProgressEvent


class TelemetryBridge:
    """Forward telemetry events from worker threads into an event loop.

    ``consumer`` runs on the loop (one call per event, in emission
    order); the returned :attr:`callback` is meant for
    ``RuntimeOptions.progress`` (the service's ``JobManager`` feeds its
    ``_on_event`` this way) and may be called from any thread.  After
    :meth:`close`, further events are dropped — a sweep outliving its
    subscriber must not crash the loop.
    """

    def __init__(
        self,
        consumer: Callable[[ProgressEvent], None],
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        self._consumer = consumer
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._closed = False

    @property
    def callback(self) -> ProgressCallback:
        return self._forward

    def _forward(self, event: ProgressEvent) -> None:
        if self._closed or self._loop.is_closed():
            return
        try:
            self._loop.call_soon_threadsafe(self._deliver, event)
        except RuntimeError:
            # The loop shut down between the check and the call; the
            # sweep finishing later must not take the worker down.
            self._closed = True

    def _deliver(self, event: ProgressEvent) -> None:
        if not self._closed:
            self._consumer(event)

    def close(self) -> None:
        self._closed = True


class AsyncStudyRunner:
    """Run blocking DSE work on a bounded thread pool, awaitably.

    ``workers`` bounds concurrent blocking calls (one study or sweep
    each); excess calls queue inside the executor.  The runner is the
    async-safe engine wrapper: services submit work with
    ``await runner.call(spec.run, runtime)`` and the loop stays live
    while the study characterizes/evaluates on a runner thread.
    """

    def __init__(self, workers: int = 2) -> None:
        if int(workers) < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.workers = int(workers)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )
        self._closed = False

    async def call(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        """Await ``fn(*args, **kwargs)`` run on the pool."""
        if self._closed:
            raise RuntimeError("AsyncStudyRunner is closed")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool, functools.partial(fn, *args, **kwargs)
        )

    def shutdown(self, wait: bool = True, cancel_pending: bool = True) -> None:
        """Stop accepting work; optionally wait for in-flight calls.

        ``cancel_pending`` drops queued-but-unstarted calls (their
        futures raise ``CancelledError``); calls already running always
        finish — a study is not interruptible mid-characterization.
        """
        self._closed = True
        self._pool.shutdown(wait=wait, cancel_futures=cancel_pending)

    @property
    def closed(self) -> bool:
        return self._closed
