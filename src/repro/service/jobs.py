"""Supervised job execution with request coalescing and progress fan-out.

The :class:`JobManager` is the service's core: submissions become
:class:`Job` records keyed by their content fingerprint, a fixed pool of
asyncio workers drains the queue, and each job's blocking study/sweep
runs on an :class:`~repro.runtime.aio.AsyncStudyRunner` thread with its
telemetry bridged back onto the event loop.

**Coalescing and memoization are the same mechanism.**  The fingerprint
covers everything that determines the result (inputs + source
revision), so the fingerprint→job map serves three cases with
one lookup:

* an identical request while the original is queued/running attaches to
  the in-flight job (``"coalesced"`` — the pending-futures pattern, with
  the job's ``done`` event as the shared future);
* an identical request after success returns the finished job
  (``"memo"`` — zero fresh work, byte-identical result);
* a request whose twin *failed* starts over — failures are not sticky.

Progress events append to the job's replayable event log and fan out to
any number of subscriber queues (the SSE endpoint's feed).  All manager
state is touched only on the event loop — worker threads reach it solely
through the :class:`~repro.runtime.aio.TelemetryBridge` — so there is no
lock here at all.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from typing import AsyncIterator, Callable, Optional, Tuple

from repro.runtime.aio import AsyncStudyRunner, TelemetryBridge
from repro.runtime.options import RuntimeOptions, ensure_runtime
from repro.runtime.telemetry import ProgressEvent, SweepTelemetry
from repro.studies.pipeline import StudyOutcome, StudyRequest

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Sentinel pushed to subscriber queues when a job reaches a terminal state.
_STREAM_END = None


class Job:
    """One fingerprinted unit of work and everything observed about it."""

    def __init__(
        self,
        job_id: str,
        query: StudyRequest,
        fingerprint: str,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.id = job_id
        self.query = query
        self.fingerprint = fingerprint
        self.state = QUEUED
        self.submissions = 1  # how many client submissions share this job
        self.created_s = clock()
        self.telemetry = SweepTelemetry()
        self.events: list[dict] = []  # replayable SSE payloads
        self.outcome: Optional[StudyOutcome] = None
        self.error: Optional[str] = None
        self.elapsed_s = 0.0
        self.done = asyncio.Event()
        self.subscribers: list[asyncio.Queue] = []

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED)

    def status(self) -> dict:
        """The volatile job view (the status endpoint's payload).

        Everything that differs between a cold computation and a warm
        cache hit — telemetry, timings, event counts — lives here, NOT
        in :meth:`result_payload`.
        """
        return {
            "id": self.id,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "request": self.query.describe(),
            "submissions": self.submissions,
            "events": len(self.events),
            "telemetry": self.telemetry.counters(),
            "fresh_work": self.telemetry.fresh_work,
            "elapsed_s": round(self.elapsed_s, 6),
            "error": self.error,
        }

    def result_payload(self) -> dict:
        """The *stable* result view: inputs + table, nothing volatile.

        Deliberately excludes telemetry, timings, and job bookkeeping so
        a warm re-submission renders byte-identically to the original
        cold computation (the service's reproducibility guarantee).
        """
        if self.outcome is None or self.outcome.table is None:
            raise RuntimeError(f"job {self.id} has no result")
        table = self.outcome.table
        return {
            "name": self.query.name,
            "kind": self.query.kind,
            "fingerprint": self.fingerprint,
            "row_count": len(table),
            "columns": list(table.columns),
            "rows": [dict(row) for row in table],
            "csv": table.to_csv(),
        }


class JobManager:
    """Fingerprint-keyed job store + bounded asyncio worker pool."""

    def __init__(
        self,
        runtime: Optional[RuntimeOptions] = None,
        workers: int = 2,
        clock: Callable[[], float] = time.time,
    ):
        self.runtime = ensure_runtime(runtime)
        self.workers = max(1, int(workers))
        #: Injectable wall clock (tests freeze it; the linter's
        #: determinism rule bans bare time.time() on fingerprinted
        #: paths, and an injected clock keeps job records replayable).
        self.clock = clock
        self.jobs: dict[str, Job] = {}  # by job id, insertion-ordered
        self._by_key: dict[str, Job] = {}  # by fingerprint
        self._queue: Optional[asyncio.Queue] = None
        self._runner: Optional[AsyncStudyRunner] = None
        self._worker_tasks: list[asyncio.Task] = []
        self._next_id = 0
        self.accepting = True

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spin up the worker pool (requires a running event loop)."""
        if self._queue is not None:
            raise RuntimeError("JobManager already started")
        self._queue = asyncio.Queue()
        self._runner = AsyncStudyRunner(workers=self.workers)
        loop = asyncio.get_running_loop()
        self._worker_tasks = [
            loop.create_task(self._worker(), name=f"repro-service-worker-{i}")
            for i in range(self.workers)
        ]

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop intake, wait for in-flight, tear down.

        Returns ``True`` when every accepted job reached a terminal
        state within ``timeout`` (``None`` waits forever).  Either way
        the worker tasks are cancelled, the thread pool is shut down,
        and every open event stream is terminated.
        """
        self.accepting = False
        pending = [job.done.wait() for job in self.jobs.values() if not job.finished]
        drained = True
        if pending:
            try:
                await asyncio.wait_for(asyncio.gather(*pending), timeout)
            except asyncio.TimeoutError:
                drained = False
        for task in self._worker_tasks:
            task.cancel()
        for task in self._worker_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._worker_tasks = []
        if self._runner is not None and not self._runner.closed:
            # In-flight threads (if the timeout expired) finish on their
            # own; nothing queued survives.
            self._runner.shutdown(wait=False, cancel_pending=True)
        for job in self.jobs.values():
            for queue in list(job.subscribers):
                queue.put_nowait(_STREAM_END)
        return drained

    # -- submission --------------------------------------------------------

    def submit(self, query: StudyRequest) -> Tuple[Job, str]:
        """Submit a request; returns ``(job, "created"|"coalesced"|"memo")``.

        Identical in-flight fingerprints share one computation; finished
        successful fingerprints are served as memo hits; failed ones are
        retried under a fresh job.
        """
        if self._queue is None:
            raise RuntimeError("JobManager not started")
        if not self.accepting:
            raise RuntimeError("JobManager is draining")
        key = query.fingerprint()
        existing = self._by_key.get(key)
        if existing is not None:
            if existing.state == FAILED:
                del self._by_key[key]  # retry failures under a new job
            else:
                existing.submissions += 1
                return existing, ("memo" if existing.finished else "coalesced")
        self._next_id += 1
        job = Job(f"job-{self._next_id:06d}", query, key, clock=self.clock)
        self.jobs[job.id] = job
        self._by_key[key] = job
        self._queue.put_nowait(job)
        return job, "created"

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    # -- execution ---------------------------------------------------------

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            try:
                await self._run_job(job)
            finally:
                self._queue.task_done()

    async def _run_job(self, job: Job) -> None:
        assert self._runner is not None
        job.state = RUNNING
        start = time.perf_counter()
        bridge = TelemetryBridge(lambda event: self._on_event(job, event))
        try:
            outcome = await self._runner.call(
                job.query.run, replace(self.runtime, progress=bridge.callback)
            )
        except asyncio.CancelledError:
            job.error = "cancelled during shutdown"
            self._finish(job, FAILED, time.perf_counter() - start)
            raise
        except Exception as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, FAILED, time.perf_counter() - start)
            return
        finally:
            bridge.close()
        elapsed = time.perf_counter() - start
        job.outcome = outcome
        job.telemetry.absorb(outcome.telemetry)
        if outcome.ok and outcome.table is not None:
            self._finish(job, DONE, elapsed)
        else:
            job.error = outcome.error or "study produced no table"
            self._finish(job, FAILED, elapsed)

    def _finish(self, job: Job, state: str, elapsed: float) -> None:
        job.state = state
        job.elapsed_s = elapsed
        job.done.set()
        for queue in list(job.subscribers):
            queue.put_nowait(_STREAM_END)

    def _on_event(self, job: Job, event: ProgressEvent) -> None:
        """Runs on the event loop (via the bridge) — no locking needed."""
        payload = event.to_dict()
        job.events.append(payload)
        for queue in list(job.subscribers):
            queue.put_nowait(payload)

    # -- observation -------------------------------------------------------

    async def stream(self, job: Job) -> AsyncIterator[dict]:
        """Yield the job's progress events: full replay, then live.

        Terminates when the job reaches a terminal state (late
        subscribers to a finished job get the replay and an immediate
        end).  The caller renders the frames (SSE or otherwise).
        """
        # Snapshot + subscribe with no await in between: _on_event also
        # runs on the loop, so nothing can interleave and every event
        # lands in exactly one of replay/queue.
        replay = list(job.events)
        if job.finished:
            for payload in replay:
                yield payload
            return
        queue: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(queue)
        try:
            for payload in replay:
                yield payload
            while True:
                payload = await queue.get()
                if payload is _STREAM_END:
                    return
                yield payload
        finally:
            if queue in job.subscribers:
                job.subscribers.remove(queue)

    def stats(self) -> dict:
        states: dict[str, int] = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        submissions = 0
        fresh_work = 0
        corrupt = 0
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
            submissions += job.submissions
            telemetry = job.telemetry
            fresh_work += telemetry.fresh_work
            corrupt += (
                telemetry.corrupt + telemetry.eval_corrupt
                + telemetry.trace_corrupt
            )
        return {
            "jobs": len(self.jobs),
            "states": states,
            "submissions": submissions,
            "coalesced": submissions - len(self.jobs),
            "fresh_work": fresh_work,
            "corrupt": corrupt,
            "workers": self.workers,
            "accepting": self.accepting,
        }
