"""The DSE service: submit/status/result/SSE, coalescing, rate limits, warm hits.

Every async test runs a *real* server (``asyncio.start_server`` on
127.0.0.1, port 0) and talks to it over TCP with the dependency-free
:class:`~repro.service.client.ServiceClient` — no HTTP library, no
pytest-asyncio; each test wraps its coroutine in ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path

import pytest

from repro.config.schema import ServiceConfig
from repro.errors import ReproError
from repro.results.table import ResultTable
from repro.runtime.options import RuntimeOptions
from repro.runtime.telemetry import SweepTelemetry
from repro.service import (
    JobManager,
    ReproService,
    ServiceClient,
    ServiceError,
    TokenBucket,
    WarmKeeper,
    resolve_request,
)
from repro.studies.pipeline import (
    REGISTRY,
    StudyOutcome,
    StudyRequest,
    resolve_study_request,
)

FAST_STUDY = "fig05_dnn_arrays"
CONFIG_DIR = Path(__file__).resolve().parents[1] / "config"


class SlowQuery:
    """A study query whose run blocks until ``gate`` is set.

    Holds a job in the running state for as long as a test needs it
    there, so no assertion about an unfinished job races the worker.
    """

    kind = "study"
    name = "slow"

    def __init__(self, gate):
        self.gate = gate
        self.runs = 0

    def fingerprint(self):
        return "slow-fingerprint"

    def describe(self):
        return {"kind": "study", "study": self.name}

    def run(self, runtime=None):
        from repro.studies.pipeline import run_study

        self.runs += 1
        self.gate.wait(timeout=10)
        table = run_study(FAST_STUDY, runtime)
        return StudyOutcome(
            name=self.name, table=table, telemetry=SweepTelemetry(),
            elapsed_s=0.0,
        )


def service_config(cache_dir, **overrides) -> ServiceConfig:
    """A test-friendly config: ephemeral port, no rate limit by default."""
    settings = {
        "port": 0,
        "workers": 2,
        "rate_limit_rps": 0.0,
        "runtime": RuntimeOptions(
            cache_dir=None if cache_dir is None else str(cache_dir),
            on_error="skip",
        ),
    }
    settings.update(overrides)
    return ServiceConfig(**settings)


async def _with_service(config, body):
    """Start a service, run ``body(service, client)``, always drain."""
    service = ReproService(config)
    await service.start()
    client = ServiceClient(service.host, service.port)
    try:
        return await body(service, client)
    finally:
        await service.shutdown()


# -- request resolution ----------------------------------------------------


def test_resolve_study_request_validates():
    request = resolve_study_request({"study": FAST_STUDY, "seed": 3})
    assert isinstance(request, StudyRequest)
    assert request.name == FAST_STUDY
    assert request.seed == 3
    with pytest.raises(ReproError, match="unknown study"):
        resolve_study_request({"study": "nope"})
    with pytest.raises(ReproError, match="unknown request keys"):
        resolve_study_request({"study": FAST_STUDY, "bogus": 1})
    with pytest.raises(ReproError, match="bad params"):
        resolve_study_request({"study": FAST_STUDY, "params": {"bogus": 1}})
    with pytest.raises(ReproError, match="not a study parameter"):
        resolve_study_request({"study": FAST_STUDY, "params": {"runtime": {}}})
    with pytest.raises(ReproError, match="'study' key"):
        resolve_study_request({})


@pytest.mark.parametrize(
    "seed", [3.7, True, False, "abc", [3]],
    ids=["fraction", "true", "false", "text", "list"],
)
def test_resolve_study_request_rejects_non_integer_seed(seed):
    with pytest.raises(ReproError, match="seed must be an integer"):
        resolve_study_request({"study": FAST_STUDY, "seed": seed})


def test_resolve_study_request_accepts_integral_seed():
    for seed in (3, 3.0, "3"):
        assert resolve_study_request({"study": FAST_STUDY, "seed": seed}).seed == 3


def test_study_request_fingerprint_covers_inputs():
    base = resolve_study_request({"study": FAST_STUDY})
    assert base.fingerprint() == resolve_study_request(
        {"study": FAST_STUDY}
    ).fingerprint()
    assert base.fingerprint() != resolve_study_request(
        {"study": FAST_STUDY, "seed": 9}
    ).fingerprint()
    assert base.fingerprint() != resolve_study_request(
        {"study": "ext_hierarchy"}
    ).fingerprint()


def test_resolve_request_dispatches_study_and_sweep():
    study = resolve_request({"study": FAST_STUDY})
    assert isinstance(study, StudyRequest)
    assert study.kind == "study"
    sweep = resolve_request({"sweep": {
        "name": "tiny",
        "cells": {"technologies": ["STT"], "flavors": ["optimistic"]},
        "system": {"capacities_mb": [2]},
    }})
    assert isinstance(sweep, StudyRequest)
    assert sweep.kind == "sweep"
    assert sweep.name == "tiny"
    raw = sweep.spec.params["config"]
    assert sweep.fingerprint() == resolve_request(
        {"sweep": dict(raw)}
    ).fingerprint()
    with pytest.raises(ReproError, match="server-controlled"):
        resolve_request({"sweep": {**dict(raw), "runtime": {}}})
    with pytest.raises(ReproError):
        resolve_request({"sweep": {"cells": {}}})  # selects no cells


# -- rate limiting ---------------------------------------------------------


def test_token_bucket_refills():
    clock = [0.0]
    bucket = TokenBucket(capacity=2, fill_rate=1.0, clock=lambda: clock[0])
    assert bucket.take() == (True, 0.0)
    assert bucket.take() == (True, 0.0)
    allowed, retry = bucket.take()
    assert not allowed and retry == pytest.approx(1.0)
    clock[0] = 1.0
    assert bucket.take() == (True, 0.0)


# -- end-to-end over real sockets ------------------------------------------


def test_cold_submit_computes_and_streams(tmp_path):
    """Acceptance: a cold submit computes, streams progress, serves a result."""

    async def body(service, client):
        health = await client.health()
        assert health["status"] == "ok"
        studies = await client.studies()
        assert {s["name"] for s in studies} == set(REGISTRY)

        submitted = await client.submit({"study": FAST_STUDY})
        assert submitted["submission"] == "created"
        job_id = submitted["job"]["id"]

        frames = [frame async for frame in client.events(job_id)]
        progress = [f for f in frames if f["event"] == "progress"]
        assert len(progress) >= 1  # acceptance: >= 1 streamed progress event
        assert all(
            f["data"]["phase"] in ("characterize", "evaluate", "trace")
            for f in progress
        )
        assert frames[-1]["event"] == "done"

        status = await client.wait(job_id, timeout=60)
        assert status["state"] == "done"
        assert status["fresh_work"] > 0  # cold: actually computed
        assert status["telemetry"]["characterize_wall_s"] > 0

        result = await client.result(job_id)
        assert result["name"] == FAST_STUDY
        assert result["row_count"] == len(result["rows"]) > 0
        assert set(result["columns"]) == set(result["rows"][0])
        # The stable result view carries nothing volatile.
        assert "telemetry" not in result and "elapsed_s" not in result
        return await client.result_bytes(job_id)

    cold = asyncio.run(_with_service(service_config(tmp_path / "cache"), body))
    assert json.loads(cold.decode("utf-8"))["name"] == FAST_STUDY


def test_concurrent_identical_submits_share_one_job(tmp_path):
    """Acceptance: identical concurrent submits coalesce onto one computation."""

    async def body(service, client):
        first, second = await asyncio.gather(
            client.submit({"study": FAST_STUDY}),
            client.submit({"study": FAST_STUDY}),
        )
        assert first["job"]["id"] == second["job"]["id"]
        modes = {first["submission"], second["submission"]}
        assert "created" in modes and modes <= {"created", "coalesced", "memo"}

        status = await client.wait(first["job"]["id"], timeout=60)
        assert status["state"] == "done"
        assert status["submissions"] == 2

        stats = await client.stats()
        assert stats["manager"]["jobs"] == 1  # one computation, two submissions
        assert stats["manager"]["submissions"] == 2
        assert stats["manager"]["coalesced"] == 1

        # Late re-submit after completion: a memo hit on the same job.
        third = await client.submit({"study": FAST_STUDY})
        assert third["submission"] == "memo"
        assert third["job"]["id"] == first["job"]["id"]

    asyncio.run(_with_service(service_config(tmp_path / "cache"), body))


def test_coalescing_waits_on_inflight_computation():
    """Deterministic coalescing: second submit attaches while job runs."""

    async def main():
        gate = threading.Event()
        query = SlowQuery(gate)
        manager = JobManager(runtime=RuntimeOptions(on_error="skip"), workers=2)
        manager.start()
        try:
            job1, mode1 = manager.submit(query)
            await asyncio.sleep(0.05)  # job is now RUNNING, blocked on the gate
            job2, mode2 = manager.submit(query)
            assert mode1 == "created" and mode2 == "coalesced"
            assert job1 is job2 and job1.submissions == 2
            gate.set()
            await asyncio.wait_for(job1.done.wait(), timeout=30)
            assert job1.state == "done"
            assert query.runs == 1  # exactly one computation
        finally:
            gate.set()
            await manager.drain(timeout=10)

    asyncio.run(main())


def test_sweep_submission_runs_like_run_config(tmp_path):
    """A shipped sweep config submitted over HTTP gives run_config's CSV."""
    from repro.config import run_config

    raw = json.loads((CONFIG_DIR / "array_characterization.json").read_text())
    del raw["runtime"], raw["output_csv"]
    expected_csv = run_config(raw).to_csv()

    async def body(service, client):
        submitted = await client.submit({"sweep": raw})
        assert submitted["submission"] == "created"
        job_id = submitted["job"]["id"]
        status = await client.wait(job_id, timeout=120)
        assert status["state"] == "done", status["error"]
        assert status["request"] == {"kind": "sweep", "sweep": "array_characterization"}
        result = await client.result(job_id)
        again = await client.submit({"sweep": raw})
        return result, again

    result, again = asyncio.run(
        _with_service(service_config(tmp_path / "cache"), body)
    )
    assert result["kind"] == "sweep"
    assert result["row_count"] == 90
    assert result["csv"] == expected_csv
    assert again["submission"] == "memo"
    assert again["job"]["id"] == "job-000001"


def test_warm_resubmit_is_byte_identical_with_zero_fresh_work(tmp_path):
    """Acceptance: warm re-submit → byte-identical result, fresh_work == 0."""
    cache = tmp_path / "cache"

    async def cold(service, client):
        submitted = await client.submit({"study": FAST_STUDY})
        status = await client.wait(submitted["job"]["id"], timeout=60)
        assert status["fresh_work"] > 0
        return await client.result_bytes(submitted["job"]["id"])

    async def warm(service, client):
        submitted = await client.submit({"study": FAST_STUDY})
        status = await client.wait(submitted["job"]["id"], timeout=60)
        assert status["state"] == "done"
        assert status["fresh_work"] == 0  # acceptance: zero fresh work
        return await client.result_bytes(submitted["job"]["id"])

    first = asyncio.run(_with_service(service_config(cache), cold))
    # A brand-new service instance against the same cache substrate.
    second = asyncio.run(_with_service(service_config(cache), warm))
    assert first == second  # acceptance: byte-identical


def test_rate_limit_returns_429(tmp_path):
    config = service_config(
        tmp_path / "cache", rate_limit_rps=0.001, rate_limit_burst=1
    )

    async def body(service, client):
        first = await client.submit({"study": FAST_STUDY}, client_id="alice")
        assert first["job"]["id"]
        with pytest.raises(ServiceError) as excinfo:
            await client.submit({"study": FAST_STUDY}, client_id="alice")
        assert excinfo.value.status == 429
        # Another client has its own bucket.
        other = await client.submit({"study": FAST_STUDY}, client_id="bob")
        assert other["submission"] in ("coalesced", "memo")
        status, headers, _ = await client.request(
            "POST", "/v1/submit", {"study": FAST_STUDY},
            {"X-Client-Id": "alice"},
        )
        assert status == 429
        assert int(headers["retry-after"]) >= 1
        await client.wait(first["job"]["id"], timeout=60)

    asyncio.run(_with_service(config, body))


def test_http_errors(tmp_path):
    async def body(service, client):
        with pytest.raises(ServiceError) as excinfo:
            await client.submit({"study": "nope"})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            await client.status("job-999999")
        assert excinfo.value.status == 404
        status, _, _ = await client.request("GET", "/no/such/route")
        assert status == 404
        # Result before completion: 409. The job is held on a gate so it
        # cannot finish between the submit and the result request.
        gate = threading.Event()
        job, _ = service.manager.submit(SlowQuery(gate))
        try:
            with pytest.raises(ServiceError) as excinfo:
                await client.result(job.id)
            assert excinfo.value.status == 409
        finally:
            gate.set()
        assert (await client.wait(job.id, timeout=60))["state"] == "done"
        assert (await client.result(job.id))

    asyncio.run(_with_service(service_config(tmp_path / "cache"), body))


def test_graceful_shutdown_drains_inflight_jobs(tmp_path):
    async def body():
        service = ReproService(service_config(tmp_path / "cache"))
        await service.start()
        client = ServiceClient(service.host, service.port)
        submitted = await client.submit({"study": FAST_STUDY})
        # While the listener is still up but draining, submissions get 503.
        service.draining = True
        with pytest.raises(ServiceError) as excinfo:
            await client.submit({"study": "ext_hierarchy"})
        assert excinfo.value.status == 503
        health = await client.health()
        assert health["status"] == "draining"
        await client.shutdown_server()
        drained = await asyncio.wait_for(service.serve_until_shutdown(), 60)
        assert drained  # in-flight job finished within the drain window
        job = service.manager.get(submitted["job"]["id"])
        assert job is not None and job.state == "done"

    asyncio.run(body())


def test_warm_keeper_precomputes_and_stamps(tmp_path):
    cache = tmp_path / "cache"

    async def main():
        manager = JobManager(
            runtime=RuntimeOptions(cache_dir=str(cache), on_error="skip"),
            workers=1,
        )
        manager.start()
        try:
            keeper = WarmKeeper(manager, [FAST_STUDY], cache_dir=str(cache))
            warmed = await asyncio.wait_for(keeper.run_once(), timeout=60)
            assert warmed == [FAST_STUDY]
            stamp = json.loads(
                (cache / "service" / "warm_stamp.json").read_text()
            )
            assert FAST_STUDY in stamp["fingerprints"]
            # Unchanged fingerprints: the second pass does nothing.
            assert await keeper.run_once() == []
            assert keeper.runs == 2 and keeper.warmed_total == 1
        finally:
            await manager.drain(timeout=10)

    asyncio.run(main())


def test_warm_start_serves_without_fresh_work(tmp_path):
    """A service with a warm-keeper answers client submits with zero work."""
    cache = tmp_path / "cache"

    async def prewarm():
        manager = JobManager(
            runtime=RuntimeOptions(cache_dir=str(cache), on_error="skip"),
            workers=1,
        )
        manager.start()
        try:
            keeper = WarmKeeper(manager, [FAST_STUDY], cache_dir=str(cache))
            await asyncio.wait_for(keeper.run_once(), timeout=60)
        finally:
            await manager.drain(timeout=10)

    async def serve_warm(service, client):
        # The service's own warm-keeper pass found nothing to do...
        await asyncio.wait_for(service.warm_keeper.run_once(), timeout=60)
        assert service.warm_keeper.warmed_total == 0
        # ...and a client submit is served entirely from cache.
        submitted = await client.submit({"study": FAST_STUDY})
        status = await client.wait(submitted["job"]["id"], timeout=60)
        assert status["state"] == "done" and status["fresh_work"] == 0

    asyncio.run(prewarm())
    asyncio.run(_with_service(
        service_config(cache, warm_studies=(FAST_STUDY,)), serve_warm
    ))


# -- resilience: limiter pruning, client retries, job re-attempts ----------


def test_rate_limiter_prunes_idle_buckets():
    from repro.service import RateLimiter

    clock = [0.0]
    limiter = RateLimiter(rps=1.0, burst=2, clock=lambda: clock[0])
    limiter.check("alice")
    limiter.check("bob")
    assert limiter.stats()["clients"] == 2
    # one full refill horizon (burst/rps = 2s) later, an untouched bucket
    # is indistinguishable from a fresh one — the next check evicts both
    clock[0] = 2.0
    limiter.check("carol")
    stats = limiter.stats()
    assert stats["clients"] == 1  # only carol survives
    assert stats["pruned"] == 2
    # a pruned client is forgiven, not penalized: full burst again
    allowed, _ = limiter.check("alice")
    assert allowed


def test_rate_limiter_prune_runs_at_most_once_per_horizon():
    from repro.service import RateLimiter

    clock = [0.0]
    limiter = RateLimiter(rps=1.0, burst=4, clock=lambda: clock[0])
    limiter.check("alice")
    clock[0] = 1.0  # inside the 4s horizon: no prune scan yet
    limiter.check("bob")
    assert limiter.stats()["pruned"] == 0
    clock[0] = 4.0  # past the horizon: alice (idle 4s) goes, bob (3s) stays
    limiter.check("carol")
    stats = limiter.stats()
    assert stats["pruned"] == 1
    assert stats["clients"] == 2


def test_client_submit_retries_transient_failures():
    async def main():
        client = ServiceClient("127.0.0.1", 1, retries=3, retry_backoff_s=0.0)
        calls = {"n": 0}

        async def flaky(method, path, payload=None, headers=None):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ServiceError(503, "draining")
            return {"job": {"id": "job-000001"}, "submission": "created"}

        client.request_json = flaky
        result = await client.submit({"study": FAST_STUDY})
        assert result["job"]["id"] == "job-000001"
        assert calls["n"] == 3

    asyncio.run(main())


def test_client_submit_does_not_retry_client_errors():
    async def main():
        client = ServiceClient("127.0.0.1", 1, retries=3, retry_backoff_s=0.0)
        calls = {"n": 0}

        async def rejected(method, path, payload=None, headers=None):
            calls["n"] += 1
            raise ServiceError(400, "bad request")

        client.request_json = rejected
        with pytest.raises(ServiceError, match="400"):
            await client.submit({"study": FAST_STUDY})
        assert calls["n"] == 1  # a 400 is deterministic; retrying is useless

    asyncio.run(main())


def test_client_submit_exhausts_retry_budget():
    async def main():
        client = ServiceClient("127.0.0.1", 1, retries=2, retry_backoff_s=0.0)
        calls = {"n": 0}

        async def down(method, path, payload=None, headers=None):
            calls["n"] += 1
            raise ConnectionRefusedError("nobody home")

        client.request_json = down
        with pytest.raises(ConnectionRefusedError):
            await client.submit({"study": FAST_STUDY})
        assert calls["n"] == 3  # the first try plus two retries

    asyncio.run(main())


def test_client_event_stream_resumes_from_replay():
    """A dropped SSE stream reconnects and each frame is seen exactly once."""

    frames = [
        {"event": "progress", "data": {"index": 0}},
        {"event": "progress", "data": {"index": 1}},
        {"event": "progress", "data": {"index": 2}},
        {"event": "done", "data": {"state": "done"}},
    ]

    async def main():
        client = ServiceClient("127.0.0.1", 1, retries=3, retry_backoff_s=0.0)
        connections = {"n": 0}

        async def dropping_stream(job_id):
            connections["n"] += 1
            if connections["n"] == 1:
                # the server dies after two progress frames, before done
                for frame in frames[:2]:
                    yield frame
                raise ConnectionResetError("server restarted")
            # the reconnect gets the full replay plus the terminal frame
            for frame in frames:
                yield frame

        client._events_once = dropping_stream
        seen = [frame async for frame in client.events("job-000001")]
        assert seen == frames  # replayed frames were skipped, none doubled
        assert connections["n"] == 2

    asyncio.run(main())


class _FlakyQuery:
    """A StudyRequest standin that fails ``failures`` times, then succeeds."""

    kind = "study"
    name = "flaky-study"

    def __init__(self, failures=1, error_factory=None):
        self.calls = 0
        self.failures = failures
        self._error_factory = error_factory or (
            lambda: ReproError("injected infrastructure fault")
        )

    def fingerprint(self):
        return f"flaky-{id(self)}"

    def describe(self):
        return {"kind": self.kind, "study": self.name}

    def run(self, runtime=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise self._error_factory()
        table = ResultTable([{"cell": "stt", "latency_ns": 1.0}])
        return StudyOutcome(
            name=self.name, table=table,
            telemetry=SweepTelemetry(), elapsed_s=0.01,
        )


def _run_job_to_completion(query, submissions=1):
    """Submit ``query`` ``submissions`` times in a row, each after the
    previous job finished; returns every job plus the final stats."""
    async def main():
        manager = JobManager(runtime=RuntimeOptions(on_error="skip"), workers=1)
        manager.start()
        try:
            jobs = []
            for _ in range(submissions):
                job, mode = manager.submit(query)
                assert mode == "created"
                await asyncio.wait_for(job.done.wait(), timeout=30)
                jobs.append(job)
            return jobs, manager.stats()
        finally:
            await manager.drain(timeout=10)

    return asyncio.run(main())


def test_job_manager_retries_transient_job_failures():
    """A failed job is not memoized: resubmitting re-runs the query under
    a fresh job, which succeeds once the fault has cleared."""
    query = _FlakyQuery(failures=1)
    (failed, done), stats = _run_job_to_completion(query, submissions=2)
    assert failed.state == "failed"
    assert "injected infrastructure fault" in failed.error
    assert done.state == "done" and done.id != failed.id
    assert query.calls == 2
    assert stats["states"]["failed"] == 1 and stats["states"]["done"] == 1
    # the failure counters ride through /v1/stats
    assert stats["corrupt"] == 0
    for gone in ("poisoned", "point_retries", "job_retries"):
        assert gone not in stats
    assert "retries" not in done.status()


def test_job_manager_fails_deterministic_errors_immediately():
    query = _FlakyQuery(
        failures=99, error_factory=lambda: ValueError("a real bug")
    )
    (job,), stats = _run_job_to_completion(query)
    assert job.state == "failed"
    assert query.calls == 1
    assert "a real bug" in job.error
