"""DSE-as-a-service: submit a study over HTTP and stream its progress.

Two modes:

* **Self-hosted demo** (no flags): starts an in-process service on an
  ephemeral port, submits a study cold, streams its per-point progress
  events, re-submits to show the memo hit, prints the result summary,
  and drains the server — the whole serving lifecycle in one script::

      python examples/service_client.py

* **Client mode** (``--host``/``--port``): talks to an already-running
  server (``nvmexplorer serve config/service.json``).  ``--expect-warm``
  exits non-zero if the submission performed any fresh model work (the
  CI cache check), ``--shutdown`` asks the server to drain afterwards::

      python examples/service_client.py --host 127.0.0.1 --port 8177 \\
          --study fig05_dnn_arrays --expect-warm --shutdown

The client absorbs transient server trouble: submissions retry with
backoff on connection reset or 503 (idempotent server-side, keyed by
content fingerprint), and a dropped progress stream reconnects and
resumes from the server's event replay — so the session survives a
server restart mid-stream (``--retries`` bounds both).
"""

import argparse
import asyncio
import sys

from repro.service import ServiceClient


async def run_session(client: ServiceClient, study: str,
                      expect_warm: bool, shutdown: bool) -> int:
    health = await client.health()
    print(f"server: {client.host}:{client.port} ({health['status']})")

    submitted = await client.submit({"study": study})
    job = submitted["job"]
    print(f"submitted {study}: {job['id']} "
          f"({submitted['submission']}, state={job['state']})")

    progress = 0
    async for frame in client.events(job["id"]):
        if frame["event"] == "progress":
            progress += 1
            data = frame["data"]
            print(f"  [{data['phase']:12s}] {data['kind']:9s} "
                  f"{data['index'] + 1}/{data['total']} {data['label']}")
        else:  # the terminal "done" frame carries the job status
            print(f"stream closed: state={frame['data']['state']} "
                  f"after {progress} progress events")

    status = await client.wait(job["id"], timeout=600)
    telemetry = status["telemetry"]
    print(f"finished: state={status['state']} fresh_work={status['fresh_work']} "
          f"elapsed={status['elapsed_s']:.2f}s "
          f"(chars {telemetry['completed']}/{telemetry['cached']} "
          f"fresh/cached, {telemetry['characterize_wall_s']:.2f}s model wall)")
    if status["state"] != "done":
        print(f"job failed: {status['error']}", file=sys.stderr)
        return 1

    result = await client.result(job["id"])
    print(f"result: {result['row_count']} rows x "
          f"{len(result['columns'])} columns "
          f"(fingerprint {result['fingerprint'][:12]}...)")

    again = await client.submit({"study": study})
    print(f"re-submit: {again['submission']} -> same job {again['job']['id']}")

    code = 0
    if expect_warm and status["fresh_work"] > 0:
        print(f"expected a warm submission but fresh_work="
              f"{status['fresh_work']}", file=sys.stderr)
        code = 1
    if shutdown:
        print("requesting graceful shutdown:",
              (await client.shutdown_server())["status"])
    return code


async def self_hosted_demo(study: str) -> int:
    from repro.config.schema import ServiceConfig
    from repro.runtime.options import RuntimeOptions
    from repro.service import ReproService

    service = ReproService(ServiceConfig(
        port=0, workers=2,
        runtime=RuntimeOptions(on_error="skip"),
    ))
    await service.start()
    print("self-hosted demo (ephemeral port, in-memory cache)")
    try:
        code = await run_session(
            ServiceClient(service.host, service.port), study,
            expect_warm=False, shutdown=False,
        )
        stats = await ServiceClient(service.host, service.port).stats()
        manager = stats["manager"]
        print(f"server stats: {manager['jobs']} jobs, "
              f"{manager['submissions']} submissions "
              f"({manager['coalesced']} coalesced)")
        return code
    finally:
        drained = await service.shutdown()
        print(f"drained cleanly: {drained}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default=None, help="server address")
    parser.add_argument("--port", type=int, default=8177)
    parser.add_argument("--study", default="fig05_dnn_arrays",
                        help="registry study to submit")
    parser.add_argument("--retries", type=int, default=3,
                        help="transient-failure retries for submit and the "
                             "event stream (connection reset / 503)")
    parser.add_argument("--expect-warm", action="store_true",
                        help="exit non-zero if any fresh work was performed")
    parser.add_argument("--shutdown", action="store_true",
                        help="ask the server to drain afterwards")
    args = parser.parse_args()
    if args.host is None:
        return asyncio.run(self_hosted_demo(args.study))
    return asyncio.run(run_session(
        ServiceClient(args.host, args.port, retries=args.retries), args.study,
        args.expect_warm, args.shutdown,
    ))


if __name__ == "__main__":
    code = main()
    if code:  # exit 0 implicitly so in-process smoke runs don't trip
        raise SystemExit(code)
