"""One study-suite run in a fresh interpreter, driven by ``perfbench/run.py``.

The harness starts this script once per run with ``PYTHONPATH`` pointing
at the checkout's ``src``, so every run pays what a CLI user pays: the
interpreter start, the imports, and every in-process memo (trained DNN
proxies, nvsim lane caches).  It times ``import repro.studies.summary``
(``setup_s``) and ``run_all`` (``suite_s``) and writes one JSON result
file.  With ``--trace`` the import is split into numpy, networkx and
repro, and the layer spans of :mod:`layers` are recorded around
``run_all``.

Usage (normally only via the harness)::

    PYTHONPATH=src python3 perfbench/child.py --out OUT --result RESULT.json \\
        [--cache DIR] [--seed N] [--only a,b] [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--cache", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--only", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    if args.trace:
        import numpy  # noqa: F401

        after_numpy = time.perf_counter()
        import networkx  # noqa: F401

        after_networkx = time.perf_counter()
    import repro.studies.summary as summary
    from repro.runtime.options import RuntimeOptions

    end = time.perf_counter()
    setup_s = end - start

    tracer = None
    if args.trace:
        import layers

        setup = {
            "setup.numpy_s": after_numpy - start,
            "setup.networkx_s": after_networkx - after_numpy,
            "setup.repro_s": end - after_networkx,
        }
        tracer = layers.install()

    runtime = RuntimeOptions(cache_dir=args.cache, seed=args.seed, on_error="skip")
    start = time.perf_counter()
    run = summary.run_all(
        args.out,
        runtime=runtime,
        only=args.only.split(",") if args.only else None,
        incremental=False,
    )
    suite_s = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux; report MiB.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    payload = {
        "setup_s": setup_s,
        "suite_s": suite_s,
        "peak_rss_mb": peak_rss_mb,
        "studies": [
            {
                "name": outcome.name,
                "ok": outcome.ok,
                "poisoned": outcome.poisoned,
                "fresh_work": outcome.telemetry.fresh_work,
                "rows": outcome.rows,
            }
            for outcome in run.outcomes
        ],
        "telemetry": run.telemetry.counters(),
    }
    if tracer is not None:
        payload["setup"] = setup
        payload["layers"] = tracer.report()
    with open(args.result, "w") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
