#!/usr/bin/env python3
"""The unified study pipeline: run registered paper studies uniformly.

Every study in ``repro.studies.pipeline.REGISTRY`` accepts the same
``RuntimeOptions`` — a persistent cache root (array characterizations,
(array x traffic) evaluation blocks, and LLC traces all live under it),
error policy, progress callback, and seed.  This demo:

  1. lists the registry;
  2. runs two studies cold against a cache directory;
  3. runs them again warm — zero characterizations, zero evaluations,
     every block served from the persistent caches.

Equivalent CLI:
  python -m repro.config.cli run-study ext_hierarchy --cache-dir .cache
  python -m repro.config.cli summary out --only fig09_spec_llc --cache-dir .cache

Run:  python examples/study_pipeline.py
"""

import tempfile

from repro.runtime.options import RuntimeOptions
from repro.studies.pipeline import REGISTRY

DEMO_STUDIES = ("ext_hierarchy", "fig09_spec_llc")


def run_pass(runtime: RuntimeOptions, label: str) -> None:
    print(f"--- {label} ---")
    for name in DEMO_STUDIES:
        outcome = REGISTRY[name].run(runtime)
        t = outcome.telemetry
        print(f"{name:18s} {outcome.rows:4d} rows  {outcome.elapsed_s:5.2f}s  "
              f"chars {t.completed} fresh / {t.cached} cached, "
              f"evals {t.evaluated} fresh / {t.eval_cached} cached")
    print()


def main() -> None:
    print(f"{len(REGISTRY)} registered studies:")
    for name, spec in REGISTRY.items():
        print(f"  {name:26s} {spec.figure:20s} {spec.description}")
    print()

    with tempfile.TemporaryDirectory() as cache_dir:
        runtime = RuntimeOptions(cache_dir=cache_dir)
        run_pass(runtime, "cold run (populates the persistent caches)")

        warm = RuntimeOptions(cache_dir=cache_dir)
        print("--- warm run (everything served from cache) ---")
        for name in DEMO_STUDIES:
            outcome = REGISTRY[name].run(warm)
            t = outcome.telemetry
            assert t.completed == 0, "warm run must not re-characterize"
            assert t.evaluated == 0, "warm run must not re-evaluate"
            print(f"{name:18s} {outcome.rows:4d} rows  {outcome.elapsed_s:5.2f}s  "
                  f"all {t.cached} characterizations and "
                  f"{t.eval_cached} evaluation blocks cached")

    print("\nwarm re-run recomputed nothing; results identical by construction.")


if __name__ == "__main__":
    main()
