"""Harness self-test: catches a broken harness without the full multi-run cost.

Run from the root of a checkout (takes about half a minute)::

    python3 perfbench/selftest.py

It drives one small study (``fig05_dnn_arrays``) through every
workload, untraced and traced, and checks that every result line has
the contract's shape, zero failed operations and exactly the metrics
``BENCHMARK.json`` names.  It also checks that the zero-call guard fails
loudly and that a directory holding only the benchmark refuses to run.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench

STUDY = "fig05_dnn_arrays"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def invoke(script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=170,
    )


def check_result(proc: subprocess.CompletedProcess, expected: dict, label: str) -> None:
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{label}: not correct\n{proc.stderr}")
    check(result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: {result['failed']}/{result['attempted']} failed")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    check(units == expected, f"{label}: metrics differ from BENCHMARK.json")
    check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
          f"{label}: non-numeric metric value")


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(end_to_end == dict(bench.END_TO_END), "end_to_end list drifted from run.py")
    check(per_layer == {n: bench.metric_unit(n) for n in bench.per_layer_names()},
          "per_layer list drifted from run.py")
    check([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
          "workload list drifted from run.py")

    for workload in bench.WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} trace={trace}"
            proc = invoke(
                bench.HERE / "run.py", "--workload", workload, "--seed", "0",
                "--seconds", "1", "--trace", str(trace), "--only", STUDY,
            )
            check_result(proc, expected, label)
            print(f"ok  {label}")

    bench.TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.TMP_ROOT))
    try:
        harness = bench.Harness(bench.NOCACHE, 0, tmp)
        try:
            harness.check_active({"layers": {"calls": {}}})
        except bench.BenchError:
            print("ok  zero-call guard fails loudly")
        else:
            check(False, "zero-call guard accepted a run with no layer calls")

        shutil.copy(bench.ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        shutil.copytree(bench.HERE, tmp / bench.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke(tmp / bench.HERE.name / "run.py", "--workload", bench.NOCACHE,
                      "--seed", "0", "--seconds", "1", "--trace", "0")
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "a directory holding only the benchmark did not refuse to run")
        print("ok  bare benchmark directory refuses to run")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            bench.TMP_ROOT.rmdir()
        except OSError:  # another invocation still uses it
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
