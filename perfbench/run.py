"""End-to-end benchmark of the full study suite, with a per-layer breakdown.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite_nocache --seed 0 --seconds 35 --trace 0

Every timed run is one ``repro.studies.summary.run_all`` over the whole
study registry (serial, ``workers=1``) in a fresh child interpreter
(``perfbench/child.py``), because a CLI user pays the imports and every
in-process memo on each invocation.  One client drives a closed loop: it
starts a run, waits for it to exit, checks its outputs, then starts the
next, until ``--seconds`` have passed.  The workload seed reaches the
program only as ``RuntimeOptions.seed``.

Workloads, all with ``incremental=False`` (see ``perfbench/README.md``
for why each exists):

* ``suite_nocache`` — no cache dir;
* ``suite_cold`` — a fresh, empty cache dir for every run;
* ``suite_warm`` — a cache dir filled once, untimed, by the code under
  test.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the runs); with ``--trace 1`` untraced and traced runs
alternate and it reports the per-layer metrics of :mod:`layers`.
``--record-digests`` rewrites ``perfbench/digests.json``.  Exit code 0
means the result line was printed; anything else means the harness or
the checkout is broken, and no result is printed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
#: Scratch root for every run's output and cache dirs (removed on exit).
TMP_ROOT = ROOT / ".perfbench_tmp"

NOCACHE, COLD, WARM = "suite_nocache", "suite_cold", "suite_warm"
WORKLOADS = (NOCACHE, COLD, WARM)
#: Workloads whose runs do all the model work.
MODEL = (NOCACHE, COLD)

#: The study registry this benchmark measures, in registry order.
STUDIES = (
    "fig03_array_targets", "fig05_dnn_arrays", "fig06_dnn_continuous",
    "fig06_dnn_intermittent", "fig08_graph", "fig09_spec_llc",
    "fig10_llc_arrays", "fig11_bg_fefet", "fig12_area_efficiency",
    "fig13_mlc", "fig14_writebuffer", "ext_retention", "ext_hierarchy",
    "ext_synthetic_llc",
)

DEFAULT_SEED = 0
#: Seeds whose rounded CSV digests ``--record-digests`` commits.
DIGEST_SEEDS = range(10)
#: Significant digits numeric CSV fields are rounded to before hashing
#: against committed digests, so last-bit differences between CPUs'
#: vectorized math paths do not read as drift.
DIGEST_SIG_DIGITS = 9
CHILD_TIMEOUT_S = 120.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("suite_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cache_mb", "MiB"),
)

#: Span name -> workloads on which the traced run must record calls.
ACTIVE = {
    "traffic.graph": WORKLOADS,
    "cachesim.llc": MODEL,
    "cachesim.batch": MODEL,
    "nvsim.characterize": MODEL,
    "nvsim.warm_lanes": MODEL,
    "nvsim.all_organizations": MODEL,
    "core.evaluate_many": MODEL,
    "runtime.executor.characterize_points": WORKLOADS,
    "runtime.executor.evaluate_blocks": WORKLOADS,
    "runtime.cache.load": (WARM,),
    "runtime.cache.store": (COLD,),
    "dnn.trained_proxy": WORKLOADS,
    "faults.inject_trials": WORKLOADS,
    "results.to_csv": WORKLOADS,
    "results.to_markdown": WORKLOADS,
    "viz.study_report": WORKLOADS,
    "runtime.shard.study_fingerprint": WORKLOADS,
    "runtime.shard.manifest_write": WORKLOADS,
}
#: Spans every study passes through, checked even on a ``--only`` subset.
PER_STUDY = (
    "results.to_csv", "results.to_markdown", "viz.study_report",
    "runtime.shard.study_fingerprint", "runtime.shard.manifest_write",
)


class BenchError(RuntimeError):
    """The harness or the checkout is broken; no result is printed."""


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    return [
        "setup.numpy_s", "setup.networkx_s", "setup.repro_s",
        "traffic.graph_s", "traffic.graph_n",
        "cachesim.llc_s", "cachesim.batch_s", "cachesim.batch_n",
        "cachesim.trace_simulated",
        "nvsim.characterize_s", "nvsim.characterize_n", "nvsim.warm_lanes_s",
        "nvsim.all_organizations_s",
        "core.evaluate_many_s", "core.evaluate_many_n",
        "runtime.executor.characterize_points.self_s",
        "runtime.executor.evaluate_blocks.self_s",
        "runtime.chars_fresh", "runtime.chars_cached",
        "runtime.evals_fresh", "runtime.evals_cached",
        "runtime.cache.load_s", "runtime.cache.load_n",
        "runtime.cache.load_hit_ratio",
        "runtime.cache.store_s", "runtime.cache.store_n", "runtime.cache.files",
        "dnn.trained_proxy_s", "faults.inject_trials_s",
        "results.to_csv_s", "results.to_markdown_s", "viz.study_report.self_s",
        "results.rows",
        "runtime.shard.study_fingerprint_s", "runtime.shard.manifest_write_s",
        *(f"studies.{name}_s" for name in STUDIES),
        "studies.self_s",
        "trace.overhead_frac", "trace.unattributed_s",
    ]


# --- files ---------------------------------------------------------------


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rounded(field: str) -> str:
    try:
        return format(float(field), f".{DIGEST_SIG_DIGITS}g")
    except ValueError:
        return field


def rounded_digest(path: Path) -> str:
    """sha256 of a CSV with every numeric field rounded (committed digests)."""
    digest = hashlib.sha256()
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            digest.update(("\x1f".join(map(_rounded, row)) + "\n").encode())
    return digest.hexdigest()


def tree_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file()) if root.exists() else []


def tree_bytes(root: Optional[Path]) -> int:
    return sum(p.stat().st_size for p in tree_files(root)) if root else 0


def snapshot(root: Path) -> list[tuple[str, int, str]]:
    """Sorted (relative path, size, sha256) of every file under ``root``."""
    return [
        (str(p.relative_to(root)), p.stat().st_size, sha256_file(p))
        for p in tree_files(root)
    ]


# --- runs ----------------------------------------------------------------


class Harness:
    """One benchmark invocation: fixtures, the closed loop, and the checks."""

    def __init__(self, workload: str, seed: int, tmp: Path,
                 only: Optional[Sequence[str]] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.only = list(only) if only else None
        self.studies = self.only or list(STUDIES)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._runs = 0
        #: Byte sha256 of each study CSV from the reference run.
        self.reference: dict[str, str] = {}
        #: Studies whose fixtures already failed a check: every later
        #: operation on them fails too.
        self.bad: set[str] = set()

    # -- child processes --

    def spawn(self, out: Path, cache: Optional[Path] = None,
              trace: bool = False) -> dict:
        """Run one suite in a fresh interpreter; returns its result record."""
        self._runs += 1
        result = self.tmp / f"result-{self._runs}.json"
        command = [
            sys.executable, str(CHILD), "--out", str(out),
            "--result", str(result), "--seed", str(self.seed),
        ]
        if cache is not None:
            command += ["--cache", str(cache)]
        if self.only:
            command += ["--only", ",".join(self.only)]
        if trace:
            command.append("--trace")
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(self.tmp))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                command, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"suite run exceeded {CHILD_TIMEOUT_S:.0f} s") from None
        wall_s = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(
                f"suite run exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        record = json.loads(result.read_text())
        result.unlink()
        record["wall_s"] = wall_s
        return record

    def study_failures(self, record: dict, out: Path, mode: str) -> set[str]:
        """Studies of one run that count as failed operations."""
        outcomes = {s["name"]: s for s in record["studies"]}
        failed = set(self.bad)
        for name in self.studies:
            outcome = outcomes.get(name)
            if outcome is None or not outcome["ok"] or outcome["poisoned"]:
                failed.add(name)
            elif mode == WARM and outcome["fresh_work"]:
                failed.add(name)
            elif self.reference:
                csv_path = out / "results" / f"{name}.csv"
                if not csv_path.is_file() or sha256_file(csv_path) != self.reference.get(name):
                    failed.add(name)
        return failed

    def account(self, record: dict, out: Path) -> None:
        failed = self.study_failures(record, out, self.workload)
        self.attempted += len(self.studies)
        self.failed += len(failed)
        for name in sorted(failed):
            print(f"FAILED {self.workload} {name}", file=sys.stderr)

    # -- fixtures --

    def build_reference(self) -> None:
        """An untimed no-cache run: the byte reference every timed run must
        match, checked against the committed digests for known seeds.

        It also compiles the checkout's bytecode before any timed run.
        """
        out = self.tmp / "reference"
        record = self.spawn(out)
        self.bad |= self.study_failures(record, out, NOCACHE)
        committed = load_digests().get(str(self.seed), {})
        for name in self.studies:
            csv_path = out / "results" / f"{name}.csv"
            if not csv_path.is_file():
                self.bad.add(name)
                continue
            self.reference[name] = sha256_file(csv_path)
            if name in committed and rounded_digest(csv_path) != committed[name]:
                print(f"digest mismatch: {name} (seed {self.seed})", file=sys.stderr)
                self.bad.add(name)
        shutil.rmtree(out)

    def build_warm_template(self) -> Path:
        """A cache dir filled once, untimed, by a cold run of the code under test."""
        cache = self.tmp / "warm-template"
        out = self.tmp / "warm-fill"
        record = self.spawn(out, cache=cache)
        self.bad |= self.study_failures(record, out, COLD)
        shutil.rmtree(out)
        return cache

    # -- the closed loop --

    def run(self, seconds: float, trace: bool) -> dict:
        self.build_reference()
        template = self.build_warm_template() if self.workload == WARM else None
        before = snapshot(template) if template is not None else None

        untraced: list[dict] = []
        traced: list[dict] = []
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < seconds:
            with_trace = trace and len(traced) < len(untraced)
            record = self.timed_run(template, with_trace)
            (traced if with_trace else untraced).append(record)
        if trace and not traced:
            traced.append(self.timed_run(template, True))

        if template is not None and snapshot(template) != before:
            print("the warm cache template changed during the timed runs",
                  file=sys.stderr)
            self.correct = False
        print(
            f"{self.workload} seed={self.seed}: {len(untraced)} untraced and "
            f"{len(traced)} traced runs, {self.failed}/{self.attempted} "
            "operations failed"
        )
        for name, unit in END_TO_END:
            values = sorted(r[name] for r in untraced)
            print(f"  {name:12s} median {statistics.median(values):.4f} {unit}  "
                  f"n={len(values)}  [{' '.join(f'{v:.3f}' for v in values)}]")
        if trace:
            return self.layer_metrics(traced, untraced)
        return {
            name: {"value": statistics.median(r[name] for r in untraced), "unit": unit}
            for name, unit in END_TO_END
        }

    def timed_run(self, template: Optional[Path], trace: bool) -> dict:
        """One suite run under this workload in fresh dirs, checked."""
        run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.tmp))
        out = run_dir / "out"
        cache: Optional[Path] = None
        if self.workload == COLD:
            cache = run_dir / "cache"
        elif self.workload == WARM:
            cache = template
        record = self.spawn(out, cache=cache, trace=trace)
        self.account(record, out)
        record["cache_mb"] = (tree_bytes(out) + tree_bytes(cache)) / 2**20
        record["cache_files"] = len(tree_files(cache)) if cache else 0
        if trace:
            self.check_active(record)
        shutil.rmtree(run_dir)
        return record

    # -- per-layer metrics --

    def check_active(self, record: dict) -> None:
        """Fail loudly when a layer that does work here recorded no call."""
        calls = record["layers"]["calls"]
        expected = [
            span for span, workloads in ACTIVE.items()
            if self.workload in workloads and (self.only is None or span in PER_STUDY)
        ]
        expected += [f"studies.{name}" for name in self.studies]
        missing = [span for span in expected if not calls.get(span)]
        if missing:
            raise BenchError(
                f"traced {self.workload} run recorded no calls for: "
                f"{', '.join(missing)} (a layer wrapper missed its binding)"
            )

    def layer_metrics(self, traced: list[dict], untraced: list[dict]) -> dict:
        per_run = [layer_values(r) for r in traced]
        overhead = (
            statistics.median(r["suite_s"] for r in traced)
            / statistics.median(r["suite_s"] for r in untraced) - 1.0
        )
        out = {}
        for name in per_layer_names():
            if name == "trace.overhead_frac":
                value = overhead
            else:
                value = statistics.median(values.get(name, 0.0) for values in per_run)
            out[name] = {"value": value, "unit": metric_unit(name)}
        return out


def layer_values(record: dict) -> dict[str, float]:
    """Per-layer values of one traced run (``trace.overhead_frac`` aside)."""
    layers = record["layers"]
    inclusive, own, calls = layers["inclusive"], layers["self"], layers["calls"]
    telemetry = record["telemetry"]
    values = dict(record["setup"])
    for span in ACTIVE:
        values[f"{span}_s"] = inclusive.get(span, 0.0)
        values[f"{span}_n"] = calls.get(span, 0)
        values[f"{span}.self_s"] = own.get(span, 0.0)
    loads = calls.get("runtime.cache.load", 0)
    studies = [span for span in inclusive if span.startswith("studies.")]
    values.update({
        "cachesim.trace_simulated": telemetry["trace_simulated"],
        "runtime.chars_fresh": telemetry["completed"],
        "runtime.chars_cached": telemetry["cached"],
        "runtime.evals_fresh": telemetry["evaluated"],
        "runtime.evals_cached": telemetry["eval_cached"],
        "runtime.cache.load_hit_ratio": (
            layers["hits"].get("runtime.cache.load", 0) / loads if loads else 0.0
        ),
        "runtime.cache.files": record["cache_files"],
        "results.rows": sum(s["rows"] for s in record["studies"]),
        "studies.self_s": sum(own[span] for span in studies),
        "trace.unattributed_s": record["suite_s"] - layers["top_level_s"],
    })
    values.update({f"{span}_s": inclusive[span] for span in studies})
    return values


# --- digests -------------------------------------------------------------


def load_digests() -> dict[str, dict[str, str]]:
    """Committed rounded CSV digests, keyed by seed then study."""
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text())["seeds"]


def record_digests(tmp: Path) -> None:
    """Rewrite ``digests.json`` from a no-cache run per seed in DIGEST_SEEDS."""
    seeds = {}
    for seed in DIGEST_SEEDS:
        harness = Harness(NOCACHE, seed, tmp)
        out = tmp / f"digests-{seed}"
        harness.spawn(out)
        seeds[str(seed)] = {
            name: rounded_digest(out / "results" / f"{name}.csv") for name in STUDIES
        }
        shutil.rmtree(out)
    DIGESTS.write_text(json.dumps(
        {"sig_digits": DIGEST_SIG_DIGITS, "seeds": seeds}, indent=1, sort_keys=True
    ) + "\n")


# --- entry point ---------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="End-to-end study-suite benchmark with a per-layer breakdown.",
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=NOCACHE)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--only", default=None, metavar="NAME[,NAME...]",
        help="run a subset of the registry (harness self-test)",
    )
    parser.add_argument(
        "--record-digests", action="store_true",
        help=f"rewrite {DIGESTS.name} for seeds {DIGEST_SEEDS.start}.."
             f"{DIGEST_SEEDS.stop - 1} and exit",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "studies" / "summary.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    only = args.only.split(",") if args.only else None
    if only and not set(only) <= set(STUDIES):
        print(f"error: unknown studies in --only: {args.only}", file=sys.stderr)
        return 2

    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        if args.record_digests:
            record_digests(tmp)
            return 0
        harness = Harness(args.workload, args.seed, tmp, only=only)
        metrics = harness.run(args.seconds, trace=bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:  # another invocation still uses it
            pass
    print(json.dumps({
        "correct": harness.correct and harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
