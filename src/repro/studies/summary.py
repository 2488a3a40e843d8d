"""Full-reproduction driver: regenerate every study artifact in one run.

``python -m repro.studies.summary [output_dir]`` runs every study in the
registry (:mod:`repro.studies.pipeline`), writes each result table as CSV
plus a markdown report, and prints a per-study pass/fail table — the
offline equivalent of the artifact's ``output/results/*.csv`` plus the
web dashboard snapshots.

Runtime options apply uniformly to **all** studies: ``--workers`` fans
sweeps over a process pool, ``--cache-dir`` persists array
characterizations, (array x traffic) evaluation blocks, and regenerated
LLC traces (``--trace-cache-dir`` relocates just the traces), ``--seed``
pins every stochastic component.  A warm second run against the same
cache directory performs zero characterizations and zero evaluation
blocks; ``--expect-warm`` turns that into an exit-code assertion for CI.

Four suite-scale features build on :mod:`repro.runtime.shard`:

* **Sharding** — ``--shard-index I --shard-count N`` runs a
  deterministic 1/N slice of the suite, so N hosts (or CI matrix jobs)
  split the work with no coordination.  Every run writes a
  ``manifest.json`` next to its outputs recording what ran, its status,
  telemetry, artifact paths, and cache schema tags.
* **Point sharding** — ``--point-shard-index I --point-shard-count N``
  splits every study's *sweep-point space* across hosts by content
  fingerprint, so one giant study no longer pins a whole shard.  Each
  host produces a partial table; the manifest records the planned /
  selected / completed point accounting the merge verifies.  Point
  shards should share one ``--cache-dir`` (or have their caches
  combined) so the merge can re-materialize full tables from cache.
* **Merging** — ``--merge DIR [DIR ...]`` combines shard output
  directories into the single summary table and artifact set, failing
  if any study — or any sweep point of a point-sharded study — was
  dropped or run twice.  Point-sharded studies are re-materialized
  whole from the shared caches (pass the same ``--cache-dir`` and
  ``--seed`` the shards used), yielding CSVs byte-identical to a
  single-host run.
* **Incremental runs** — a study whose manifest entry matches the
  current content fingerprint (parameters x schema tags x source
  digest x point shard) and whose artifacts still exist is skipped with
  a ``cached`` status instead of re-run; ``--force`` disables the skip.

Exit codes: ``0`` success, ``1`` study failures (or a violated
``--expect-warm``), ``2`` usage/config/merge errors, ``3`` for a
fully-incremental run (every study skipped as up to date) so CI logs
can tell a no-op invocation from one that recomputed artifacts, and
``130`` for an interrupted run (Ctrl-C or SIGTERM): the studies
completed before the interrupt are recorded in a partial manifest —
their artifacts and incremental state survive — and the rest resume on
the next invocation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.errors import ReproError
from repro.results.table import ResultTable
from repro.runtime.cache import atomic_write_bytes
from repro.runtime.chaos import parse_chaos_spec
from repro.runtime.interrupt import sigterm_as_keyboard_interrupt
from repro.runtime.options import RuntimeOptions, ensure_runtime
from repro.runtime.resilience import RetryPolicy
from repro.runtime.shard import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    ManifestEntry,
    RunManifest,
    ShardError,
    ShardPlan,
    collect_artifacts,
    merge_manifests,
    plan_shard,
    point_shard_section,
    schema_tags,
    study_fingerprint,
)
from repro.runtime.telemetry import SweepTelemetry
from repro.studies.pipeline import REGISTRY, StudyOutcome
from repro.viz.report import study_report

#: Back-compat alias: the registry keyed by study name.
STUDIES = REGISTRY

#: Exit codes (see module docstring).
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_ALL_INCREMENTAL = 3
EXIT_INTERRUPTED = 130  # the shell convention for SIGINT-style exits


@dataclass
class SummaryRun:
    """Every outcome of one full-reproduction (or shard) run."""

    outcomes: list[StudyOutcome] = field(default_factory=list)
    plan: Optional[ShardPlan] = None
    manifest: Optional[RunManifest] = None
    #: Ctrl-C / SIGTERM arrived mid-run; ``manifest`` holds only the
    #: studies that finished first (their incremental state is kept).
    interrupted: bool = False

    @property
    def tables(self) -> dict[str, ResultTable]:
        """Result tables of the studies that ran fresh and succeeded."""
        return {o.name: o.table for o in self.outcomes if o.table is not None}

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def telemetry(self) -> SweepTelemetry:
        """Counters aggregated across every study of the run."""
        total = SweepTelemetry()
        for outcome in self.outcomes:
            total.absorb(outcome.telemetry)
        return total

    @property
    def warm(self) -> bool:
        """Did the run recompute nothing (everything served from cache)?"""
        return self.telemetry.fresh_work == 0

    @property
    def incremental_skips(self) -> int:
        """Studies skipped because their manifest entry was up to date."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def fully_incremental(self) -> bool:
        """Was *every* selected study served by an incremental skip?"""
        return bool(self.outcomes) and all(o.cached for o in self.outcomes)


def _select(only: Optional[Sequence[str]], registry) -> dict:
    if only is None:
        return dict(registry)
    unknown = [name for name in only if name not in registry]
    if unknown:
        raise ReproError(
            f"unknown studies: {', '.join(unknown)} (known: {', '.join(registry)})"
        )
    return {name: registry[name] for name in only}


def _artifact_paths(name: str) -> dict[str, str]:
    """Relative artifact locations for one study under an output dir."""
    return {"csv": f"results/{name}.csv", "report": f"reports/{name}.md"}


def _reusable_entry(
    previous: Optional[RunManifest], name: str, fingerprint: str, out: Path
) -> Optional[ManifestEntry]:
    """The prior manifest entry iff it makes re-running ``name`` redundant.

    Redundant means: the prior run succeeded, its content fingerprint
    (parameters x schema tags x source digest) matches the current one,
    every recorded artifact still exists on disk, and no point of the
    prior run was quarantined as poisoned (a poisoned point means the
    table is incomplete, so the study must be re-attempted).
    """
    if previous is None:
        return None
    entry = previous.lookup(name)
    if entry is None or not entry.ok or entry.fingerprint != fingerprint:
        return None
    if not entry.artifacts:
        return None
    counters = entry.telemetry or {}
    if counters.get("poisoned", 0) or counters.get("eval_poisoned", 0):
        return None
    if not all((out / relpath).exists() for relpath in entry.artifacts.values()):
        return None
    return entry


def _write_artifacts(outcome: StudyOutcome, spec, out: Path) -> dict[str, str]:
    """Write one fresh study's CSV + report; returns their relative paths.

    Both are written atomically: an interrupted ``--force`` re-run keeps
    the previous artifact whole instead of leaving a truncated file that
    the next incremental run would trust.
    """
    if outcome.table is None:
        return {}
    paths = _artifact_paths(outcome.name)
    atomic_write_bytes(out / paths["csv"], outcome.table.to_csv().encode("utf-8"))
    report = study_report(
        title=outcome.name.replace("_", " "),
        table=outcome.table,
        description=(
            f"{spec.description} Regenerated by repro.studies.summary "
            f"({outcome.rows} rows)."
        ),
        figure=spec.figure,
        **spec.report,
    )
    atomic_write_bytes(out / paths["report"], report.encode("utf-8"))
    return paths


def run_all(
    output_dir: Union[str, Path] = "output",
    runtime: Optional[RuntimeOptions] = None,
    only: Optional[Sequence[str]] = None,
    shard_index: int = 0,
    shard_count: int = 1,
    incremental: bool = True,
) -> SummaryRun:
    """Run this shard's slice of the selected studies and record a manifest.

    ``runtime`` is forwarded to every study (see
    :class:`~repro.runtime.options.RuntimeOptions`); ``only`` restricts
    the suite to a subset of registry names; ``shard_index`` /
    ``shard_count`` select a deterministic slice of that suite
    (:func:`~repro.runtime.shard.plan_shard`).  With
    ``runtime.on_error="skip"`` a failing study is recorded in its
    outcome and the run continues.

    With ``incremental=True`` (the default), a study whose entry in the
    output directory's existing ``manifest.json`` matches the current
    content fingerprint — and whose artifacts are still on disk — is
    skipped with a ``cached`` outcome instead of re-run.  The manifest
    (:class:`~repro.runtime.shard.RunManifest`) is rewritten next to
    the outputs after every run.

    An active point shard (``runtime.point_shard_count > 1``) restricts
    every study to its deterministic slice of the sweep-point space;
    each manifest entry then carries a point-shard section (planned /
    selected / completed point fingerprints) that :func:`merge_shards`
    verifies and re-materializes from.
    """
    runtime = ensure_runtime(runtime)
    registry = _select(only, STUDIES)
    plan = plan_shard(list(registry), shard_index, shard_count)
    out = Path(output_dir)
    (out / "results").mkdir(parents=True, exist_ok=True)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    # The previous manifest is read even under incremental=False: its
    # entries for studies *outside* this run's selection are retained in
    # the rewritten manifest so their incremental state is not clobbered
    # by a subset run.
    previous = RunManifest.try_load(out)
    reusable = previous if incremental else None
    run = SummaryRun(plan=plan)
    entries: list[ManifestEntry] = []
    try:
        _run_selected(run, entries, plan, registry, runtime, reusable, out)
    except KeyboardInterrupt:
        # Clean drain: keep everything that finished.  The partial
        # manifest written below records those studies (plus retained
        # prior entries), so artifacts and incremental state survive and
        # the next invocation resumes where this one stopped.
        run.interrupted = True
    # Prior entries are retained for every study this run did NOT
    # (re)record — including selected studies an interrupt skipped.
    recorded = {entry.name for entry in entries}
    retained = tuple(
        entry
        for entry in (*previous.entries, *previous.retained)
        if entry.name not in recorded
    ) if previous is not None else ()
    run.manifest = RunManifest(
        shard_index=shard_index,
        shard_count=shard_count,
        suite=plan.suite,
        entries=tuple(entries),
        tags=schema_tags(),
        retained=retained,
        point_shard_index=runtime.point_shard_index,
        point_shard_count=runtime.point_shard_count,
    )
    run.manifest.write(out)
    return run


def _run_selected(
    run: SummaryRun,
    entries: list,
    plan: ShardPlan,
    registry,
    runtime: RuntimeOptions,
    reusable: Optional[RunManifest],
    out: Path,
) -> None:
    """Run (or incrementally skip) each selected study, appending results.

    Mutates ``run.outcomes`` and ``entries`` in step so an interrupt
    leaves them consistent: every appended entry describes a study whose
    artifacts are fully on disk.
    """
    point_shard = runtime.point_shard
    for name in plan.selected:
        spec = registry[name]
        fingerprint = study_fingerprint(
            spec, seed=runtime.seed, point_shard=point_shard
        )
        prior = _reusable_entry(reusable, name, fingerprint, out)
        if prior is not None:
            outcome = StudyOutcome(
                name=name,
                table=None,
                telemetry=SweepTelemetry(),
                elapsed_s=0.0,
                cached=True,
                cached_rows=prior.rows,
            )
            entry = replace(
                prior, status=STATUS_CACHED, elapsed_s=0.0, telemetry={}
            )
            status = "cached (incremental: manifest up to date)"
        else:
            outcome = spec.run(runtime)
            artifacts = _write_artifacts(outcome, spec, out)
            section = {}
            if point_shard is not None:
                telemetry = outcome.telemetry
                section = point_shard_section(
                    point_shard,
                    telemetry.planned_points,
                    telemetry.selected_points,
                    telemetry.completed_points,
                    poisoned=telemetry.poisoned_points,
                )
            entry = ManifestEntry(
                name=name,
                status=STATUS_OK if outcome.ok else STATUS_FAILED,
                fingerprint=fingerprint,
                rows=outcome.rows,
                elapsed_s=outcome.elapsed_s,
                error=outcome.error or "",
                artifacts=artifacts,
                telemetry=outcome.telemetry.counters(),
                point_shard=section,
            )
            if outcome.ok and outcome.poisoned:
                status = f"ok ({outcome.poisoned} poisoned)"
            else:
                status = "ok" if outcome.ok else f"FAIL ({outcome.error})"
        run.outcomes.append(outcome)
        entries.append(entry)
        print(f"{name:26s} {outcome.rows:5d} rows  "
              f"{outcome.elapsed_s:6.2f}s  {status}")


def _verify_point_shard_fingerprints(
    name: str,
    spec,
    manifests: Sequence[RunManifest],
    runtime: RuntimeOptions,
) -> None:
    """Check the shards ran the same study the merge will re-materialize.

    Every shard entry's fingerprint must equal the current
    :func:`~repro.runtime.shard.study_fingerprint` for its point-shard
    slice — same parameters, seed, schema tags, and source revision — or
    the re-materialized table would not reproduce the rows the shards
    computed (and cached).
    """
    for manifest in manifests:
        entry = manifest.entry_for(name)
        if entry is None:
            continue
        expected = study_fingerprint(
            spec, seed=runtime.seed, point_shard=manifest.point_shard
        )
        if entry.fingerprint and entry.fingerprint != expected:
            raise ShardError(
                f"study {name!r}: shard {manifest.shard_index}"
                f"/{manifest.point_shard_index} was run against different "
                "parameters, seed, or source revision than this merge "
                "(pass the shards' --seed and run the merge from the same "
                "checkout)"
            )


def _rematerialize_study(
    name: str, spec, runtime: RuntimeOptions, out: Path
) -> ManifestEntry:
    """Re-run one point-sharded study whole and write its artifacts.

    With the shards' caches shared (or combined) under
    ``runtime.cache_dir`` every characterization and evaluation block is
    already stored, so this reassembles the full
    :class:`~repro.results.ResultTable` from cached row blocks — zero
    fresh model work — and produces CSVs byte-identical to a single-host
    run.
    """
    whole = replace(runtime, point_shard_index=0, point_shard_count=1)
    outcome = spec.run(whole)
    artifacts = _write_artifacts(outcome, spec, out)
    return ManifestEntry(
        name=name,
        status=STATUS_OK if outcome.ok else STATUS_FAILED,
        fingerprint=study_fingerprint(spec, seed=whole.seed),
        rows=outcome.rows,
        elapsed_s=outcome.elapsed_s,
        error=outcome.error or "",
        artifacts=artifacts,
        telemetry=outcome.telemetry.counters(),
    )


def merge_shards(
    shard_dirs: Sequence[Union[str, Path]],
    output_dir: Union[str, Path],
    runtime: Optional[RuntimeOptions] = None,
) -> RunManifest:
    """Combine shard output directories into one summary directory.

    Loads every shard's ``manifest.json``, verifies the shards form one
    complete, non-overlapping partition of the suite
    (:func:`~repro.runtime.shard.merge_manifests` — under point sharding
    this includes every sweep point landing on exactly one shard),
    copies each shard's artifacts (CSVs + reports) under ``output_dir``,
    and writes the merged manifest there.

    Point-sharded studies have only *partial* per-shard CSVs, so instead
    of copying they are re-materialized whole via the registry under
    ``runtime`` — pass the same ``cache_dir`` (and ``seed``) the shards
    used and the full table is served entirely from the shared
    evaluation cache, byte-identical to a single-host run.

    Returns the merged manifest; raises
    :class:`~repro.runtime.shard.ShardError` on any dropped, duplicated,
    or inconsistent study or sweep point.
    """
    runtime = ensure_runtime(runtime)
    manifests = [RunManifest.load(d) for d in shard_dirs]
    merged = merge_manifests(manifests)
    point_sharded: set[str] = set()
    for manifest in manifests:
        if manifest.point_shard_count > 1:
            point_sharded.update(entry.name for entry in manifest.entries)
    out = Path(output_dir)
    (out / "results").mkdir(parents=True, exist_ok=True)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    for manifest, shard_dir in zip(manifests, shard_dirs):
        collect_artifacts(manifest, shard_dir, out, skip=point_sharded)
    if point_sharded:
        rebuilt: dict[str, ManifestEntry] = {}
        for name in merged.suite:
            entry = merged.entry_for(name)
            if name not in point_sharded or not entry.ok:
                continue
            spec = STUDIES.get(name)
            if spec is None:
                raise ShardError(
                    f"study {name!r} is not in the registry; cannot "
                    "re-materialize its point-sharded artifacts"
                )
            _verify_point_shard_fingerprints(name, spec, manifests, runtime)
            rebuilt[name] = _rematerialize_study(name, spec, runtime, out)
        merged = replace(
            merged,
            entries=tuple(
                rebuilt.get(entry.name, entry) for entry in merged.entries
            ),
        )
    merged.write(out)
    return merged


def _table_status(entry: ManifestEntry) -> str:
    return "FAIL" if entry.status == STATUS_FAILED else entry.status


def _status_table(entries: Sequence[ManifestEntry]) -> str:
    """The per-study pass/fail table, rendered from manifest entries."""
    lines = [
        "| study | status | rows | time_s | chars fresh/cached | evals fresh/cached |",
        "|---|---|---|---|---|---|",
    ]
    for entry in entries:
        t = SweepTelemetry.from_counters(entry.telemetry)
        lines.append(
            f"| {entry.name} | {_table_status(entry)} | {entry.rows} "
            f"| {entry.elapsed_s:.2f} | {t.completed}/{t.cached} "
            f"| {t.evaluated}/{t.eval_cached} |"
        )
    return "\n".join(lines)


def _report_manifest(manifest: RunManifest, output_dir: str) -> int:
    """Print the merged/shard manifest summary; return the exit code."""
    entries = manifest.entries
    total_rows = sum(e.rows for e in entries)
    telemetry = SweepTelemetry()
    for entry in entries:
        telemetry.absorb(SweepTelemetry.from_counters(entry.telemetry))
    print(f"\n{_status_table(entries)}")
    shards = (len(manifest.merged_from) or 1) * (
        len(manifest.point_merged_from) or 1
    )
    print(f"\n{len(entries)} studies from {shards} shard(s), "
          f"{total_rows} result rows. CSVs in {output_dir}/results, "
          f"reports in {output_dir}/reports.")
    print(f"runtime totals: {telemetry.summary()}")
    if not manifest.ok:
        failed = ", ".join(e.name for e in entries if not e.ok)
        print(f"FAILED studies: {failed}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def _retry_policy(args) -> Optional[RetryPolicy]:
    """The retry policy the CLI flags describe, or ``None`` for defaults."""
    if (
        args.retries is None
        and args.retry_backoff is None
        and args.point_deadline is None
    ):
        return None
    defaults = RetryPolicy()
    return RetryPolicy(
        max_attempts=(
            defaults.max_attempts if args.retries is None else args.retries
        ),
        backoff_s=(
            defaults.backoff_s if args.retry_backoff is None
            else args.retry_backoff
        ),
        deadline_s=args.point_deadline,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.studies.summary",
        description="Regenerate every study artifact (CSVs + reports).",
        epilog=(
            "exit codes: 0 success, 1 study failure or violated "
            "--expect-warm, 2 usage/merge error, 3 fully-incremental run "
            "(every study skipped as up to date)"
        ),
    )
    parser.add_argument("output_dir", nargs="?", default="output")
    parser.add_argument(
        "--list", action="store_true",
        help="list registered studies and exit",
    )
    parser.add_argument(
        "--only", default=None, metavar="NAME[,NAME...]",
        help="run only the named studies",
    )
    parser.add_argument(
        "--shard-index", type=int, default=0, metavar="I",
        help="run the I-th slice of the deterministic shard plan",
    )
    parser.add_argument(
        "--shard-count", type=int, default=1, metavar="N",
        help="split the suite into N deterministic slices",
    )
    parser.add_argument(
        "--point-shard-index", type=int, default=0, metavar="I",
        help="run the I-th slice of every study's sweep-point space",
    )
    parser.add_argument(
        "--point-shard-count", type=int, default=1, metavar="N",
        help="split every study's sweep-point space into N deterministic "
             "slices (point shards should share one --cache-dir so the "
             "merge can re-materialize full tables from cache)",
    )
    parser.add_argument(
        "--merge", nargs="+", default=None, metavar="DIR",
        help="merge shard output directories into OUTPUT_DIR instead of "
             "running studies (verifies no study — or sweep point — was "
             "dropped or duplicated; point-sharded studies are "
             "re-materialized under --cache-dir/--seed)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="re-run every study even when its manifest entry is up to date",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="parallel sweep worker processes",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persistent cache root (characterizations, evaluations, traces)",
    )
    parser.add_argument(
        "--trace-cache-dir", default=None, metavar="PATH",
        help="override the LLC-trace cache location (default: CACHE_DIR/traces)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="override every study's stochastic seed",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "skip"), default="skip",
        help="abort on the first failing study, or record it and continue",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="max attempts per sweep point on transient failures "
             "(worker crashes, deadline timeouts, injected chaos); "
             "points that exhaust the budget are quarantined as poisoned",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=None, metavar="S",
        help="base backoff between point retry attempts, in seconds",
    )
    parser.add_argument(
        "--point-deadline", type=float, default=None, metavar="S",
        help="per-point wall-clock deadline: overdue workers are killed "
             "and the point is charged a transient attempt "
             "(default: no deadline)",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic fault injection for resilience testing — "
             "comma-separated key=value pairs (seed, worker_error, "
             "worker_kill, stall, stall_s, poison, cache_corrupt, "
             "corrupt_mode); 'off' disables",
    )
    parser.add_argument(
        "--expect-warm", action="store_true",
        help="exit non-zero if anything was recomputed (CI cache check)",
    )
    args = parser.parse_args(argv)

    if args.list:
        from repro.studies.pipeline import describe_registry

        print(describe_registry())
        return EXIT_OK

    try:
        retry = _retry_policy(args)
        chaos = parse_chaos_spec(args.chaos) if args.chaos is not None else None
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.merge is not None:
        incompatible = [
            flag for flag, given in (
                ("--only", args.only is not None),
                ("--shard-index", args.shard_index != 0),
                ("--shard-count", args.shard_count != 1),
                ("--point-shard-index", args.point_shard_index != 0),
                ("--point-shard-count", args.point_shard_count != 1),
                ("--force", args.force),
                ("--expect-warm", args.expect_warm),
                ("--chaos", chaos is not None),
            ) if given
        ]
        if incompatible:
            print(
                f"error: {', '.join(incompatible)} cannot be combined with "
                "--merge (merging only combines existing shard outputs; "
                "--workers/--cache-dir/--seed configure how point-sharded "
                "studies are re-materialized)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        print(f"Merging {len(args.merge)} shard(s) into {args.output_dir}/ ...")
        try:
            merged = merge_shards(
                args.merge,
                args.output_dir,
                runtime=RuntimeOptions(
                    workers=args.workers,
                    cache_dir=args.cache_dir,
                    trace_cache_dir=args.trace_cache_dir,
                    seed=args.seed,
                    on_error=args.on_error,
                    retry=retry,
                ),
            )
        except (ReproError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return _report_manifest(merged, args.output_dir)

    only = args.only.split(",") if args.only else None
    try:
        runtime = RuntimeOptions(
            workers=args.workers,
            cache_dir=args.cache_dir,
            trace_cache_dir=args.trace_cache_dir,
            on_error=args.on_error,
            seed=args.seed,
            point_shard_index=args.point_shard_index,
            point_shard_count=args.point_shard_count,
            retry=retry,
            chaos=chaos,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    shard_note = (
        f" (shard {args.shard_index}/{args.shard_count})"
        if args.shard_count > 1 else ""
    )
    if args.point_shard_count > 1:
        shard_note += (
            f" (point shard {args.point_shard_index}/{args.point_shard_count})"
        )
    print(f"Regenerating studies into {args.output_dir}/{shard_note} ...")
    try:
        # SIGTERM (CI runners, systemd, Kubernetes) takes the same clean
        # drain path as Ctrl-C: finish nothing new, write the partial
        # manifest, exit 130.
        with sigterm_as_keyboard_interrupt():
            run = run_all(
                args.output_dir,
                runtime=runtime,
                only=only,
                shard_index=args.shard_index,
                shard_count=args.shard_count,
                incremental=not args.force,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        # run_all drains interrupts that land inside the study loop; this
        # catches the window outside it (setup, manifest write).
        print("\ninterrupted before any study completed", file=sys.stderr)
        return EXIT_INTERRUPTED

    if run.interrupted:
        done = len(run.outcomes)
        print(
            f"\ninterrupted: {done} studies completed before the interrupt; "
            f"partial manifest written to {args.output_dir}/manifest.json "
            "(re-run to resume)",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED

    total_rows = sum(o.rows for o in run.outcomes)
    telemetry = run.telemetry
    print(f"\n{_status_table(run.manifest.entries)}")
    fresh = len(run.outcomes) - run.incremental_skips
    print(f"\n{len(run.outcomes)} studies ({fresh} run, "
          f"{run.incremental_skips} incremental-cached), {total_rows} result "
          f"rows. CSVs in {args.output_dir}/results, reports in "
          f"{args.output_dir}/reports.")
    print(f"runtime totals: {telemetry.summary()}")
    if not run.ok:
        failed = ", ".join(o.name for o in run.outcomes if not o.ok)
        print(f"FAILED studies: {failed}", file=sys.stderr)
        return EXIT_FAILED
    if args.expect_warm and not run.warm:
        print(
            f"expected a warm run but recomputed "
            f"{telemetry.completed} characterizations, "
            f"{telemetry.evaluated} evaluation blocks, and "
            f"{telemetry.trace_simulated} LLC traces",
            file=sys.stderr,
        )
        return EXIT_FAILED
    if args.expect_warm:
        print("warm run confirmed: zero characterizations, zero evaluations, "
              "zero trace simulations.")
        return EXIT_OK
    if run.fully_incremental:
        print(f"all {len(run.outcomes)} studies up to date "
              "(incremental skip); nothing recomputed.")
        return EXIT_ALL_INCREMENTAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
