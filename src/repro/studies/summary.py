"""Full-reproduction driver: regenerate every study artifact in one run.

``python -m repro.studies.summary [output_dir]`` runs every study in the
registry (:mod:`repro.studies.pipeline`), writes each result table as CSV
plus a markdown report, and prints a per-study pass/fail table — the
offline equivalent of the artifact's ``output/results/*.csv`` plus the
web dashboard snapshots.

Runtime options apply uniformly to **all** studies, and every sweep runs
serially in this process: ``--cache-dir`` persists array
characterizations, (array x traffic) evaluation blocks, and regenerated
LLC traces (under ``<cache-dir>/traces``), ``--seed`` pins every
stochastic component, and ``--on-error skip`` records a
failing study and keeps going.  A cache pack that fails verification on
load is deleted and its results are recomputed and re-packed, so a
damaged cache heals on the next run.  A warm
second run against the same cache directory performs zero
characterizations and zero evaluation blocks; ``--expect-warm`` turns
that into an exit-code assertion for CI.

Every run writes a ``manifest.json`` next to its outputs
(:mod:`repro.runtime.shard`) recording what ran, its status, telemetry,
and artifact paths.  The next run into the same directory is
**incremental**: a study whose manifest entry matches the current
content fingerprint (parameters x source digest) and whose artifacts
still exist is skipped with a ``cached`` status
instead of re-run; ``--force`` disables the skip.  Entries for studies
outside an ``--only`` subset are retained, so a subset run never
discards the rest of the directory's incremental state.

Exit codes: ``0`` success, ``1`` study failures (or a violated
``--expect-warm``), ``2`` usage/config error, ``3`` for a
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
from repro.runtime.interrupt import sigterm_as_keyboard_interrupt
from repro.runtime.options import RuntimeOptions, ensure_runtime
from repro.runtime.shard import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    ManifestEntry,
    RunManifest,
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
    """Every outcome of one full-reproduction run."""

    outcomes: list[StudyOutcome] = field(default_factory=list)
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
    (parameters x source digest) matches the current one,
    and every recorded artifact still exists on disk.
    """
    if previous is None:
        return None
    entry = previous.lookup(name)
    if entry is None or not entry.ok or entry.fingerprint != fingerprint:
        return None
    if not entry.artifacts:
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
    incremental: bool = True,
) -> SummaryRun:
    """Run the selected studies serially and record a manifest.

    ``runtime`` is forwarded to every study (see
    :class:`~repro.runtime.options.RuntimeOptions`); ``only`` restricts
    the suite to a subset of registry names.  With
    ``runtime.on_error="skip"`` a failing study is recorded in its
    outcome and the run continues.

    With ``incremental=True`` (the default), a study whose entry in the
    output directory's existing ``manifest.json`` matches the current
    content fingerprint — and whose artifacts are still on disk — is
    skipped with a ``cached`` outcome instead of re-run.  The manifest
    (:class:`~repro.runtime.shard.RunManifest`) is rewritten next to
    the outputs after every run, including an interrupted one.
    """
    runtime = ensure_runtime(runtime)
    registry = _select(only, STUDIES)
    out = Path(output_dir)
    (out / "results").mkdir(parents=True, exist_ok=True)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    # The previous manifest is read even under incremental=False: its
    # entries for studies *outside* this run's selection are retained in
    # the rewritten manifest so their incremental state is not clobbered
    # by a subset run.
    previous = RunManifest.try_load(out)
    reusable = previous if incremental else None
    run = SummaryRun()
    entries: list[ManifestEntry] = []
    try:
        _run_selected(run, entries, registry, runtime, reusable, out)
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
    run.manifest = RunManifest(entries=tuple(entries), retained=retained)
    run.manifest.write(out)
    return run


def _run_selected(
    run: SummaryRun,
    entries: list,
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
    for name, spec in registry.items():
        fingerprint = study_fingerprint(spec, seed=runtime.seed)
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
            entry = ManifestEntry(
                name=name,
                status=STATUS_OK if outcome.ok else STATUS_FAILED,
                fingerprint=fingerprint,
                rows=outcome.rows,
                elapsed_s=outcome.elapsed_s,
                error=outcome.error or "",
                artifacts=artifacts,
                telemetry=outcome.telemetry.counters(),
            )
            status = "ok" if outcome.ok else f"FAIL ({outcome.error})"
        run.outcomes.append(outcome)
        entries.append(entry)
        print(f"{name:26s} {outcome.rows:5d} rows  "
              f"{outcome.elapsed_s:6.2f}s  {status}")


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


def report_run(run: SummaryRun, output_dir: Union[str, Path]) -> int:
    """Print the status table and run totals; ``EXIT_FAILED`` on failures."""
    print(f"\n{_status_table(run.manifest.entries)}")
    total_rows = sum(o.rows for o in run.outcomes)
    fresh = len(run.outcomes) - run.incremental_skips
    print(f"\n{len(run.outcomes)} studies ({fresh} run, "
          f"{run.incremental_skips} incremental-cached), {total_rows} result "
          f"rows. CSVs in {output_dir}/results, reports in "
          f"{output_dir}/reports.")
    print(f"runtime totals: {run.telemetry.summary()}")
    if not run.ok:
        failed = ", ".join(o.name for o in run.outcomes if not o.ok)
        print(f"FAILED studies: {failed}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.studies.summary",
        description="Regenerate every study artifact (CSVs + reports).",
        epilog=(
            "exit codes: 0 success, 1 study failure or violated "
            "--expect-warm, 2 usage/config error, 3 fully-incremental run "
            "(every study skipped as up to date), 130 interrupted"
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
        "--force", action="store_true",
        help="re-run every study even when its manifest entry is up to date",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persistent cache root (characterizations, evaluations, traces)",
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
        "--expect-warm", action="store_true",
        help="exit non-zero if anything was recomputed (CI cache check)",
    )
    args = parser.parse_args(argv)

    if args.list:
        from repro.studies.pipeline import describe_registry

        print(describe_registry())
        return EXIT_OK

    only = args.only.split(",") if args.only else None
    runtime = RuntimeOptions(
        cache_dir=args.cache_dir,
        on_error=args.on_error,
        seed=args.seed,
    )
    print(f"Regenerating studies into {args.output_dir}/ ...")
    try:
        # SIGTERM (CI runners, systemd, Kubernetes) takes the same clean
        # drain path as Ctrl-C: finish nothing new, write the partial
        # manifest, exit 130.
        with sigterm_as_keyboard_interrupt():
            run = run_all(
                args.output_dir,
                runtime=runtime,
                only=only,
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

    if report_run(run, args.output_dir) != EXIT_OK:
        return EXIT_FAILED
    telemetry = run.telemetry
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
