"""Full-reproduction library: regenerate every study artifact in one run.

:func:`run_all` runs every study in the registry
(:mod:`repro.studies.pipeline`), or a subset, writes each result table
as CSV plus a markdown report, and prints one line per study — the
offline equivalent of the artifact's ``output/results/*.csv`` plus the
web dashboard snapshots.  ``nvmexplorer summary`` (:mod:`repro.config.cli`)
is its command.

One :class:`~repro.runtime.options.RuntimeOptions` applies uniformly to
**all** studies, and every sweep runs serially in this process.  A
cache pack that fails verification on load is deleted and its results
are recomputed and re-packed, so a damaged cache heals on the next run.
A warm second run against the same cache directory performs zero
characterizations and zero evaluation blocks (:attr:`SummaryRun.warm`).

Every run writes a ``manifest.json`` next to its outputs
(:mod:`repro.runtime.shard`) recording what ran, its status, telemetry,
and artifact paths.  The next run into the same directory is
**incremental**: a study whose manifest entry matches the current
content fingerprint (parameters x source digest) and whose artifacts
still exist is skipped with a ``cached`` status instead of re-run.
Entries for studies outside an ``only`` subset are retained, so a
subset run never discards the rest of the directory's incremental
state.  An interrupted run (``KeyboardInterrupt``) records the studies
completed before it in a partial manifest — their artifacts and
incremental state survive — and the rest resume on the next run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.errors import ReproError
from repro.results.table import ResultTable
from repro.runtime.cache import atomic_write_bytes
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

    Both are rendered before either is written, so a report that cannot
    be rendered leaves no artifact behind.  Both are written atomically:
    an interrupted ``--force`` re-run keeps the previous artifact whole
    instead of leaving a truncated file that the next incremental run
    would trust.
    """
    if outcome.table is None:
        return {}
    paths = _artifact_paths(outcome.name)
    csv = outcome.table.to_csv().encode("utf-8")
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
    atomic_write_bytes(out / paths["csv"], csv)
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
    ``runtime.on_error="skip"`` a failing study (a report that cannot be
    rendered included) is recorded in its outcome, with no artifacts,
    and the run continues; otherwise its
    :class:`~repro.errors.ReproError` escapes with ``study`` set to the
    study's name.

    With ``incremental=True`` (the default), a study whose entry in the
    output directory's existing ``manifest.json`` matches the current
    content fingerprint — and whose artifacts are still on disk — is
    skipped with a ``cached`` outcome instead of re-run.  The manifest
    (:class:`~repro.runtime.shard.RunManifest`) is rewritten next to
    the outputs after every run, including an interrupted one.
    """
    runtime = ensure_runtime(runtime)
    registry = _select(only, REGISTRY)
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
            try:
                outcome = spec.run(runtime)
                artifacts = _write_artifacts(outcome, spec, out)
            except ReproError as exc:
                if runtime.on_error != "skip":
                    exc.study = name
                    raise
                # Under skip only rendering gets here: spec.run records
                # its own failures in the outcome.
                outcome = replace(outcome, table=None, error=str(exc))
                artifacts = {}
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


if __name__ == "__main__":
    # Forward for callers that still name this module; the command lives
    # in repro.config.cli, which this library does not import otherwise.
    import sys

    from repro.config.cli import main

    raise SystemExit(main(["summary", *sys.argv[1:]]))
