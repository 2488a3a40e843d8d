"""Command-line entry point: ``nvmexplorer``.

Seven forms, mirroring and extending the paper's ``python run.py
config/<name>.json`` workflow.  Every form exits 2 on a usage error;
the other exit codes are::

    nvmexplorer <config.json> [flags]       # one design sweep: 0 ok, 1 error
    nvmexplorer run-study <name> [flags]    # one registered study: 0 ok, 1 error
    nvmexplorer list-studies                # the study registry: 0
    nvmexplorer summary [OUT] [flags]       # the whole suite: 0 ok, 1 failed
                                            #   study or not warm, 2 config
                                            #   error, 3 all up to date,
                                            #   130 interrupted
    nvmexplorer serve [config.json] [flags] # DSE-as-a-service: 0 drained,
                                            #   1 drain timed out, 2 bad
                                            #   config, 130 interrupted
    nvmexplorer fsck [cache_dir] [flags]    # audit caches + manifests:
                                            #   0 clean, 1 damage found
    nvmexplorer lint [root]                 # check invariants: 0 clean,
                                            #   1 violations

A config file describes one sweep and runs through the DSE engine;
``run-study`` runs a registered study, and ``summary`` runs every study
(or ``--only`` some) into ``OUT/results/*.csv`` and
``OUT/reports/*.md``, skipping studies whose manifest entry is up to
date (``--force`` re-runs them).  ``summary`` records a failing study
and goes on (``--on-error raise`` stops at it; both exit 1 and name the
study on stderr); ``--expect-warm`` makes
any recomputation exit 1; Ctrl-C or SIGTERM writes a partial manifest
that the next run resumes from.  Every sweep runs serially in this
process.  ``--cache-dir`` and ``--seed`` work identically for the
sweep, ``run-study`` and ``summary``, and override a config's
``runtime`` section.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.config.loader import run_config
from repro.errors import ConfigError, ReproError
from repro.runtime.fsck import fsck_cache_dir, fsck_manifest
from repro.runtime.interrupt import sigterm_as_keyboard_interrupt
from repro.runtime.options import RuntimeOptions
from repro.runtime.shard import STATUS_FAILED
from repro.runtime.telemetry import SweepTelemetry
from repro.viz.dashboard import summary_dashboard

#: ``summary`` exit codes (see the module docstring).
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_ALL_INCREMENTAL = 3
EXIT_INTERRUPTED = 130  # the shell convention for SIGINT-style exits


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", metavar="PATH",
        help="persistent cache root: characterizations, evaluation blocks, "
             "LLC traces (overrides a config's runtime.cache_dir)",
    )
    parser.add_argument(
        "--seed", type=int, metavar="N",
        help="override every stochastic seed (overrides a config's runtime.seed; "
             "plain sweeps are deterministic, so this only affects studies "
             "with stochastic components)",
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--table", action="store_true", help="print the full result table (markdown)"
    )
    parser.add_argument(
        "--dashboard", action="store_true", help="print ASCII dashboard views"
    )
    parser.add_argument(
        "--csv", metavar="PATH", help="write results as CSV (overrides config)"
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print one line per completed/cached/failed sweep point",
    )


def _parse_param(text: str) -> tuple[str, Any]:
    if "=" not in text:
        raise ConfigError(f"--param expects KEY=VALUE, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _progress_callback(enabled: bool):
    if not enabled:
        return None
    return lambda event: print(event.describe(), file=sys.stderr)


def _emit(table, args) -> None:
    print(f"{len(table)} result rows across columns: {', '.join(table.columns)}")
    if args.csv:
        table.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.table:
        print(table.to_markdown())
    if args.dashboard:
        print(summary_dashboard(table))


def _sweep_command(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="nvmexplorer",
        description="Cross-stack eNVM design space exploration (paper reproduction).",
    )
    parser.add_argument("config", help="path to a JSON sweep configuration")
    _add_output_flags(parser)
    _add_runtime_flags(parser)
    args = parser.parse_args(argv)
    try:
        table = run_config(
            args.config,
            cache_dir=args.cache_dir,
            seed=args.seed,
            progress=_progress_callback(args.progress),
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(table, args)
    return 0


def _run_study_command(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="nvmexplorer run-study",
        description="Run one registered paper study by name.",
    )
    parser.add_argument("name", help="registry name, e.g. fig09_spec_llc")
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="override a study parameter (repeatable; value parsed as JSON, "
             "falling back to a plain string)",
    )
    _add_output_flags(parser)
    _add_runtime_flags(parser)
    args = parser.parse_args(argv)
    # Imported lazily so `nvmexplorer <config>` stays independent of the
    # studies stack.
    from repro.studies.pipeline import resolve_study_request, run_study

    try:
        request = resolve_study_request({
            "study": args.name,
            "params": dict(_parse_param(p) for p in args.param),
        })
        runtime = RuntimeOptions(
            cache_dir=args.cache_dir,
            progress=_progress_callback(args.progress),
            seed=args.seed,
        )
        table = run_study(request.name, runtime, **request.params)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(table, args)
    return 0


def _list_studies_command(argv: Sequence[str]) -> int:
    argparse.ArgumentParser(
        prog="nvmexplorer list-studies",
        description="List the registered paper studies.",
    ).parse_args(argv)
    from repro.studies.pipeline import describe_registry

    print(describe_registry())
    return 0


def _status_table(run) -> str:
    """The per-study pass/fail table, rendered from manifest entries."""
    lines = [
        "| study | status | rows | time_s | chars fresh/cached | evals fresh/cached |",
        "|---|---|---|---|---|---|",
    ]
    for entry in run.manifest.entries:
        t = SweepTelemetry.from_counters(entry.telemetry)
        status = "FAIL" if entry.status == STATUS_FAILED else entry.status
        lines.append(
            f"| {entry.name} | {status} | {entry.rows} "
            f"| {entry.elapsed_s:.2f} | {t.completed}/{t.cached} "
            f"| {t.evaluated}/{t.eval_cached} |"
        )
    return "\n".join(lines)


def _summary_command(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="nvmexplorer summary",
        description="Regenerate every study artifact (CSVs + reports).",
        epilog=(
            "exit codes: 0 success, 1 study failure or violated "
            "--expect-warm, 2 usage/config error, 3 fully-incremental run "
            "(every study skipped as up to date), 130 interrupted"
        ),
    )
    parser.add_argument("output_dir", nargs="?", default="output")
    parser.add_argument(
        "--only", default=None, metavar="NAME[,NAME...]",
        help="run only the named studies",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="re-run every study even when its manifest entry is up to date",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "skip"), default="skip",
        help="abort on the first failing study, or record it and continue",
    )
    parser.add_argument(
        "--expect-warm", action="store_true",
        help="exit non-zero if anything was recomputed (CI cache check)",
    )
    _add_runtime_flags(parser)
    args = parser.parse_args(argv)
    # Imported lazily so `nvmexplorer <config>` stays independent of the
    # studies stack.
    from repro.studies.summary import run_all

    out = args.output_dir
    runtime = RuntimeOptions(
        cache_dir=args.cache_dir, on_error=args.on_error, seed=args.seed
    )
    print(f"Regenerating studies into {out}/ ...")
    try:
        # SIGTERM (CI runners, systemd, Kubernetes) takes the same clean
        # drain path as Ctrl-C: finish nothing new, write the partial
        # manifest, exit 130.
        with sigterm_as_keyboard_interrupt():
            run = run_all(
                out,
                runtime=runtime,
                only=args.only.split(",") if args.only else None,
                incremental=not args.force,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.study is None:
            return EXIT_USAGE
        # A study's own failure, let through by --on-error raise.
        print(f"FAILED studies: {exc.study}", file=sys.stderr)
        return EXIT_FAILED
    except KeyboardInterrupt:
        # run_all drains interrupts that land inside the study loop; this
        # catches the window outside it (setup, manifest write).
        print("\ninterrupted before any study completed", file=sys.stderr)
        return EXIT_INTERRUPTED
    if run.interrupted:
        print(
            f"\ninterrupted: {len(run.outcomes)} studies completed before the "
            f"interrupt; partial manifest written to {out}/manifest.json "
            "(re-run to resume)",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED

    print(f"\n{_status_table(run)}")
    total_rows = sum(o.rows for o in run.outcomes)
    fresh = len(run.outcomes) - run.incremental_skips
    print(f"\n{len(run.outcomes)} studies ({fresh} run, "
          f"{run.incremental_skips} incremental-cached), {total_rows} result "
          f"rows. CSVs in {out}/results, reports in {out}/reports.")
    telemetry = run.telemetry
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


def _serve_command(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="nvmexplorer serve",
        description="Serve the study registry and sweep engine over HTTP/JSON "
                    "(submit, status, results, SSE progress), answering warm "
                    "requests straight from the persistent caches.",
    )
    parser.add_argument(
        "config", nargs="?", default=None,
        help="path to a JSON service configuration (optional; flags below "
             "override it, defaults apply without one)",
    )
    parser.add_argument("--host", metavar="ADDR", help="bind address")
    parser.add_argument(
        "--port", type=int, metavar="N", help="bind port (0 picks a free one)"
    )
    parser.add_argument(
        "--service-workers", type=int, metavar="N",
        help="job slots: studies running concurrently, each serially "
             "(overrides config service.workers)",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH",
        help="persistent cache root shared by every served request "
             "(overrides config runtime.cache_dir)",
    )
    parser.add_argument(
        "--warm", action="append", default=None, metavar="STUDY",
        help="study to keep pre-computed (repeatable; overrides config "
             "service.warm_studies)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, metavar="SECONDS",
        help="how long graceful shutdown waits for in-flight jobs",
    )
    args = parser.parse_args(argv)
    # Imported lazily: plain sweep usage should not require asyncio/service.
    import asyncio
    import dataclasses

    from repro.config.loader import load_service_config
    from repro.config.schema import ServiceConfig
    from repro.service.app import serve

    try:
        config = (
            load_service_config(args.config)
            if args.config is not None
            else ServiceConfig()
        )
        updates: dict[str, Any] = {}
        if args.host is not None:
            updates["host"] = args.host
        if args.port is not None:
            updates["port"] = args.port
        if args.service_workers is not None:
            updates["workers"] = args.service_workers
        if args.warm is not None:
            for name in args.warm:
                from repro.studies.pipeline import get_study

                get_study(name)
            updates["warm_studies"] = tuple(args.warm)
        if args.drain_timeout is not None:
            updates["drain_timeout_s"] = args.drain_timeout
        if args.cache_dir is not None:
            updates["runtime"] = dataclasses.replace(
                config.runtime, cache_dir=args.cache_dir
            )
        if updates:
            config = dataclasses.replace(config, **updates)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return asyncio.run(serve(config))
    except KeyboardInterrupt:
        # The loop's signal handler normally drains first; a second
        # interrupt (or platforms without handler support) lands here.
        print("interrupted", file=sys.stderr)
        return 130


def _fsck_command(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="nvmexplorer fsck",
        description=(
            "Audit cache directories and run manifests: verify pack "
            "checksums, delete corrupt and stale packs, sweep stale tmp "
            "files, and check that every manifest artifact exists."
        ),
    )
    parser.add_argument(
        "cache_dir", nargs="?", default=None,
        help="cache root (holding arrays/, evaluations/, traces/) or one "
             "store directory to audit",
    )
    parser.add_argument(
        "--manifest", metavar="DIR", action="append", default=[],
        help="run-output directory whose manifest and artifacts to audit "
             "(repeatable)",
    )
    args = parser.parse_args(argv)
    if args.cache_dir is None and not args.manifest:
        parser.error("nothing to audit: give a cache_dir and/or --manifest")
    reports = fsck_cache_dir(args.cache_dir) if args.cache_dir is not None else []
    reports += [fsck_manifest(output_dir) for output_dir in args.manifest]
    for report in reports:
        print(report.summary())
        for problem in report.problems:
            print(f"  ! {problem}")
    return 0 if all(report.clean for report in reports) else 1


def default_root() -> Path:
    """The installed ``repro`` package — what a bare ``lint`` checks."""
    return Path(__file__).resolve().parents[1]


def _lint_command(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="nvmexplorer lint",
        description="statically check the repo's runtime invariants",
    )
    parser.add_argument(
        "root", nargs="?", default=None,
        help="package directory to lint (default: the installed repro package)",
    )
    args = parser.parse_args(argv)
    root = Path(args.root).resolve() if args.root else default_root()
    if not root.is_dir():
        print(f"lint: root {root} is not a directory", file=sys.stderr)
        return 2
    from repro.analysis.engine import run_lint

    result = run_lint(root)
    for finding in result.findings:
        print(finding.format())
    counted = sorted({f.rule for f in result.findings})
    print(
        f"lint: {root}: {len(result.findings)} violation(s) "
        f"[{', '.join(counted) if counted else '-'}]"
    )
    return 0 if not result.findings else 1


_COMMANDS = {
    "run-study": _run_study_command,
    "list-studies": _list_studies_command,
    "summary": _summary_command,
    "serve": _serve_command,
    "fsck": _fsck_command,
    "lint": _lint_command,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _COMMANDS:
        return _COMMANDS[argv[0]](argv[1:])
    return _sweep_command(argv)


if __name__ == "__main__":
    raise SystemExit(main())
