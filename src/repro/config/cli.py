"""Command-line entry point: ``nvmexplorer``.

Six forms, mirroring and extending the paper's ``python run.py
config/<name>.json`` workflow::

    nvmexplorer <config.json> [flags]       # one design sweep
    nvmexplorer run-study <name> [flags]    # any registered study by name
    nvmexplorer list-studies                # what the registry offers
    nvmexplorer serve [config.json] [flags] # DSE-as-a-service front-end
    nvmexplorer fsck [cache_dir] [flags]    # audit caches + manifests
    nvmexplorer lint [root] [flags]         # statically check invariants

A config file describes one sweep and runs through the DSE engine;
``run-study`` runs a registered study, and ``python -m
repro.studies.summary`` runs the whole suite incrementally.  Every
sweep runs serially in this process.  Runtime flags (``--cache-dir``,
``--trace-cache-dir``, ``--seed``) override the config's ``runtime``
section and work identically for every study.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Sequence

from repro.config.loader import run_config
from repro.errors import ConfigError, ReproError
from repro.runtime.options import RuntimeOptions
from repro.viz.dashboard import summary_dashboard


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", metavar="PATH",
        help="persistent cache root: characterizations, evaluation blocks, "
             "LLC traces (overrides config runtime.cache_dir)",
    )
    parser.add_argument(
        "--trace-cache-dir", metavar="PATH",
        help="override the LLC-trace cache location (default: CACHE_DIR/traces; "
             "only used when traffic is regenerated by cache simulation)",
    )
    parser.add_argument(
        "--seed", type=int, metavar="N",
        help="override every stochastic seed (overrides config runtime.seed; "
             "plain sweeps are deterministic, so this only affects studies "
             "with stochastic components)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print one line per completed/cached/failed sweep point",
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvmexplorer",
        description="Cross-stack eNVM design space exploration (paper reproduction).",
    )
    parser.add_argument(
        "config",
        help="path to a JSON sweep configuration",
    )
    _add_output_flags(parser)
    _add_runtime_flags(parser)
    return parser


def build_run_study_parser() -> argparse.ArgumentParser:
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
    return parser


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


def _run_study_command(argv: Sequence[str]) -> int:
    args = build_run_study_parser().parse_args(argv)
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
            trace_cache_dir=args.trace_cache_dir,
            progress=_progress_callback(args.progress),
            seed=args.seed,
        )
        table = run_study(request.name, runtime, **request.params)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(table, args)
    return 0


def _list_studies_command() -> int:
    # Imported lazily so `nvmexplorer <config>` stays independent of the
    # studies stack.
    from repro.studies.pipeline import describe_registry

    print(describe_registry())
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
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
    return parser


def _serve_command(argv: Sequence[str]) -> int:
    args = build_serve_parser().parse_args(argv)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run-study":
        return _run_study_command(argv[1:])
    if argv and argv[0] == "list-studies":
        return _list_studies_command()
    if argv and argv[0] == "serve":
        return _serve_command(argv[1:])
    if argv and argv[0] == "fsck":
        # Imported lazily, like the other non-sweep commands.
        from repro.runtime.fsck import main as fsck_main

        return fsck_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])

    args = build_parser().parse_args(argv)
    try:
        table = run_config(
            args.config,
            cache_dir=args.cache_dir,
            trace_cache_dir=args.trace_cache_dir,
            seed=args.seed,
            progress=_progress_callback(args.progress),
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(table, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
