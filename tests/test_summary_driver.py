"""The full-reproduction driver (``run_all`` and ``nvmexplorer summary``):
registry coverage, artifacts, warm, incremental and interrupted runs."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config.cli import EXIT_ALL_INCREMENTAL
from repro.config.cli import main as cli_main
from repro.errors import CharacterizationError, ReproError
from repro.results.table import ResultTable
from repro.runtime.cache import PACK_SUFFIX, STORE_TYPES, read_pack_index
from repro.runtime.options import RuntimeOptions
from repro.runtime.fsck import fsck_cache_dir, fsck_manifest
from repro.runtime.shard import RunManifest
from repro.studies.pipeline import REGISTRY, StudySpec
from repro.studies.summary import run_all


def summary(argv):
    """``nvmexplorer summary`` with ``argv``; its exit code."""
    return cli_main(["summary", *argv])


def test_study_registry_covers_evaluation_figures():
    names = set(REGISTRY)
    for figure in ("fig03", "fig05", "fig06", "fig08", "fig09", "fig10",
                   "fig11", "fig12", "fig13", "fig14"):
        assert any(n.startswith(figure) for n in names), figure


def test_run_subset_writes_artifacts(tmp_path):
    run = run_all(tmp_path, only=["fig05_dnn_arrays", "ext_hierarchy"])
    assert run.ok
    assert set(run.tables) == {"fig05_dnn_arrays", "ext_hierarchy"}
    for name in run.tables:
        assert (tmp_path / "results" / f"{name}.csv").exists()
        report = (tmp_path / "reports" / f"{name}.md").read_text()
        assert report.startswith("# ")
        assert "Reproduces paper" in report
        assert "## Data" in report


def test_unknown_only_name_rejected(tmp_path):
    with pytest.raises(ReproError, match="unknown studies"):
        run_all(tmp_path, only=["fig99_nope"])


def test_main_returns_zero(tmp_path, capsys):
    assert summary([str(tmp_path), "--only", "ext_hierarchy"]) == 0
    out = capsys.readouterr().out
    assert "1 studies" in out
    assert "| ext_hierarchy | ok |" in out


def test_main_unknown_only_exits_nonzero(tmp_path, capsys):
    assert summary([str(tmp_path), "--only", "nope"]) == 2
    assert "unknown studies" in capsys.readouterr().err


def _boom(runtime=None):
    raise CharacterizationError("intentional failure")


def test_failing_study_nonzero_exit_and_table(tmp_path, monkeypatch, capsys):
    broken = dict(REGISTRY)
    broken["boom"] = StudySpec(
        name="boom", builder=_boom, figure="n/a", description="always fails",
    )
    monkeypatch.setattr("repro.studies.summary.REGISTRY", broken)
    rc = summary([str(tmp_path), "--only", "boom,ext_hierarchy", "--on-error", "skip"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "| boom | FAIL |" in captured.out
    assert "| ext_hierarchy | ok |" in captured.out
    assert "FAILED studies: boom" in captured.err


def test_failing_study_under_on_error_raise_exits_one(tmp_path, monkeypatch, capsys):
    # A study's model failure is not a usage error: exit 1, as under skip.
    broken = dict(REGISTRY)
    broken["boom"] = StudySpec(
        name="boom", builder=_boom, figure="n/a", description="always fails",
    )
    monkeypatch.setattr("repro.studies.summary.REGISTRY", broken)
    rc = summary([str(tmp_path), "--only", "boom", "--on-error", "raise"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: intentional failure" in err
    assert "FAILED studies: boom" in err


def _nan_table(runtime=None):
    return ResultTable([
        {"cell": "x", "reads_per_s": float("nan"), "total_power_mw": 1.0}
    ])


def test_report_rendering_error_fails_only_its_study_under_skip(
    tmp_path, monkeypatch, capsys
):
    # A study whose report cannot be rendered (a non-finite plotted value)
    # fails alone: no artifact of it is written, the next study still
    # runs and the manifest records both.
    broken = dict(REGISTRY)
    broken["nanstudy"] = StudySpec(
        name="nanstudy", builder=_nan_table, figure="n/a", description="nan",
    )
    monkeypatch.setattr("repro.studies.summary.REGISTRY", broken)
    rc = summary([str(tmp_path), "--only", "nanstudy,ext_hierarchy",
                  "--on-error", "skip"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "| nanstudy | FAIL |" in captured.out
    assert "| ext_hierarchy | ok |" in captured.out
    assert "FAILED studies: nanstudy" in captured.err
    assert not (tmp_path / "results" / "nanstudy.csv").exists()
    assert not (tmp_path / "reports" / "nanstudy.md").exists()
    assert (tmp_path / "results" / "ext_hierarchy.csv").exists()
    manifest = RunManifest.try_load(tmp_path)
    failed = manifest.lookup("nanstudy")
    assert failed.status == "failed" and failed.artifacts == {}
    assert "cannot plot non-finite value nan" in failed.error
    assert manifest.lookup("ext_hierarchy").ok


def test_report_rendering_error_raises_under_on_error_raise(
    tmp_path, monkeypatch
):
    broken = dict(REGISTRY)
    broken["nanstudy"] = StudySpec(
        name="nanstudy", builder=_nan_table, figure="n/a", description="nan",
    )
    monkeypatch.setattr("repro.studies.summary.REGISTRY", broken)
    with pytest.raises(ReproError, match="non-finite") as info:
        run_all(tmp_path, runtime=RuntimeOptions(on_error="raise"),
                only=["nanstudy"])
    assert info.value.study == "nanstudy"
    assert not (tmp_path / "results" / "nanstudy.csv").exists()


def test_failing_study_raises_under_on_error_raise(tmp_path, monkeypatch):
    broken = dict(REGISTRY)
    broken["boom"] = StudySpec(
        name="boom", builder=_boom, figure="n/a", description="always fails",
    )
    monkeypatch.setattr("repro.studies.summary.REGISTRY", broken)
    with pytest.raises(CharacterizationError):
        run_all(tmp_path, runtime=RuntimeOptions(on_error="raise"), only=["boom"])


#: Subset covering every cache layer: characterization-only (fig05),
#: (array x traffic) evaluation (fig09), specialized evaluator blocks
#: (fig14), studies that look arrays up from two specs (ext_hierarchy), and
#: regenerated LLC traces (ext_synthetic_llc).
WARM_SUBSET = [
    "fig05_dnn_arrays",
    "fig09_spec_llc",
    "fig14_writebuffer",
    "ext_hierarchy",
    "ext_synthetic_llc",
]


def test_warm_summary_run_recomputes_nothing(tmp_path):
    """Acceptance: a warm second run performs zero characterizations and
    zero (array x traffic) evaluations, verified by telemetry counters."""
    runtime = RuntimeOptions(cache_dir=tmp_path / "cache")
    cold = run_all(tmp_path / "out1", runtime=runtime, only=WARM_SUBSET)
    assert cold.ok
    cold_telemetry = cold.telemetry
    assert cold_telemetry.completed > 0
    assert cold_telemetry.evaluated > 0
    assert not cold.warm
    # The cache root holds only the model-result stores: no per-point
    # wall-clock ledger (costs/) is written beside them.
    stores = {p.name for p in (tmp_path / "cache").iterdir() if p.is_dir()}
    assert stores <= set(STORE_TYPES), stores
    assert not (tmp_path / "cache" / "costs").exists()

    warm = run_all(tmp_path / "out2", runtime=runtime, only=WARM_SUBSET)
    assert warm.ok
    warm_telemetry = warm.telemetry
    assert warm_telemetry.completed == 0, "warm run re-characterized arrays"
    assert warm_telemetry.evaluated == 0, "warm run re-evaluated blocks"
    assert warm_telemetry.trace_simulated == 0, "warm run re-simulated traces"
    assert warm_telemetry.cached > 0
    assert warm_telemetry.eval_cached > 0
    assert warm_telemetry.trace_cached > 0
    assert warm.warm

    # Cross-run parity: cached rows identical to freshly computed ones.
    for name, table in cold.tables.items():
        assert list(warm.tables[name]) == list(table), name


def test_main_expect_warm(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = [str(tmp_path / "o1"), "--only", "ext_hierarchy",
            "--cache-dir", cache]
    assert summary(args + ["--expect-warm"]) == 1  # cold run is not warm
    capsys.readouterr()
    args[0] = str(tmp_path / "o2")
    assert summary(args + ["--expect-warm"]) == 0
    assert "warm run confirmed" in capsys.readouterr().out


# --- incremental summary --------------------------------------------------

SMALL_SUBSET = ["fig05_dnn_arrays", "ext_hierarchy"]


def test_rerun_into_same_dir_is_incremental(tmp_path):
    out = tmp_path / "out"
    cold = run_all(out, only=SMALL_SUBSET)
    assert cold.ok
    assert cold.incremental_skips == 0
    assert not cold.fully_incremental

    warm = run_all(out, only=SMALL_SUBSET)
    assert warm.ok
    assert warm.fully_incremental
    assert warm.incremental_skips == len(SMALL_SUBSET)
    assert warm.warm  # nothing recomputed at all
    for cold_outcome, warm_outcome in zip(cold.outcomes, warm.outcomes):
        assert warm_outcome.cached
        assert warm_outcome.status == "cached"
        assert warm_outcome.rows == cold_outcome.rows


def test_incremental_false_reruns_everything(tmp_path):
    out = tmp_path / "out"
    run_all(out, only=SMALL_SUBSET)
    forced = run_all(out, only=SMALL_SUBSET, incremental=False)
    assert forced.incremental_skips == 0
    assert forced.telemetry.total > 0


def test_changed_params_invalidate_incremental_entry(tmp_path, monkeypatch):
    out = tmp_path / "out"
    run_all(out, only=["ext_hierarchy"])
    spec = REGISTRY["ext_hierarchy"]
    tweaked = dict(REGISTRY)
    tweaked["ext_hierarchy"] = dataclasses.replace(
        spec, params={**dict(spec.params), "read_hit_rate": 0.5},
    )
    monkeypatch.setattr("repro.studies.summary.REGISTRY", tweaked)
    rerun = run_all(out, only=["ext_hierarchy"])
    assert rerun.incremental_skips == 0


def test_missing_artifact_invalidates_incremental_entry(tmp_path):
    out = tmp_path / "out"
    run_all(out, only=["ext_hierarchy"])
    (out / "results" / "ext_hierarchy.csv").unlink()
    rerun = run_all(out, only=["ext_hierarchy"])
    assert rerun.incremental_skips == 0
    assert (out / "results" / "ext_hierarchy.csv").exists()


def test_failed_study_is_not_skipped_incrementally(tmp_path, monkeypatch):
    out = tmp_path / "out"
    broken = dict(REGISTRY)
    broken["boom"] = StudySpec(
        name="boom", builder=_boom, figure="n/a", description="always fails",
    )
    monkeypatch.setattr("repro.studies.summary.REGISTRY", broken)
    runtime = RuntimeOptions(on_error="skip")
    first = run_all(out, runtime=runtime, only=["boom"])
    assert not first.ok
    second = run_all(out, runtime=runtime, only=["boom"])
    assert second.incremental_skips == 0  # failures are always retried


def test_subset_run_retains_other_studies_incremental_state(tmp_path):
    out = tmp_path / "out"
    run_all(out, only=SMALL_SUBSET)
    # A narrower run into the same directory must not clobber the other
    # study's manifest entry ...
    subset = run_all(out, only=SMALL_SUBSET[:1])
    assert subset.fully_incremental
    manifest = RunManifest.load(out)
    assert manifest.names == (SMALL_SUBSET[0],)
    assert manifest.lookup(SMALL_SUBSET[1]) is not None
    # ... so a later full run is still fully incremental.
    full = run_all(out, only=SMALL_SUBSET)
    assert full.fully_incremental


@pytest.mark.parametrize("field, value", [
    ("telemetry", {"completed": "abc"}),
    ("artifacts", {"csv": 5}),
], ids=["non_numeric_counter", "non_string_artifact_path"])
def test_malformed_manifest_entry_skips_nothing(tmp_path, field, value):
    out = tmp_path / "out"
    run_all(out, only=SMALL_SUBSET)
    path = RunManifest.path_in(out)
    payload = json.loads(path.read_text())
    for entry in payload["entries"]:
        entry[field] = value
    path.write_text(json.dumps(payload))
    # The manifest is malformed, not a source of skips or a crash.
    assert RunManifest.try_load(out) is None
    report = fsck_manifest(out)
    assert report.corrupt == 1 and "malformed" in report.problems[0]
    rerun = run_all(out, only=SMALL_SUBSET[:1])
    assert rerun.ok and rerun.incremental_skips == 0
    assert RunManifest.load(out).names == (SMALL_SUBSET[0],)


def test_main_fully_incremental_exit_code(tmp_path, capsys):
    args = [str(tmp_path / "out"), "--only", "ext_hierarchy"]
    assert summary(args) == 0
    capsys.readouterr()
    assert summary(args) == EXIT_ALL_INCREMENTAL
    out = capsys.readouterr().out
    assert "| ext_hierarchy | cached |" in out
    assert "up to date" in out
    assert summary(args + ["--force"]) == 0  # --force disables the skip


def test_main_rejects_retired_flags(tmp_path, capsys):
    # Pool, retry, shard and merge flags are gone: the suite runs as one
    # serial pass in this process.  `nvmexplorer list-studies` is the one
    # registry listing.
    retired = (
        "--workers", "--retries", "--retry-backoff", "--point-deadline",
        "--shard-index", "--shard-count", "--point-shard-index",
        "--point-shard-count", "--merge", "--list",
    )
    for flag in retired:
        with pytest.raises(SystemExit) as excinfo:
            summary([str(tmp_path / "m"), flag, "1"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_manifest_write_is_atomic(tmp_path):
    out = tmp_path / "out"
    run_all(out, only=["ext_hierarchy"])
    # No stray temp files once write() has returned.
    assert [p.name for p in out.glob("manifest*")] == ["manifest.json"]
    assert RunManifest.load(out).names == ("ext_hierarchy",)


def test_previous_format_manifest_is_not_misread(tmp_path):
    """A manifest of the previous (sharded) format never yields a skip."""
    out = tmp_path / "out"
    run_all(out, only=["ext_hierarchy"])
    path = RunManifest.path_in(out)
    payload = json.loads(path.read_text())
    payload.update(schema="shard-manifest-v3", shard_index=0, shard_count=1)
    path.write_text(json.dumps(payload))
    rerun = run_all(out, only=["ext_hierarchy"])
    assert rerun.incremental_skips == 0
    assert RunManifest.load(out).names == ("ext_hierarchy",)


# -- interrupted runs (Ctrl-C / SIGTERM drain) -----------------------------


def _interrupt(**kwargs):
    raise KeyboardInterrupt


def _interrupting_registry():
    """fig05 runs, then 'stop' simulates Ctrl-C, ext_hierarchy never runs."""
    registry = dict(REGISTRY)
    registry["stop"] = StudySpec(
        name="stop", builder=_interrupt, figure="n/a",
        description="simulated Ctrl-C",
    )
    return registry


def test_interrupted_run_writes_partial_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.studies.summary.REGISTRY",
                        _interrupting_registry())
    run = run_all(tmp_path, only=["fig05_dnn_arrays", "stop", "ext_hierarchy"])
    assert run.interrupted
    # Only the study that finished before the interrupt is recorded...
    assert [o.name for o in run.outcomes] == ["fig05_dnn_arrays"]
    manifest = RunManifest.load(tmp_path)
    assert manifest.names == ("fig05_dnn_arrays",)
    # ...and its artifacts are fully on disk.
    assert (tmp_path / "results" / "fig05_dnn_arrays.csv").exists()


def test_interrupted_run_resumes_incrementally(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.studies.summary.REGISTRY",
                        _interrupting_registry())
    first = run_all(tmp_path, only=["fig05_dnn_arrays", "stop"])
    assert first.interrupted
    # The re-run (without the interruptor) skips the completed study.
    resumed = run_all(tmp_path, only=["fig05_dnn_arrays"])
    assert not resumed.interrupted
    assert resumed.outcomes[0].cached


def test_interrupt_keeps_prior_entries_of_unrun_studies(tmp_path, monkeypatch):
    # A full pass records ext_hierarchy...
    run_all(tmp_path, only=["ext_hierarchy"])
    monkeypatch.setattr("repro.studies.summary.REGISTRY",
                        _interrupting_registry())
    # ...then an interrupted pass that selected (but never reached) it
    # must not clobber its incremental state.
    interrupted = run_all(
        tmp_path, only=["fig05_dnn_arrays", "stop", "ext_hierarchy"]
    )
    assert interrupted.interrupted
    manifest = RunManifest.load(tmp_path)
    retained = {entry.name for entry in manifest.retained}
    assert "ext_hierarchy" in retained
    resumed = run_all(tmp_path, only=["fig05_dnn_arrays", "ext_hierarchy"])
    assert resumed.fully_incremental


def test_main_interrupted_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("repro.studies.summary.REGISTRY",
                        _interrupting_registry())
    rc = summary([str(tmp_path), "--only", "fig05_dnn_arrays,stop"])
    assert rc == 130
    captured = capsys.readouterr()
    assert "interrupted" in captured.err
    assert "partial manifest" in captured.err
    assert RunManifest.load(tmp_path).names == ("fig05_dnn_arrays",)


@pytest.mark.parametrize("artifact", ["results/ext_hierarchy.csv",
                                      "reports/ext_hierarchy.md"])
def test_interrupted_artifact_write_keeps_previous_artifact(
    tmp_path, monkeypatch, artifact
):
    """Regression: a --force re-run interrupted while writing an artifact
    must leave the previous file whole (it used to be truncated in place,
    and the retained manifest entry made the next incremental run trust
    it) and leave no temp file behind."""
    run_all(tmp_path, only=["ext_hierarchy"])
    path = tmp_path / artifact
    before = path.read_bytes()
    real_replace = os.replace

    def interrupted_replace(src, dst):
        if Path(dst) == path:
            raise KeyboardInterrupt
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", interrupted_replace)
    rerun = run_all(tmp_path, only=["ext_hierarchy"], incremental=False)
    assert rerun.interrupted
    assert path.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp.*"))


# -- failure handling: damaged cache packs --------------------------------


def _flip_first_byte_of_every_pack(cache):
    """Flip the first byte of each pack's first body, in every cache pack.

    The pack indexes this process already holds stay valid, so each load
    reads its body and the checksum catches the flip.  Returns each
    pack's damaged bytes.
    """
    packs = sorted(Path(cache).glob(f"*/*{PACK_SUFFIX}"))
    assert packs
    damaged = {}
    for pack in packs:
        data = pack.read_bytes()
        at = read_pack_index(pack)[1][0][1]
        damaged[pack] = data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]
        pack.write_bytes(damaged[pack])
    return damaged


def _damage_is_gone(cache, damaged):
    """No damaged bytes are left: each pack was deleted, or rewritten
    intact under its name by a recompute, and fsck finds nothing to do."""
    for pack, data in damaged.items():
        assert not pack.exists() or pack.read_bytes() != data
    assert not list(Path(cache).glob("*/quarantine"))
    assert all(report.clean for report in fsck_cache_dir(cache))


def test_main_quarantines_corrupt_entries(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert summary([str(tmp_path / "cold"), "--only", "ext_hierarchy",
                 "--cache-dir", cache]) == 0
    damaged = _flip_first_byte_of_every_pack(cache)
    rc = summary([str(tmp_path / "hostile"), "--only", "ext_hierarchy",
               "--cache-dir", cache, "--force"])
    assert rc == 0
    assert "corrupt cache packs deleted" in capsys.readouterr().out
    entry = RunManifest.load(tmp_path / "hostile").entry_for("ext_hierarchy")
    assert entry.telemetry["corrupt"] > 0
    _damage_is_gone(cache, damaged)
    # damaged entries were recomputed, not served: the CSV is unchanged
    csv = Path("results") / "ext_hierarchy.csv"
    assert (tmp_path / "hostile" / csv).read_bytes() == (
        tmp_path / "cold" / csv
    ).read_bytes()


def test_chaos_reaches_the_trace_store(tmp_path, capsys):
    """Damaged LLC trace packs are deleted, reported and re-simulated."""
    cache = str(tmp_path / "cache")
    args = ["--only", "ext_synthetic_llc", "--cache-dir", cache]
    assert summary([str(tmp_path / "warm")] + args) == 0
    trace_packs = len(list((tmp_path / "cache" / "traces").glob(f"*{PACK_SUFFIX}")))
    damaged = _flip_first_byte_of_every_pack(cache)
    assert summary([str(tmp_path / "hostile"), "--force"] + args) == 0
    capsys.readouterr()
    entry = RunManifest.load(tmp_path / "hostile").entry_for("ext_synthetic_llc")
    # Every damaged trace pack counted once; all four traces re-simulated.
    assert entry.telemetry["trace_corrupt"] == trace_packs > 0
    assert entry.telemetry["trace_simulated"] == 4
    _damage_is_gone(cache, damaged)
    csv = Path("results") / "ext_synthetic_llc.csv"
    assert (tmp_path / "hostile" / csv).read_bytes() == (
        tmp_path / "warm" / csv
    ).read_bytes()


def test_main_rejects_bad_chaos_spec(tmp_path, capsys):
    # Cache damage is exercised by damaging pack bytes; no flag injects it.
    with pytest.raises(SystemExit) as excinfo:
        summary([str(tmp_path), "--chaos", "seed=5,cache_corrupt=1.0"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --chaos" in capsys.readouterr().err


@pytest.mark.parametrize(
    "module", ["multiprocessing", "asyncio", "repro.config", "repro.service"]
)
def test_import_does_not_load(module):
    # Every perfbench workload imports the driver inside its timed setup.
    code = (
        "import sys, repro.studies.summary; "
        f"print(any(m == {module!r} or m.startswith({module + '.'!r}) for m in sys.modules))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"



def test_module_forward_runs_the_summary_command(tmp_path):
    # `python -m repro.studies.summary` forwards to `nvmexplorer summary`.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for module, out in (("repro.studies.summary", "forward"),
                        ("repro.config.cli summary", "command")):
        subprocess.run(
            [sys.executable, "-m", *module.split(), str(tmp_path / out),
             "--only", "ext_hierarchy"],
            env=env, check=True, capture_output=True,
        )
    csv = Path("results") / "ext_hierarchy.csv"
    assert (tmp_path / "forward" / csv).read_bytes() == (
        tmp_path / "command" / csv
    ).read_bytes()
