"""The full-reproduction driver: registry coverage, artifacts, warm and
incremental runs, sharded execution, and shard merging."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import CharacterizationError
from repro.runtime.options import (
    ARRAY_CACHE_SUBDIR,
    EVALUATION_CACHE_SUBDIR,
    TRACE_CACHE_SUBDIR,
    RuntimeOptions,
)
from repro.runtime.shard import RunManifest, plan_shard
from repro.studies.pipeline import REGISTRY, StudySpec
from repro.studies.summary import (
    EXIT_ALL_INCREMENTAL,
    STUDIES,
    main,
    merge_shards,
    run_all,
)


def test_study_registry_covers_evaluation_figures():
    names = set(STUDIES)
    for figure in ("fig03", "fig05", "fig06", "fig08", "fig09", "fig10",
                   "fig11", "fig12", "fig13", "fig14"):
        assert any(n.startswith(figure) for n in names), figure


def test_registry_is_the_summary_registry():
    assert STUDIES is REGISTRY


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
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="unknown studies"):
        run_all(tmp_path, only=["fig99_nope"])


def test_main_returns_zero(tmp_path, capsys):
    assert main([str(tmp_path), "--only", "ext_hierarchy"]) == 0
    out = capsys.readouterr().out
    assert "1 studies" in out
    assert "| ext_hierarchy | ok |" in out


def test_main_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in STUDIES:
        assert name in out


def test_main_unknown_only_exits_nonzero(tmp_path, capsys):
    assert main([str(tmp_path), "--only", "nope"]) == 2
    assert "unknown studies" in capsys.readouterr().err


def _boom(runtime=None):
    raise CharacterizationError("intentional failure")


def test_failing_study_nonzero_exit_and_table(tmp_path, monkeypatch, capsys):
    broken = dict(STUDIES)
    broken["boom"] = StudySpec(
        name="boom", builder=_boom, figure="n/a", description="always fails",
    )
    monkeypatch.setattr("repro.studies.summary.STUDIES", broken)
    rc = main([str(tmp_path), "--only", "boom,ext_hierarchy", "--on-error", "skip"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "| boom | FAIL |" in captured.out
    assert "| ext_hierarchy | ok |" in captured.out
    assert "FAILED studies: boom" in captured.err


def test_failing_study_raises_under_on_error_raise(tmp_path, monkeypatch):
    broken = dict(STUDIES)
    broken["boom"] = StudySpec(
        name="boom", builder=_boom, figure="n/a", description="always fails",
    )
    monkeypatch.setattr("repro.studies.summary.STUDIES", broken)
    with pytest.raises(CharacterizationError):
        run_all(tmp_path, runtime=RuntimeOptions(on_error="raise"), only=["boom"])


#: Subset covering every cache layer: characterization-only (fig05),
#: (array x traffic) evaluation (fig09), specialized evaluator blocks
#: (fig14), direct engine.characterize studies (ext_hierarchy), and
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
    assert stores <= {
        ARRAY_CACHE_SUBDIR,
        EVALUATION_CACHE_SUBDIR,
        TRACE_CACHE_SUBDIR,
    }, stores
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
    assert main(args + ["--expect-warm"]) == 1  # cold run is not warm
    capsys.readouterr()
    args[0] = str(tmp_path / "o2")
    assert main(args + ["--expect-warm"]) == 0
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
    spec = STUDIES["ext_hierarchy"]
    tweaked = dict(STUDIES)
    tweaked["ext_hierarchy"] = dataclasses.replace(
        spec, params={**dict(spec.params), "read_hit_rate": 0.5},
    )
    monkeypatch.setattr("repro.studies.summary.STUDIES", tweaked)
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
    broken = dict(STUDIES)
    broken["boom"] = StudySpec(
        name="boom", builder=_boom, figure="n/a", description="always fails",
    )
    monkeypatch.setattr("repro.studies.summary.STUDIES", broken)
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


def test_main_fully_incremental_exit_code(tmp_path, capsys):
    args = [str(tmp_path / "out"), "--only", "ext_hierarchy"]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == EXIT_ALL_INCREMENTAL
    out = capsys.readouterr().out
    assert "| ext_hierarchy | cached |" in out
    assert "up to date" in out
    assert main(args + ["--force"]) == 0  # --force disables the skip


# --- sharded execution + merge --------------------------------------------


def test_sharded_runs_partition_the_suite(tmp_path):
    only = ["fig05_dnn_arrays", "fig09_spec_llc", "ext_hierarchy"]
    runs = [
        run_all(tmp_path / f"s{i}", only=only, shard_index=i, shard_count=2)
        for i in range(2)
    ]
    names = [o.name for run in runs for o in run.outcomes]
    assert sorted(names) == sorted(only)
    for i, run in enumerate(runs):
        assert run.manifest.shard_index == i
        assert run.manifest.suite == tuple(only)
        assert (tmp_path / f"s{i}" / "manifest.json").exists()


def test_shard_merge_matches_single_host_run(tmp_path, capsys):
    """Acceptance: running the full suite as 3 shards and merging yields
    the same study set, statuses, row counts, and byte-identical CSV
    artifacts as a single-host run."""
    single = run_all(tmp_path / "single", runtime=RuntimeOptions(
        cache_dir=tmp_path / "cache"))
    assert single.ok

    shard_dirs = []
    for i in range(3):
        out = tmp_path / f"shard{i}"
        shard_dirs.append(out)
        run = run_all(out, runtime=RuntimeOptions(cache_dir=tmp_path / "cache"),
                      shard_index=i, shard_count=3)
        assert run.ok
    capsys.readouterr()

    merged = merge_shards(shard_dirs, tmp_path / "merged")
    assert merged.ok
    assert merged.names == tuple(REGISTRY)
    assert merged.merged_from == (0, 1, 2)

    single_manifest = RunManifest.load(tmp_path / "single")
    for name in REGISTRY:
        single_entry = single_manifest.entry_for(name)
        merged_entry = merged.entry_for(name)
        assert merged_entry.status == single_entry.status, name
        assert merged_entry.rows == single_entry.rows, name
        assert merged_entry.fingerprint == single_entry.fingerprint, name
        single_csv = (tmp_path / "single" / "results" / f"{name}.csv").read_bytes()
        merged_csv = (tmp_path / "merged" / "results" / f"{name}.csv").read_bytes()
        assert single_csv == merged_csv, name
        assert (tmp_path / "merged" / "reports" / f"{name}.md").exists()


def test_main_merge(tmp_path, capsys):
    only = "fig05_dnn_arrays,ext_hierarchy"
    for i in range(2):
        assert main([str(tmp_path / f"s{i}"), "--only", only,
                     "--shard-index", str(i), "--shard-count", "2"]) == 0
    capsys.readouterr()
    rc = main([str(tmp_path / "merged"), "--merge",
               str(tmp_path / "s0"), str(tmp_path / "s1")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "| fig05_dnn_arrays | ok |" in out
    assert "| ext_hierarchy | ok |" in out
    assert "2 studies from 2 shard(s)" in out


def test_main_merge_detects_duplicate_study(tmp_path, capsys):
    only = "fig05_dnn_arrays,ext_hierarchy"
    for i in range(2):
        assert main([str(tmp_path / f"s{i}"), "--only", only,
                     "--shard-index", str(i), "--shard-count", "2"]) == 0
    # The same shard twice: its study appears in both merge inputs.
    rc = main([str(tmp_path / "merged"), "--merge",
               str(tmp_path / "s0"), str(tmp_path / "s0")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_main_merge_detects_missing_shard(tmp_path, capsys):
    only = "fig05_dnn_arrays,ext_hierarchy"
    for i in range(2):
        assert main([str(tmp_path / f"s{i}"), "--only", only,
                     "--shard-index", str(i), "--shard-count", "2"]) == 0
    rc = main([str(tmp_path / "merged"), "--merge", str(tmp_path / "s0")])
    assert rc == 2
    assert "missing shard" in capsys.readouterr().err


def test_main_merge_rejects_run_flags(tmp_path, capsys):
    rc = main([str(tmp_path / "m"), "--merge", str(tmp_path / "s0"),
               "--only", "fig09_spec_llc", "--expect-warm"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--only" in err and "--expect-warm" in err
    assert "cannot be combined with --merge" in err


# --- intra-study point sharding + merge ------------------------------------

#: Small but representative: fig09 routes points through the engine sweep
#: path (shardable), ext_hierarchy characterizes per-point outside it
#: (degenerate: every point shard runs it whole; the merge re-materializes).
POINT_SUBSET = ["fig09_spec_llc", "ext_hierarchy"]


def _point_shard_runs(tmp_path, count, only=POINT_SUBSET, seed=None):
    cache = tmp_path / "shared-cache"
    dirs = []
    for i in range(count):
        out = tmp_path / f"ps{i}"
        dirs.append(out)
        run = run_all(out, runtime=RuntimeOptions(
            cache_dir=cache, seed=seed,
            point_shard_index=i, point_shard_count=count,
        ), only=only)
        assert run.ok
    return dirs, cache


@pytest.mark.parametrize("count", [2, 3])
def test_point_shard_merge_matches_single_host(tmp_path, count, capsys):
    """Acceptance: a study split across N point shards, then merged,
    produces CSVs byte-identical to the single-host run, and the merge
    re-materializes entirely from the shared caches (zero fresh work)."""
    single = run_all(tmp_path / "single",
                     runtime=RuntimeOptions(cache_dir=tmp_path / "single-cache"),
                     only=POINT_SUBSET)
    assert single.ok

    dirs, cache = _point_shard_runs(tmp_path, count)
    capsys.readouterr()
    merged = merge_shards(dirs, tmp_path / "merged",
                          runtime=RuntimeOptions(cache_dir=cache))
    assert merged.ok
    assert merged.names == tuple(POINT_SUBSET)
    assert merged.point_merged_from == tuple(range(count))

    single_manifest = RunManifest.load(tmp_path / "single")
    for name in POINT_SUBSET:
        merged_entry = merged.entry_for(name)
        single_entry = single_manifest.entry_for(name)
        assert merged_entry.rows == single_entry.rows, name
        assert merged_entry.fingerprint == single_entry.fingerprint, name
        single_csv = (tmp_path / "single" / "results" / f"{name}.csv").read_bytes()
        merged_csv = (tmp_path / "merged" / "results" / f"{name}.csv").read_bytes()
        assert single_csv == merged_csv, f"{name}: merged CSV differs"
        assert (tmp_path / "merged" / "reports" / f"{name}.md").exists()
        # Re-materialization was served from the shards' caches.
        from repro.runtime.telemetry import SweepTelemetry as _T

        telemetry = _T.from_counters(merged_entry.telemetry)
        assert telemetry.completed == 0, name
        assert telemetry.evaluated == 0, name


def test_point_shards_partition_sweep_rows(tmp_path):
    dirs, _ = _point_shard_runs(tmp_path, 2, only=["fig09_spec_llc"])
    manifests = [RunManifest.load(d) for d in dirs]
    sections = [dict(m.entry_for("fig09_spec_llc").point_shard) for m in manifests]
    assert sections[0]["planned"] == sections[1]["planned"] > 0
    selected = [set(s["selected"]) for s in sections]
    assert selected[0].isdisjoint(selected[1])
    assert len(selected[0] | selected[1]) == sections[0]["planned"]
    rows = [m.entry_for("fig09_spec_llc").rows for m in manifests]
    single = run_all(tmp_path / "single", only=["fig09_spec_llc"])
    assert sum(rows) == single.outcomes[0].rows


def test_point_shard_rerun_is_incremental_per_slice(tmp_path):
    out = tmp_path / "out"
    runtime = RuntimeOptions(point_shard_index=0, point_shard_count=2)
    first = run_all(out, runtime=runtime, only=["fig09_spec_llc"])
    assert first.ok and not first.fully_incremental
    again = run_all(out, runtime=runtime, only=["fig09_spec_llc"])
    assert again.fully_incremental
    # A different slice into the same directory is different work.
    other = run_all(out, runtime=RuntimeOptions(
        point_shard_index=1, point_shard_count=2), only=["fig09_spec_llc"])
    assert other.incremental_skips == 0


def test_point_shard_merge_rejects_seed_mismatch(tmp_path, capsys):
    dirs, cache = _point_shard_runs(tmp_path, 2, only=["fig09_spec_llc"],
                                    seed=123)
    capsys.readouterr()
    from repro.runtime.shard import ShardError

    with pytest.raises(ShardError, match="seed, or source revision"):
        merge_shards(dirs, tmp_path / "merged",
                     runtime=RuntimeOptions(cache_dir=cache))  # seed omitted
    merged = merge_shards(dirs, tmp_path / "merged",
                          runtime=RuntimeOptions(cache_dir=cache, seed=123))
    assert merged.ok


def test_main_point_shard_flags_and_merge(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    for i in range(2):
        assert main([str(tmp_path / f"p{i}"), "--only", "fig09_spec_llc",
                     "--point-shard-index", str(i), "--point-shard-count", "2",
                     "--cache-dir", cache]) == 0
    capsys.readouterr()
    rc = main([str(tmp_path / "merged"), "--merge",
               str(tmp_path / "p0"), str(tmp_path / "p1"),
               "--cache-dir", cache])
    assert rc == 0
    out = capsys.readouterr().out
    assert "| fig09_spec_llc | ok |" in out
    assert "1 studies from 2 shard(s)" in out
    # Warm assertion against the now-complete shared cache.
    assert main([str(tmp_path / "warm"), "--only", "fig09_spec_llc",
                 "--cache-dir", cache, "--expect-warm"]) == 0


def test_main_point_shard_flags_validated(tmp_path, capsys):
    rc = main([str(tmp_path), "--point-shard-index", "3",
               "--point-shard-count", "2"])
    assert rc == 2
    assert "point_shard_index" in capsys.readouterr().err


def test_main_merge_rejects_point_shard_flags(tmp_path, capsys):
    rc = main([str(tmp_path / "m"), "--merge", str(tmp_path / "s0"),
               "--point-shard-count", "2"])
    assert rc == 2
    assert "--point-shard-count" in capsys.readouterr().err


def test_main_merge_rejects_bad_runtime_values(tmp_path, capsys):
    # Pool and retry flags are gone: every sweep runs serially in-process.
    for flag in ("--workers", "--retries", "--retry-backoff", "--point-deadline"):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "m"), "--merge", str(tmp_path / "s0"), flag, "1"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_manifest_write_is_atomic(tmp_path):
    out = tmp_path / "out"
    run_all(out, only=["ext_hierarchy"])
    # No stray temp files once write() has returned.
    assert [p.name for p in out.glob("manifest*")] == ["manifest.json"]
    assert RunManifest.load(out).names == ("ext_hierarchy",)


def test_main_shard_flags_validated(tmp_path, capsys):
    rc = main([str(tmp_path), "--shard-index", "5", "--shard-count", "3"])
    assert rc == 2
    assert "shard_index" in capsys.readouterr().err


def test_plan_matches_run_selection(tmp_path):
    plan = plan_shard(list(REGISTRY), 1, 4)
    run = run_all(tmp_path, only=None, shard_index=1, shard_count=4,
                  runtime=RuntimeOptions(on_error="skip"))
    assert tuple(o.name for o in run.outcomes) == plan.selected


# -- interrupted runs (Ctrl-C / SIGTERM drain) -----------------------------


def _interrupt(**kwargs):
    raise KeyboardInterrupt


def _interrupting_registry():
    """fig05 runs, then 'stop' simulates Ctrl-C, ext_hierarchy never runs."""
    registry = dict(STUDIES)
    registry["stop"] = StudySpec(
        name="stop", builder=_interrupt, figure="n/a",
        description="simulated Ctrl-C",
    )
    return registry


def test_interrupted_run_writes_partial_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.studies.summary.STUDIES",
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
    monkeypatch.setattr("repro.studies.summary.STUDIES",
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
    monkeypatch.setattr("repro.studies.summary.STUDIES",
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
    monkeypatch.setattr("repro.studies.summary.STUDIES",
                        _interrupting_registry())
    rc = main([str(tmp_path), "--only", "fig05_dnn_arrays,stop"])
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


# -- failure handling: cache-corruption chaos ------------------------------


def test_main_chaos_flag_quarantines_corrupt_entries(tmp_path, capsys):
    from repro.runtime import chaos

    chaos._CORRUPTED.clear()  # corruption fires once per fingerprint per process
    cache = str(tmp_path / "cache")
    assert main([str(tmp_path / "cold"), "--only", "ext_hierarchy",
                 "--cache-dir", cache]) == 0
    rc = main([str(tmp_path / "hostile"), "--only", "ext_hierarchy",
               "--cache-dir", cache, "--chaos", "seed=5,cache_corrupt=1.0"])
    assert rc == 0
    assert "corrupt cache entries quarantined" in capsys.readouterr().out
    entry = RunManifest.load(tmp_path / "hostile").entry_for("ext_hierarchy")
    assert entry.telemetry["corrupt"] > 0
    # damaged entries were recomputed, not served: the CSV is unchanged
    csv = Path("results") / "ext_hierarchy.csv"
    assert (tmp_path / "hostile" / csv).read_bytes() == (
        tmp_path / "cold" / csv
    ).read_bytes()


def test_main_rejects_bad_chaos_spec(tmp_path, capsys):
    rc = main([str(tmp_path), "--chaos", "worker_crash=0.5"])
    assert rc == 2
    assert "unknown chaos spec key" in capsys.readouterr().err


def test_import_does_not_load_multiprocessing():
    code = "import sys, repro.studies.summary; print('multiprocessing' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
