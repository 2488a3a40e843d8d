"""Run manifests and the study fingerprints behind incremental runs (repro.runtime.shard)."""

import json
import os

import pytest

from repro.runtime.fingerprint import fingerprint_payload, source_files, store_keys
from repro.runtime.shard import (
    MANIFEST_FILENAME,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    ManifestEntry,
    ManifestError,
    RunManifest,
    source_digest,
    study_fingerprint,
)
from repro.studies.pipeline import REGISTRY


# --- study fingerprints ---------------------------------------------------


def test_study_fingerprint_stable_and_sensitive():
    spec = REGISTRY["fig09_spec_llc"]
    base = study_fingerprint(spec)
    assert base == study_fingerprint(spec)
    assert study_fingerprint(spec, overrides={"n_accesses": 7}) != base
    assert study_fingerprint(spec, seed=1) != base
    assert study_fingerprint(REGISTRY["fig14_writebuffer"]) != base


def test_source_digest_is_stable_hex():
    digest = source_digest()
    assert digest == source_digest()
    assert len(digest) == 64
    int(digest, 16)


def test_source_digest_covers_the_proxy_weights():
    digested = {path.as_posix() for path in source_files()}
    assert any(path.endswith("repro/dnn/proxy_weights.npz") for path in digested)
    assert any(path.endswith("repro/runtime/shard.py") for path in digested)


def test_store_keys_cover_every_cache_layer():
    keys = store_keys()
    assert set(keys) == {"arrays", "evaluations", "traces"}
    assert keys["evaluations"] == source_digest()


# --- manifests ------------------------------------------------------------


def _entry(name, status=STATUS_OK, **kwargs):
    defaults = {
        "fingerprint": fingerprint_payload({"study": name}),
        "rows": 5,
        "elapsed_s": 0.1,
        "artifacts": {"csv": f"results/{name}.csv"},
        "telemetry": {"completed": 3, "evaluated": 2, "evaluate_wall_s": 0.25},
    }
    defaults.update(kwargs)
    return ManifestEntry(name=name, status=status, **defaults)


def test_manifest_roundtrip(tmp_path):
    manifest = RunManifest(entries=(_entry("a"), _entry("b", status=STATUS_FAILED, error="boom")))
    path = manifest.write(tmp_path)
    assert path.name == MANIFEST_FILENAME
    loaded = RunManifest.load(tmp_path)
    assert loaded == manifest
    assert RunManifest.load(path) == manifest
    assert loaded.names == ("a", "b")
    assert not loaded.ok
    assert loaded.entry_for("a") == manifest.entries[0]
    assert loaded.entry_for("zzz") is None
    # Wall-clock accumulators stay fractional through the round trip.
    assert loaded.entry_for("a").telemetry["evaluate_wall_s"] == 0.25


def test_manifest_try_load_tolerates_missing_and_corrupt(tmp_path):
    assert RunManifest.try_load(tmp_path) is None
    (tmp_path / MANIFEST_FILENAME).write_text("{not json")
    assert RunManifest.try_load(tmp_path) is None
    (tmp_path / MANIFEST_FILENAME).write_text(json.dumps({"schema": "other-v9"}))
    assert RunManifest.try_load(tmp_path) is None


def test_manifest_rejects_wrong_schema():
    with pytest.raises(ManifestError, match="schema"):
        RunManifest.from_dict({"schema": "nope"})


def test_entry_rejects_unknown_status():
    with pytest.raises(ManifestError, match="status"):
        ManifestEntry(name="a", status="great")


def test_cached_entries_count_as_ok():
    assert _entry("a", status=STATUS_CACHED).ok
    assert not _entry("a", status=STATUS_FAILED).ok


def test_retained_entries_roundtrip_and_lookup(tmp_path):
    manifest = RunManifest(entries=(_entry("a"),), retained=(_entry("z"),))
    manifest.write(tmp_path)
    loaded = RunManifest.load(tmp_path)
    assert loaded.retained == manifest.retained
    assert loaded.entry_for("z") is None  # not part of this run
    assert loaded.lookup("z") == manifest.retained[0]
    assert loaded.lookup("a") == manifest.entries[0]
    assert loaded.lookup("missing") is None


@pytest.mark.parametrize(
    "error", [OSError("disk full"), KeyboardInterrupt()], ids=["oserror", "interrupt"]
)
def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, error):
    previous = RunManifest(entries=(_entry("a"),))
    previous.write(tmp_path)

    def failing_replace(src, dst):
        raise error

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(type(error)):
        RunManifest(entries=(_entry("b"),)).write(tmp_path)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == [MANIFEST_FILENAME]
    assert RunManifest.load(tmp_path) == previous
