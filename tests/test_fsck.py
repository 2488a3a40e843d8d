"""The ``nvmexplorer fsck`` cache/manifest integrity audit."""

from __future__ import annotations

import json

import pytest

from repro.runtime.cache import ENTRY_SUFFIX, QUARANTINE_SUBDIR, EvaluationCache
from repro.runtime.fingerprint import fingerprint_payload
from repro.runtime.fsck import (
    fsck_cache_dir,
    fsck_manifest,
    fsck_store,
)
from repro.runtime.fsck import main as fsck_main
from repro.runtime.shard import ManifestEntry, RunManifest


def _populate(root, count=3, salt="fsck"):
    """Write ``count`` valid checksummed entries; returns the fingerprints."""
    cache = EvaluationCache(root)
    fingerprints = []
    for i in range(count):
        fp = fingerprint_payload({"salt": salt, "i": i})
        cache.store(fp, [{"row": i}])
        fingerprints.append(fp)
    return fingerprints


def _entry(root, fp):
    return root / fp[:2] / f"{fp}{ENTRY_SUFFIX}"


def _damage(root, fp):
    """Flip one body digit so the JSON parses but the checksum fails."""
    path = _entry(root, fp)
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01  # the row value inside [{"row": N}]
    path.write_bytes(bytes(data))
    return path


class TestFsckStore:
    def test_clean_store(self, tmp_path):
        _populate(tmp_path)
        report = fsck_store(tmp_path)
        assert report.clean
        assert report.scanned == 3
        assert report.ok == 3
        assert report.corrupt == 0
        assert "3 entries scanned" in report.summary()

    def test_corrupt_entry_quarantined_and_second_pass_converges(self, tmp_path):
        fingerprints = _populate(tmp_path)
        damaged_path = _damage(tmp_path, fingerprints[0])

        first = fsck_store(tmp_path)
        assert not first.clean
        assert first.corrupt == 1
        assert first.ok == 2
        assert "checksum mismatch" in first.problems[0]
        assert not damaged_path.exists()
        assert (tmp_path / QUARANTINE_SUBDIR / damaged_path.name).exists()

        # the backlog is an archive, not damage: the second pass is clean
        second = fsck_store(tmp_path)
        assert second.clean
        assert second.corrupt == 0
        assert second.quarantine_backlog == 1

    def test_invalid_json_and_fingerprint_mismatch_detected(self, tmp_path):
        fingerprints = _populate(tmp_path)
        bad_json = _entry(tmp_path, fingerprints[0])
        bad_json.write_text("{truncated")
        moved = _entry(tmp_path, fingerprints[1])
        wrong_home = tmp_path / fingerprints[2][:2] / f"{fingerprints[2]}x{ENTRY_SUFFIX}"
        wrong_home.write_text(moved.read_text())  # fp inside != filename
        report = fsck_store(tmp_path)
        assert report.corrupt == 2
        reasons = " / ".join(report.problems)
        assert "invalid JSON" in reasons
        assert "does not match its filename" in reasons or "fingerprint" in reasons

    def test_legacy_entry_without_checksum_kept(self, tmp_path):
        # A pre-v2 entry: no loader reads it, so fsck neither verifies
        # nor quarantines it.
        fp = fingerprint_payload({"legacy": True})
        path = tmp_path / fp[:2] / f"{fp}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "schema": "old-v0", "fingerprint": fp, "result": [{"row": 1}],
        }))
        report = fsck_store(tmp_path)
        assert report.clean
        assert report.scanned == 1
        assert report.legacy == 1
        assert report.ok == 0
        assert path.exists()
        assert "legacy" in report.summary()

    def test_stale_tmp_files_swept(self, tmp_path):
        fingerprints = _populate(tmp_path)
        stale = tmp_path / fingerprints[0][:2] / "orphan.json.tmp.123.456.0"
        stale.write_text("half-written")
        report = fsck_store(tmp_path)
        assert report.clean
        assert report.swept_tmp == 1
        assert not stale.exists()

    def test_repair_from_sibling_rematerializes_quarantined(self, tmp_path):
        primary = tmp_path / "primary"
        sibling = tmp_path / "sibling"
        fingerprints = _populate(primary, salt="shared")
        _populate(sibling, salt="shared")  # same fingerprints, valid copies
        _damage(primary, fingerprints[0])

        fsck_store(primary)  # quarantines the damaged entry
        report = fsck_store(primary, repair_from=sibling)
        assert report.repaired == 1
        restored = _entry(primary, fingerprints[0])
        assert restored.exists()
        # the restored entry verifies clean and the store loads it
        assert fsck_store(primary).clean
        cache = EvaluationCache(primary)
        assert cache.load(fingerprints[0]) == [{"row": 0}]

    def test_missing_directory_is_a_problem(self, tmp_path):
        report = fsck_store(tmp_path / "nope")
        assert not report.clean
        assert "not a directory" in report.problems[0]


class TestFsckCacheDir:
    def test_standard_layout_audits_every_store(self, tmp_path):
        _populate(tmp_path / "arrays", salt="a")
        _populate(tmp_path / "evaluations", salt="e")
        _populate(tmp_path / "traces", salt="t")
        reports = fsck_cache_dir(tmp_path)
        assert [r.root.name for r in reports] == ["arrays", "evaluations", "traces"]
        assert all(r.clean for r in reports)

    def test_bare_store_fallback(self, tmp_path):
        _populate(tmp_path)
        reports = fsck_cache_dir(tmp_path)
        assert len(reports) == 1
        assert reports[0].root == tmp_path
        assert reports[0].scanned == 3

    def test_repair_from_maps_store_subdirs(self, tmp_path):
        primary = tmp_path / "primary"
        sibling = tmp_path / "sibling"
        fingerprints = _populate(primary / "arrays", salt="shared")
        _populate(sibling / "arrays", salt="shared")
        _damage(primary / "arrays", fingerprints[0])
        fsck_cache_dir(primary)
        reports = fsck_cache_dir(primary, repair_from=sibling)
        assert sum(r.repaired for r in reports) == 1


class TestFsckManifest:
    def test_valid_manifest_with_artifacts(self, tmp_path):
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "a.csv").write_text("x,y\n1,2\n")
        manifest = RunManifest(
            shard_index=0, shard_count=1, suite=("a",),
            entries=(ManifestEntry(
                name="a", status="ok",
                fingerprint=fingerprint_payload({"study": "a"}),
                artifacts={"csv": "results/a.csv"},
            ),),
        )
        manifest.write(tmp_path)
        report = fsck_manifest(tmp_path)
        assert report.clean
        assert report.ok == 1

    def test_missing_artifact_reported(self, tmp_path):
        manifest = RunManifest(
            shard_index=0, shard_count=1, suite=("a",),
            entries=(ManifestEntry(
                name="a", status="ok",
                fingerprint=fingerprint_payload({"study": "a"}),
                artifacts={"csv": "results/a.csv"},
            ),),
        )
        manifest.write(tmp_path)
        report = fsck_manifest(tmp_path)
        assert not report.clean
        assert "missing csv artifact" in report.problems[0]

    def test_absent_and_malformed_manifests(self, tmp_path):
        report = fsck_manifest(tmp_path)
        assert not report.clean
        assert "no manifest" in report.problems[0]
        RunManifest.path_in(tmp_path).write_text("{broken")
        report = fsck_manifest(tmp_path)
        assert report.corrupt == 1


class TestFsckCli:
    def test_exit_codes_and_convergence(self, tmp_path, capsys):
        fingerprints = _populate(tmp_path)
        _damage(tmp_path, fingerprints[0])
        assert fsck_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        # the damage was quarantined: a re-run audits clean
        assert fsck_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "in quarantine" in out

    def test_json_output(self, tmp_path, capsys):
        _populate(tmp_path)
        assert fsck_main([str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["scanned"] == 3
        assert payload["reports"][0]["corrupt"] == 0

    def test_manifest_flag(self, tmp_path, capsys):
        manifest = RunManifest(shard_index=0, shard_count=1, suite=(), entries=())
        manifest.write(tmp_path)
        assert fsck_main(["--manifest", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_requires_a_target(self, capsys):
        with pytest.raises(SystemExit):
            fsck_main([])
        capsys.readouterr()
