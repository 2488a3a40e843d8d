"""The ``nvmexplorer fsck`` cache/manifest integrity audit."""

from __future__ import annotations

import hashlib

import pytest

from repro.config.cli import main as cli_main
from repro.runtime.cache import (
    PACK_SUFFIX,
    STORE_TYPES,
    EvaluationCache,
    pack_id,
    read_pack_index,
)
from repro.runtime.fingerprint import fingerprint_payload, store_key
from repro.runtime.fsck import (
    fsck_cache_dir,
    fsck_manifest,
    fsck_store,
)
from repro.runtime.shard import ManifestEntry, RunManifest


def fsck_main(argv):
    """``nvmexplorer fsck`` with ``argv``; its exit code."""
    return cli_main(["fsck", *argv])


@pytest.fixture()
def store(tmp_path):
    """An ``evaluations`` store directory under the cache root ``tmp_path``."""
    return tmp_path / "evaluations"


def _populate(root, count=3, salt="fsck"):
    """Write ``count`` valid one-entry packs; returns the fingerprints."""
    cache = EvaluationCache(root)
    fingerprints = []
    for i in range(count):
        fp = fingerprint_payload({"salt": salt, "i": i})
        cache.store(fp, [{"row": i}])
        fingerprints.append(fp)
    return fingerprints


def _entry(root, fp):
    """The one-entry pack holding ``fp``."""
    return root / f"{pack_id(store_key('evaluations'), [fp])}{PACK_SUFFIX}"


def _damage(root, fp):
    """Flip one body digit so the JSON parses but the checksum fails."""
    path = _entry(root, fp)
    data = bytearray(path.read_bytes())
    # The body comes first: {"shapes": [["row"]], "shared": {"row": N}, ...}
    shared = b'"shared": {"row": '
    data[data.index(shared) + len(shared)] ^= 0x01
    path.write_bytes(bytes(data))
    return path


class TestFsckStore:
    def test_clean_store(self, store):
        _populate(store)
        report = fsck_store(store)
        assert report.clean
        assert report.scanned == 3
        assert report.ok == 3
        assert report.corrupt == 0
        assert "3 files scanned" in report.summary()

    def test_corrupt_entry_quarantined_and_second_pass_converges(self, store):
        fingerprints = _populate(store)
        damaged_path = _damage(store, fingerprints[0])

        first = fsck_store(store)
        assert not first.clean
        assert first.corrupt == 1
        assert first.ok == 2
        assert first.problems == [f"{damaged_path.name}: checksum mismatch"]
        assert not damaged_path.exists()
        assert sorted(store.iterdir()) == sorted(_entry(store, fp) for fp in fingerprints[1:])

        # the damage is deleted: the second pass is clean
        second = fsck_store(store)
        assert second.clean
        assert (second.scanned, second.ok, second.corrupt, second.stale) == (2, 2, 0, 0)

    def test_invalid_json_and_fingerprint_mismatch_detected(self, store):
        fingerprints = _populate(store)
        bad_json = _entry(store, fingerprints[0])
        # A body that is not JSON, under a checksum that matches it.
        key, [(fp, _, _, _)] = read_pack_index(bad_json)
        body = b"{truncated"
        checksum = hashlib.sha256(body).hexdigest()
        bad_json.write_bytes(f"{key}\n{fp} {checksum} ".encode() + body + b"\n")
        moved = _entry(store, fingerprints[1])
        wrong_home = store / f"{'0' * 32}{PACK_SUFFIX}"
        wrong_home.write_bytes(moved.read_bytes())  # entries != pack name
        report = fsck_store(store)
        assert report.corrupt == 2
        reasons = " / ".join(report.problems)
        assert "invalid JSON body" in reasons
        assert "do not match the pack name" in reasons
        assert not bad_json.exists() and not wrong_home.exists()
        assert moved.exists()

    def test_stale_tmp_files_swept(self, store):
        _populate(store)
        # A run that died between write and rename leaves a tmp file
        # behind; so could an older naming scheme (no thread/counter).
        stale = [store / "pack.tmp.123.456.0", store / "pack.tmp.12345"]
        for path in stale:
            path.write_text("half-written")
        report = fsck_store(store)
        assert report.clean
        assert report.swept_tmp == 2
        assert report.scanned == 3
        assert not any(path.exists() for path in stale)

    def test_missing_directory_is_a_problem(self, tmp_path):
        report = fsck_store(tmp_path / "nope")
        assert not report.clean
        assert "not a directory" in report.problems[0]


def _store_raw(root, body, store="evaluations"):
    """Store ``body`` unencoded as a one-entry pack; returns the pack."""

    class RawCache(STORE_TYPES[store]):
        def _encode(self, result):
            return result

    RawCache(root).store("cd" * 32, body)
    [pack] = root.glob(f"*{PACK_SUFFIX}")
    return pack


class TestFsckDecodes:
    def test_undecodable_evaluation_body_is_corrupt(self, tmp_path, capsys):
        # Checksums and JSON hold, but the shape index is out of range:
        # every load would delete this pack, so fsck must too.
        store = tmp_path / "evaluations"
        pack = _store_raw(store, {"shapes": [["a"]], "shared": {}, "rows": [[3, 5]]})
        assert fsck_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 files scanned, 0 ok, 1 corrupt" in out
        assert f"{pack.name}: undecodable body" in out
        assert list(store.iterdir()) == []
        assert fsck_main([str(tmp_path)]) == 0

    @pytest.mark.parametrize("store", ["arrays", "traces"])
    def test_each_store_runs_its_own_decoder(self, store, tmp_path):
        pack = _store_raw(tmp_path / store, {"not": "a payload"}, store=store)
        report = fsck_store(tmp_path / store)
        assert (report.ok, report.corrupt) == (0, 1)
        assert not pack.exists()

    def test_pack_under_another_key_is_not_decoded(self, store, write_pack):
        # Its body would not decode, but the loaders treat the pack as a
        # miss: it is removed as stale, not reported as damage.
        write_pack(store, "another-key", [("cd" * 32, [{"a": 5}])])
        report = fsck_store(store)
        assert report.clean
        assert (report.ok, report.corrupt, report.stale) == (0, 0, 1)
        assert list(store.iterdir()) == []


class TestFsckStalePacks:
    def test_foreign_key_pack_removed_current_kept(self, tmp_path, capsys,
                                                   write_pack):
        store = tmp_path / "evaluations"
        current = _populate(store)
        write_pack(store, "foreign", [(fingerprint_payload({"salt": "foreign"}), [{"row": 0}])])
        assert len(list(store.glob(f"*{PACK_SUFFIX}"))) == 4
        assert fsck_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "4 files scanned, 3 ok, 0 corrupt, 1 stale packs removed" in out
        assert sorted(store.iterdir()) == sorted(_entry(store, fp) for fp in current)
        again = fsck_store(store)
        assert again.clean and (again.ok, again.stale) == (3, 0)

    def test_older_layout_packs_removed_in_a_named_store(self, tmp_path, capsys):
        store = tmp_path / "evaluations"
        current = _populate(store)
        old = store / f"{'ab' * 16}.v3"
        old.write_bytes(b"bodies, an index line and a footer")
        assert fsck_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 files scanned, 3 ok, 0 corrupt, 1 stale packs removed" in out
        assert not old.exists()
        assert sorted(store.iterdir()) == sorted(_entry(store, fp) for fp in current)
        again = fsck_store(store)
        assert again.clean and (again.ok, again.stale) == (3, 0)


class TestFsckCacheDir:
    def test_standard_layout_audits_every_store(self, tmp_path):
        _populate(tmp_path / "arrays", salt="a")
        _populate(tmp_path / "evaluations", salt="e")
        _populate(tmp_path / "traces", salt="t")
        reports = fsck_cache_dir(tmp_path)
        assert [r.root.name for r in reports] == ["arrays", "evaluations", "traces"]
        assert all(r.clean for r in reports)

    def test_a_store_directory_is_audited_itself(self, store):
        _populate(store)
        [report] = fsck_cache_dir(store)
        assert report.root == store
        assert report.clean and report.scanned == 3

    def test_directory_without_a_store_is_a_problem(self, tmp_path, capsys):
        bare = tmp_path / "bare"
        _populate(bare)
        old = bare / f"{'ab' * 16}.v3"
        old.write_bytes(b"an older layout")
        before = sorted(bare.iterdir())
        assert fsck_main([str(bare)]) == 1
        out = capsys.readouterr().out
        assert f"{bare} is not a store directory (arrays, evaluations, traces)" in out
        # Nothing under it is read, counted or removed.
        assert "0 files scanned" in out
        assert sorted(bare.iterdir()) == before


class TestFsckManifest:
    def test_valid_manifest_with_artifacts(self, tmp_path):
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "a.csv").write_text("x,y\n1,2\n")
        manifest = RunManifest(
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
    def test_exit_codes_and_convergence(self, tmp_path, store, capsys):
        fingerprints = _populate(store)
        damaged = _damage(store, fingerprints[0])
        assert fsck_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        assert f"{damaged.name}: checksum mismatch" in out
        # the damage was deleted: a re-run audits clean
        assert fsck_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 files scanned, 2 ok, 0 corrupt" in out
        assert not list(tmp_path.rglob("quarantine"))

    def test_text_report_counts(self, tmp_path, store, capsys):
        _populate(store)
        assert fsck_main([str(tmp_path)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert "3 files scanned" in first
        assert "0 corrupt" in first

    def test_manifest_flag(self, tmp_path, capsys):
        manifest = RunManifest(entries=())
        manifest.write(tmp_path)
        assert fsck_main(["--manifest", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_requires_a_target(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            fsck_main([])
        assert excinfo.value.code == 2
        assert "nothing to audit" in capsys.readouterr().err

    def test_repair_from_is_a_usage_error(self, tmp_path, capsys):
        # Packs are never copied in from another cache: a damaged pack's
        # results are recomputed by the next run that needs them.
        _populate(tmp_path / "evaluations")
        with pytest.raises(SystemExit) as excinfo:
            fsck_main([str(tmp_path), "--repair-from", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --repair-from" in capsys.readouterr().err
