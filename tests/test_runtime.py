"""The sweep runtime: fingerprints, persistent cache, serial executor."""

import dataclasses
import hashlib
import json
import logging
import pathlib
import re
import sys
import threading

import pytest

from repro.cachesim.streams import WorkloadModel
from repro.cells.export import cell_from_dict, cell_to_dict
from repro.config import parse_config
from repro.core.engine import DSEEngine, SweepSpec
from repro.core.metrics import evaluation_rows
from repro.errors import CharacterizationError, ConfigError
from repro.nvsim.characterize import warm_lanes
from repro.nvsim.result import ArrayCharacterization, OptimizationTarget
from repro.runtime import (
    CharacterizationCache,
    EvaluationCache,
    RuntimeOptions,
    SweepPoint,
    SweepTelemetry,
    characterize_points,
    evaluate_blocks,
    evaluation_context,
    evaluation_fingerprint,
    point_fingerprint,
    sweep_points,
)
from repro.runtime import executor, fingerprint
from repro.runtime.cache import PACK_SUFFIX, pack_id, read_pack_index
from repro.runtime.executor import rows_fn_id
from repro.runtime.fsck import fsck_cache_dir
from repro.runtime.rowcodec import decode_block, encode_block
from repro.runtime.telemetry import ProgressEvent
from repro.studies.pipeline import StudySpec
from repro.traffic import TrafficPattern
from repro.units import mb

#: An access width no organization can serve at 4 KB capacity.
INFEASIBLE_ACCESS_BITS = 2 ** 18


def make_point(cell, capacity=mb(1), target=OptimizationTarget.READ_EDP,
               access_bits=64, bits_per_cell=1, node_nm=22):
    return SweepPoint(
        cell=cell,
        capacity_bytes=capacity,
        node_nm=node_nm,
        target=target,
        access_bits=access_bits,
        bits_per_cell=bits_per_cell,
    )


def _packs(root):
    return sorted(root.glob(f"*{PACK_SUFFIX}"))


def _stored_fingerprints(root):
    """Every fingerprint the packs under ``root`` hold, in pack and line order."""
    return [entry[0] for pack in _packs(root) for entry in read_pack_index(pack)[1]]


def _first_body_end(data):
    """Byte offset just past the first entry line's body."""
    return data.index(b"\n", data.index(b"\n") + 1)


def _flip_last_digit(data, end):
    """Flip the last decimal digit before ``end`` into another digit."""
    digit = max(i for i in range(end) if chr(data[i]).isdigit())
    return data[:digit] + bytes([data[digit] ^ 0x01]) + data[digit + 1:]


def _flip_first_char(line_start):
    """Damage that changes the first character of the line ``line_start`` picks."""
    def damage(data):
        at = line_start(data)
        flipped = b"1" if data[at:at + 1] != b"1" else b"2"
        return data[:at] + flipped + data[at + 1:]
    return damage


#: Ways a pack can be damaged on disk; every one must be caught by the
#: loader's checks (key line, entry lines, pack name, body checksum).
_DAMAGE = {
    "truncated": lambda data: data[: len(data) // 2],
    "null": lambda data: b"null",
    "list": lambda data: b"[1, 2]",
    "string": lambda data: b'"a string"',
    "body-bitflip": lambda data: _flip_last_digit(data, _first_body_end(data)),
    "index-fingerprint": _flip_first_char(lambda data: data.index(b"\n") + 1),
    "index-schema": _flip_first_char(lambda data: 0),
    "index-two-fields": lambda data: data + b"ab" * 32 + b" " + b"0" * 64 + b"\n",
    "unterminated-line": lambda data: data[:-1],
}


class TestFingerprint:
    def test_deterministic_across_object_identities(self, stt_optimistic):
        rebuilt = cell_from_dict(cell_to_dict(stt_optimistic))
        assert rebuilt is not stt_optimistic
        a = make_point(stt_optimistic).fingerprint()
        b = make_point(rebuilt).fingerprint()
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_every_provisioning_knob_changes_the_key(self, stt_optimistic):
        base = make_point(stt_optimistic)
        variants = [
            make_point(stt_optimistic, capacity=mb(2)),
            make_point(stt_optimistic, target=OptimizationTarget.AREA),
            make_point(stt_optimistic, access_bits=512),
            make_point(stt_optimistic, bits_per_cell=2),
            make_point(stt_optimistic, node_nm=16),
        ]
        keys = {base.fingerprint()} | {v.fingerprint() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_cell_parameters_change_the_key(self, stt_optimistic):
        tweaked = dataclasses.replace(stt_optimistic, read_pulse=2e-9)
        assert (make_point(stt_optimistic).fingerprint()
                != make_point(tweaked).fingerprint())

    def test_store_key_changes_the_key(self, stt_optimistic, monkeypatch):
        point = make_point(stt_optimistic)
        installed = point.fingerprint()
        monkeypatch.setattr(fingerprint, "store_key", lambda store: "array-cache-v1")
        edited = point.fingerprint()
        monkeypatch.setattr(fingerprint, "store_key", lambda store: "array-cache-v2")
        assert len({installed, edited, point.fingerprint()}) == 3

    def test_matches_module_level_function(self, stt_optimistic):
        point = make_point(stt_optimistic)
        assert point.fingerprint() == point_fingerprint(
            stt_optimistic, mb(1), 22, OptimizationTarget.READ_EDP, 64, 1
        )


class TestSerialization:
    def test_characterization_roundtrip(self, stt_array_1mb):
        rebuilt = ArrayCharacterization.from_dict(stt_array_1mb.to_dict())
        assert rebuilt == stt_array_1mb

    def test_payload_is_json_serializable(self, stt_array_1mb):
        text = json.dumps(stt_array_1mb.to_dict())
        rebuilt = ArrayCharacterization.from_dict(json.loads(text))
        assert rebuilt == stt_array_1mb

    def test_invalid_payload_rejected(self, stt_array_1mb):
        payload = stt_array_1mb.to_dict()
        del payload["organization"]
        with pytest.raises(CharacterizationError):
            ArrayCharacterization.from_dict(payload)


class TestCharacterizationCache:
    def test_miss_then_hit(self, tmp_path, stt_optimistic, stt_array_1mb):
        cache = CharacterizationCache(tmp_path)
        fp = make_point(stt_optimistic).fingerprint()
        assert cache.load(fp) is None
        cache.store(fp, stt_array_1mb)
        assert cache.load(fp) == stt_array_1mb
        assert _stored_fingerprints(tmp_path) == [fp]
        assert cache.corrupt == 0

    def test_store_key_change_invalidates(self, tmp_path, stt_optimistic,
                                          stt_array_1mb, write_pack):
        fp = make_point(stt_optimistic).fingerprint()
        old = write_pack(tmp_path, "array-cache-v1", [(fp, stt_array_1mb.to_dict())])
        cache = CharacterizationCache(tmp_path)
        # The key would be unreachable anyway (the store key is hashed
        # into real fingerprints); even a forced lookup of the old key must
        # miss, and an intact pack under another key is not damage.
        assert cache.load(fp) is None
        assert cache.corrupt == 0
        assert _packs(tmp_path) == [old]
        assert read_pack_index(old)[0] == "array-cache-v1"

    def test_damaged_pack_under_another_key_is_corrupt(
            self, tmp_path, stt_optimistic, stt_array_1mb, write_pack):
        # An entry's checksum is checked before its pack's key, by a load
        # and by fsck alike: damage under an old key is still damage.
        root = tmp_path / "arrays"
        fp = make_point(stt_optimistic).fingerprint()
        old = write_pack(root, "array-cache-v1", [(fp, stt_array_1mb.to_dict())])
        old.write_bytes(_DAMAGE["body-bitflip"](old.read_bytes()))
        audited = tmp_path / "copy" / "arrays"
        audited.mkdir(parents=True)
        (audited / old.name).write_bytes(old.read_bytes())
        cache = CharacterizationCache(root)
        assert cache.load(fp) is None
        assert cache.corrupt == 1
        assert _packs(root) == []
        [report] = fsck_cache_dir(audited)
        assert (report.corrupt, report.stale) == (1, 0)
        assert report.problems == [f"{old.name}: checksum mismatch"]

    @pytest.mark.parametrize("damage", sorted(_DAMAGE), ids=sorted(_DAMAGE))
    def test_corrupt_entry_is_quarantined(self, tmp_path, stt_optimistic,
                                          stt_array_1mb, forget_pack_indexes,
                                          damage):
        root = tmp_path / "arrays"  # a named store, so fsck audits it
        cache = CharacterizationCache(root)
        fp = make_point(stt_optimistic).fingerprint()
        cache.store(fp, stt_array_1mb)
        [pack] = _packs(root)
        damaged = _DAMAGE[damage](pack.read_bytes())
        pack.write_bytes(damaged)
        forget_pack_indexes()  # a fresh process reads the damaged index
        fresh = CharacterizationCache(root)
        assert fresh.load(fp) is None
        # Corruption is an infrastructure fault, not an ordinary miss:
        # counted separately, and the damaged pack is deleted.
        assert fresh.corrupt == 1
        assert not pack.exists()
        assert list(root.iterdir()) == []
        # fsck agrees the damage is gone from the store.
        assert [r.clean for r in fsck_cache_dir(root)] == [True]
        # A later miss neither re-reads nor re-counts it.
        assert fresh.load(fp) is None
        assert fresh.corrupt == 1
        # The next store re-materializes the pack at its original name.
        fresh.store(fp, stt_array_1mb)
        assert pack.exists()
        assert fresh.load(fp) == stt_array_1mb

    def test_undeletable_damaged_pack_counted_once(
            self, tmp_path, stt_optimistic, stt_array_1mb, forget_pack_indexes,
            monkeypatch):
        cache = CharacterizationCache(tmp_path)
        fp, other = (make_point(stt_optimistic, capacity=mb(c)).fingerprint()
                     for c in (1, 2))
        cache.store(fp, stt_array_1mb)
        [pack] = _packs(tmp_path)
        damaged = pack.read_bytes()[:-1]  # an unterminated last line
        pack.write_bytes(damaged)
        forget_pack_indexes()

        def refuse(path, missing_ok=False):
            raise OSError("read-only store")

        monkeypatch.setattr(pathlib.Path, "unlink", refuse)
        fresh = CharacterizationCache(tmp_path)
        # Each miss re-lists the store; the pack stays but is never
        # re-read, re-counted or served.
        assert [fresh.load(lookup) for lookup in (fp, other, fp)] == [None] * 3
        assert fresh.corrupt == 1
        assert pack.read_bytes() == damaged

    def test_checksum_mismatch_is_quarantined(self, tmp_path, stt_optimistic,
                                              stt_array_1mb):
        cache = CharacterizationCache(tmp_path)
        fp = make_point(stt_optimistic).fingerprint()
        cache.store(fp, stt_array_1mb)
        [path] = _packs(tmp_path)
        [(_, offset, length, _)] = read_pack_index(path)[1]
        damaged = _flip_last_digit(path.read_bytes(), offset + length)
        path.write_bytes(damaged)
        # Still valid JSON, but another value: only the checksum catches it,
        # also through the index this process already holds.
        assert json.loads(damaged[offset:offset + length]) != stt_array_1mb.to_dict()
        assert cache.load(fp) is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_pre_v2_entry_is_an_ordinary_miss(
            self, tmp_path, stt_optimistic, stt_array_1mb):
        # Entries of the older one-file-per-entry layouts: never read.
        root = tmp_path / "arrays"
        cache = CharacterizationCache(root)
        fp = make_point(stt_optimistic).fingerprint()
        legacy = root / fp[:2] / f"{fp}.json"
        legacy.parent.mkdir(parents=True)
        legacy.write_text(json.dumps({
            "schema": cache.schema_tag, "fingerprint": fp,
            "result": stt_array_1mb.to_dict(),
        }))
        body = json.dumps(stt_array_1mb.to_dict()).encode()
        v2 = root / fp[:2] / f"{fp}.v2"
        v2.write_bytes(json.dumps({
            "schema": cache.schema_tag, "fingerprint": fp,
            "checksum": hashlib.sha256(body).hexdigest(),
        }).encode() + b"\n" + body)
        assert cache.load(fp) is None
        assert cache.corrupt == 0
        assert legacy.exists() and v2.exists()
        [report] = fsck_cache_dir(root)
        assert report.clean
        assert legacy.exists() and v2.exists()

    def test_entry_checksum_covers_the_stored_body(
            self, tmp_path, stt_optimistic, stt_array_1mb):
        cache = CharacterizationCache(tmp_path)
        fp = make_point(stt_optimistic).fingerprint()
        cache.store(fp, stt_array_1mb)
        [pack] = _packs(tmp_path)
        body = json.dumps(stt_array_1mb.to_dict()).encode()
        checksum = hashlib.sha256(body).hexdigest()
        assert pack.read_bytes() == (
            f"{cache.schema_tag}\n{fp} {checksum} ".encode() + body + b"\n")
        assert pack.name == pack_id(cache.schema_tag, [fp]) + ".v4"
        offset = len(cache.schema_tag) + len(fp) + len(checksum) + 3
        assert read_pack_index(pack) == (
            cache.schema_tag, [(fp, offset, len(body), checksum)])

    def test_batch_writes_one_pack(self, tmp_path, stt_optimistic,
                                   stt_array_1mb, sram_array_1mb,
                                   forget_pack_indexes):
        cache = CharacterizationCache(tmp_path)
        fps = [make_point(stt_optimistic, capacity=mb(c)).fingerprint()
               for c in (1, 2)]
        with cache.batch():
            cache.store(fps[0], stt_array_1mb)
            with cache.batch():  # a nested batch joins the outer one
                cache.store(fps[1], sram_array_1mb)
            assert _packs(tmp_path) == []  # nothing lands before the commit
        [pack] = _packs(tmp_path)
        assert pack.name == pack_id(cache.schema_tag, fps) + PACK_SUFFIX
        with cache.batch():
            pass  # a batch that stores nothing writes nothing
        assert _packs(tmp_path) == [pack]
        forget_pack_indexes()
        fresh = CharacterizationCache(tmp_path)
        assert [fresh.load(fp) for fp in fps] == [stt_array_1mb, sram_array_1mb]
        assert _stored_fingerprints(tmp_path) == fps

    def test_store_leaves_no_tmp_files(self, tmp_path, stt_optimistic,
                                       stt_array_1mb):
        cache = CharacterizationCache(tmp_path)
        fp = make_point(stt_optimistic).fingerprint()
        for _ in range(3):
            cache.store(fp, stt_array_1mb)
        assert list(tmp_path.rglob("*.tmp.*")) == []

    def test_tmp_files_invisible_to_entry_iteration(self, tmp_path,
                                                    stt_optimistic,
                                                    stt_array_1mb,
                                                    forget_pack_indexes):
        cache = CharacterizationCache(tmp_path)
        fp, other = (make_point(stt_optimistic, capacity=mb(c)).fingerprint()
                     for c in (1, 2))
        cache.store(fp, stt_array_1mb)
        [pack] = _packs(tmp_path)
        # A run that died between write and rename leaves a tmp file
        # behind, here a whole pack of another fingerprint, and junk.
        cache.store(other, stt_array_1mb)
        [pending] = set(_packs(tmp_path)) - {pack}
        pending.rename(tmp_path / "pack.tmp.999.1.0")
        (tmp_path / "pack.tmp.999.1.1").write_text("junk")
        forget_pack_indexes()
        fresh = CharacterizationCache(tmp_path)
        assert fresh.load(other) is None
        assert fresh.load(fp) == stt_array_1mb
        assert fresh.corrupt == 0
        assert _packs(tmp_path) == [pack]

    def test_concurrent_stores_of_same_fingerprint(self, tmp_path,
                                                   stt_optimistic,
                                                   stt_array_1mb,
                                                   forget_pack_indexes):
        """Threads storing into one cache must not collide on a shared tmp
        name or share a batch, and no thread's pack may be lost."""
        cache = CharacterizationCache(tmp_path)
        fp = make_point(stt_optimistic).fingerprint()
        errors = []

        def hammer(worker):
            try:
                for n in range(25):
                    cache.store(fp, stt_array_1mb)
                    with cache.batch():
                        cache.store(f"{worker:02x}{n:02x}" * 16, stt_array_1mb)
                        cache.store(fp, stt_array_1mb)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(worker,))
                       for worker in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert list(tmp_path.rglob("*.tmp.*")) == []
        forget_pack_indexes()
        fresh = CharacterizationCache(tmp_path)
        workers = {f"{worker:02x}{n:02x}" * 16 for worker in range(4) for n in range(25)}
        assert set(_stored_fingerprints(tmp_path)) == workers | {fp}
        assert fresh.load(fp) == stt_array_1mb
        assert all(fresh.load(worker) == stt_array_1mb for worker in workers)
        assert fresh.corrupt == 0


class TestExecutor:
    def test_duplicates_in_one_call_computed_once(self, stt_optimistic):
        telemetry = SweepTelemetry()
        point = make_point(stt_optimistic)
        results = characterize_points([point, point], progress=telemetry.emit)
        assert results[0] is results[1]
        assert telemetry.completed == 1
        assert telemetry.cached == 1

    def test_disk_cache_hit_on_rerun(self, tmp_path, stt_optimistic):
        cache = CharacterizationCache(tmp_path)
        point = make_point(stt_optimistic)
        characterize_points([point], cache=cache)
        assert _stored_fingerprints(tmp_path) == [point.fingerprint()]
        telemetry = SweepTelemetry()
        rerun = characterize_points([point], cache=cache, progress=telemetry.emit)
        assert telemetry.completed == 0
        assert telemetry.cached == 1
        assert rerun[0] is not None

    def test_on_error_raise(self, stt_optimistic):
        bad = make_point(stt_optimistic, capacity=4096,
                         access_bits=INFEASIBLE_ACCESS_BITS)
        with pytest.raises(CharacterizationError):
            characterize_points([bad], on_error="raise")

    def test_on_error_skip_reports_and_continues(self, stt_optimistic,
                                                  monkeypatch):
        good = make_point(stt_optimistic)
        bad = make_point(stt_optimistic, capacity=4096,
                         access_bits=INFEASIBLE_ACCESS_BITS)
        telemetry = SweepTelemetry()
        results = characterize_points(
            [bad, good], on_error="skip", progress=telemetry.emit
        )
        assert results[0] is None
        assert results[1] is not None
        assert telemetry.failed == 1
        assert telemetry.completed == 1
        assert "no feasible organization" in telemetry.failures[0].error

        # The failing point shares a group (cell, node, access width,
        # bits/cell) with two good ones: the group warms its lanes as one
        # array program, and the good points still complete.
        wide = 2 ** 16  # feasible at 1 and 2 MB, infeasible at 4 KB
        group = [make_point(stt_optimistic, capacity=capacity, access_bits=wide)
                 for capacity in (mb(1), 4096, mb(2))]
        warmed = []
        monkeypatch.setattr(executor, "warm_lanes", lambda requests: (
            warmed.append(list(requests)), warm_lanes(requests)))
        telemetry = SweepTelemetry()
        results = characterize_points(group, on_error="skip", progress=telemetry.emit)
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
        assert telemetry.failed == 1
        assert telemetry.completed == 2
        assert [len(requests) for requests in warmed] == [3]
        # A group of one warms its lanes through the same program.
        warmed.clear()
        characterize_points([make_point(stt_optimistic, capacity=mb(4))])
        assert [len(requests) for requests in warmed] == [1]
        with pytest.raises(CharacterizationError,
                           match=re.escape(group[1].label)):
            characterize_points(group, on_error="raise")

    def test_invalid_on_error_rejected(self, stt_optimistic):
        with pytest.raises(ValueError):
            characterize_points([make_point(stt_optimistic)], on_error="ignore")

    def test_fresh_points_record_wall_clock(self, stt_optimistic):
        """Satellite: fresh computations carry per-point durations that
        accumulate into the telemetry's wall-clock counters."""
        telemetry = SweepTelemetry()
        characterize_points(
            [make_point(stt_optimistic)], progress=telemetry.emit
        )
        assert telemetry.characterize_wall_s > 0
        assert telemetry.wall_s == pytest.approx(telemetry.characterize_wall_s)
        counters = telemetry.counters()
        assert counters["characterize_wall_s"] > 0
        rebuilt = SweepTelemetry.from_counters(counters)
        assert rebuilt.characterize_wall_s == counters["characterize_wall_s"]

    def test_cached_points_record_no_wall_clock(self, tmp_path, stt_optimistic):
        cache = CharacterizationCache(tmp_path)
        point = make_point(stt_optimistic)
        characterize_points([point], cache=cache)
        telemetry = SweepTelemetry()
        characterize_points([point], cache=cache, progress=telemetry.emit)
        assert telemetry.cached == 1
        assert telemetry.characterize_wall_s == 0.0

    def test_duration_in_event_and_describe(self, stt_optimistic):
        events = []
        characterize_points([make_point(stt_optimistic)], progress=events.append)
        (event,) = events
        assert event.duration_s > 0
        assert event.to_dict()["duration_s"] == event.duration_s
        assert f"({event.duration_s:.3f}s)" in event.describe()


def _traffic_pair():
    return (
        TrafficPattern("read-heavy", reads_per_second=1e8, writes_per_second=1e6),
        TrafficPattern("write-heavy", reads_per_second=1e6, writes_per_second=1e7),
    )


def _evaluation_key(array, traffic, rows_fn_id, extra=None):
    """The key ``evaluate_blocks`` gives ``array``'s block under ``traffic``."""
    return evaluation_fingerprint(
        array, evaluation_context(traffic, rows_fn_id=rows_fn_id, extra=extra))


class TestEvaluationFingerprint:
    def test_traffic_and_array_and_extra_change_the_key(self, stt_array_1mb,
                                                        monkeypatch):
        traffic = _traffic_pair()
        fn = rows_fn_id(evaluation_rows)
        base = _evaluation_key(stt_array_1mb, traffic, fn)
        assert base != _evaluation_key(stt_array_1mb, traffic[:1], fn)
        assert base != _evaluation_key(stt_array_1mb, traffic, fn, extra=[1])
        assert base != _evaluation_key(stt_array_1mb, traffic, "other:fn")
        monkeypatch.setattr(fingerprint, "store_key", lambda store: "eval-rows-v99")
        assert base != _evaluation_key(stt_array_1mb, traffic, fn)

    def test_deterministic_across_reconstruction(self, stt_array_1mb):
        rebuilt = ArrayCharacterization.from_dict(stt_array_1mb.to_dict())
        traffic = _traffic_pair()
        fn = rows_fn_id(evaluation_rows)
        assert (_evaluation_key(stt_array_1mb, traffic, fn)
                == _evaluation_key(rebuilt, traffic, fn))


class TestEvaluationCache:
    def rows(self, stt_array_1mb):
        [rows] = evaluation_rows([stt_array_1mb], _traffic_pair())
        return rows

    def test_miss_then_hit_roundtrips_rows(self, tmp_path, stt_array_1mb):
        cache = EvaluationCache(tmp_path)
        rows = self.rows(stt_array_1mb)
        fp = _evaluation_key(stt_array_1mb, _traffic_pair(), rows_fn_id(evaluation_rows))
        assert cache.load(fp) is None
        cache.store(fp, rows)
        assert cache.load(fp) == rows  # exact cross-run parity, incl. floats
        assert _stored_fingerprints(tmp_path) == [fp]
        assert cache.corrupt == 0

    def test_store_key_change_invalidates(self, tmp_path, stt_array_1mb,
                                          write_pack):
        rows = self.rows(stt_array_1mb)
        write_pack(tmp_path, "eval-rows-v1", [("ab" * 32, encode_block(rows))])
        cache = EvaluationCache(tmp_path)
        assert cache.load("ab" * 32) is None
        assert cache.corrupt == 0

    def test_row_key_order_survives_the_roundtrip(self, tmp_path):
        # CSV column order is taken from row insertion order, so cached
        # rows must preserve it to reproduce fresh CSVs byte-for-byte.
        cache = EvaluationCache(tmp_path)
        rows = [{"zeta": 1, "alpha": 2, "mid": 3}]
        cache.store("ef" * 32, rows)
        loaded = cache.load("ef" * 32)
        assert [list(r) for r in loaded] == [["zeta", "alpha", "mid"]]

    def test_body_with_newlines_and_spaces_roundtrips(self, tmp_path,
                                                      forget_pack_indexes):
        cache = EvaluationCache(tmp_path)
        rows = [{"note": "two\nlines", "key with spaces": " a b ", "n": 1},
                {"note": "\n\r\t ", "key with spaces": "x", "n": 2}]
        cache.store("ab" * 32, rows)
        [pack] = _packs(tmp_path)
        assert pack.read_bytes().count(b"\n") == 2  # the key line and one entry
        forget_pack_indexes()
        fresh = EvaluationCache(tmp_path)
        assert fresh.load("ab" * 32) == rows
        assert fresh.corrupt == 0

    def test_malformed_payload_is_quarantined(self, tmp_path):
        # A pack whose checksums hold but whose body is not a list of
        # rows: the decoder must reject it and delete the pack.
        class RawCache(EvaluationCache):
            def _encode(self, result):
                return result

        RawCache(tmp_path).store("cd" * 32, {"a": 1})
        [path] = _packs(tmp_path)
        cache = EvaluationCache(tmp_path)
        assert cache.load("cd" * 32) is None
        assert cache.corrupt == 1
        assert not path.exists()


def _signature(rows):
    """Every row's keys in order, with each value's exact type and repr."""
    return [[(key, type(value), repr(value)) for key, value in row.items()]
            for row in rows]


_NAN = float("nan")

#: Blocks whose cached form must reproduce every row exactly.
CODEC_BLOCKS = {
    "differing_shapes": [
        {"cell": "STT", "workload": "a", "reads": 1.5},
        {"workload": "b", "cell": "STT", "reads": 2.5},
        {"cell": "STT", "workload": "c", "reads": 3.5, "extra": "x"},
        {"cell": "STT", "workload": "d", "reads": 4.5},
    ],
    "float_zeros": [
        {"z": 0.0, "n": -0.0, "same": 0.0},
        {"z": -0.0, "n": -0.0, "same": 0.0},
    ],
    "one_int_float_bool_column": [
        {"k": "x", "v": 1}, {"k": "x", "v": 1.0}, {"k": "x", "v": True},
    ],
    "none": [{"v": None, "w": None}, {"v": None, "w": 1}],
    "nan_and_inf": [
        {"n": _NAN, "i": float("inf"), "m": float("-inf")},
        {"n": _NAN, "i": float("inf"), "m": float("-inf")},
    ],
    "nested": [
        {"k": "x", "nested": {"value": 1}, "tags": ["a"]},
        {"k": "x", "nested": {"value": 1}, "tags": ["a"]},
    ],
    "empty": [],
    "one_row": [{"cell": "STT", "reads": 1e8, "ok": False, "n": 3, "none": None}],
}


class TestRowCodec:
    @pytest.mark.parametrize("name", sorted(CODEC_BLOCKS))
    def test_roundtrip_keeps_order_type_and_repr(self, name, tmp_path,
                                                 forget_pack_indexes):
        rows = CODEC_BLOCKS[name]
        EvaluationCache(tmp_path).store("ab" * 32, rows)
        forget_pack_indexes()
        loaded = EvaluationCache(tmp_path).load("ab" * 32)
        assert _signature(loaded) == _signature(rows)

    def test_real_block_roundtrips_and_shares_the_array_half(self, stt_array_1mb):
        [rows] = evaluation_rows([stt_array_1mb], _traffic_pair())
        payload = json.loads(json.dumps(encode_block(rows)))
        assert _signature(decode_block(payload)) == _signature(rows)
        assert len(payload["shapes"]) == 1
        assert {"cell", "capacity_mb", "read_latency_ns"} <= set(payload["shared"])
        assert "workload" not in payload["shared"]

    def test_zeros_nans_and_nested_values_are_never_shared(self):
        payload = encode_block(CODEC_BLOCKS["float_zeros"] + [{"z": 0.0, "n": 0.0, "same": 0.0}])
        assert payload["shared"] == {}
        assert set(encode_block(CODEC_BLOCKS["nan_and_inf"])["shared"]) == {"i", "m"}
        assert set(encode_block(CODEC_BLOCKS["nested"])["shared"]) == {"k"}
        assert encode_block(CODEC_BLOCKS["one_int_float_bool_column"])["shared"] == {"k": "x"}

    def test_decoded_rows_are_distinct_dicts(self):
        payload = json.loads(json.dumps(encode_block(CODEC_BLOCKS["nested"])))
        first, second = decode_block(payload)
        first["k"] = "changed"
        assert second["k"] == "x"
        assert first["nested"] is not second["nested"]

    def test_v2_pack_is_a_miss_not_corruption(self, tmp_path, stt_array_1mb,
                                              write_pack):
        # A pack the previous format wrote: a list of row objects under
        # another key.  It is an ordinary miss, and fsck finds it clean
        # and removes it as stale.
        store = tmp_path / "evaluations"
        [rows] = evaluation_rows([stt_array_1mb], _traffic_pair())
        write_pack(store, "eval-rows-v2", [("ab" * 32, rows)])
        cache = EvaluationCache(store)
        assert cache.load("ab" * 32) is None
        assert cache.corrupt == 0
        [report] = fsck_cache_dir(store)
        assert (report.clean, report.corrupt, report.stale) == (True, 0, 1)
        assert _packs(store) == []

    @pytest.mark.parametrize("body", [
        {"shapes": [["a"]], "shared": {}, "rows": [[1, 5]]},
        {"shapes": [["a"]], "shared": {}, "rows": [[-1, 5]]},
        {"shapes": [["a"]], "shared": {}, "rows": [[True, 5]]},
        {"shapes": [["a", "b"]], "shared": {}, "rows": [[0, 5]]},
        {"shapes": [["a"]], "shared": {}, "rows": [[0, 5, 6]]},
        {"shapes": [["a"]], "shared": [], "rows": [[0, 5]]},
        {"shapes": [["a"]], "shared": {"a": [5]}, "rows": [[0]]},
        {"shapes": [["a", "a"]], "shared": {}, "rows": [[0, 5, 6]]},
        {"shapes": [["a"]], "rows": [[0, 5]]},
        [{"a": 5}],
    ], ids=["index_past_end", "negative_index", "bool_index", "short_row",
            "long_row", "shared_not_object", "shared_not_atomic",
            "duplicate_key", "no_shared", "v2_body"])
    def test_malformed_body_is_quarantined(self, body, tmp_path,
                                           forget_pack_indexes):
        class RawCache(EvaluationCache):
            def _encode(self, result):
                return result

        RawCache(tmp_path).store("cd" * 32, body)
        [path] = _packs(tmp_path)
        forget_pack_indexes()
        cache = EvaluationCache(tmp_path)
        assert cache.load("cd" * 32) is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_mixed_shape_studies_render_identically_warm(self, tmp_path,
                                                         forget_pack_indexes):
        from repro.config.cli import main

        only = ["--only", "fig11_bg_fefet,fig14_writebuffer",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(["summary", str(tmp_path / "cold"), *only]) == 0
        forget_pack_indexes()
        assert main(["summary", str(tmp_path / "warm"), *only, "--expect-warm"]) == 0
        cold = sorted((tmp_path / "cold" / "results").glob("*.csv"))
        assert [p.name for p in cold] == ["fig11_bg_fefet.csv", "fig14_writebuffer.csv"]
        for path in cold:
            warm = tmp_path / "warm" / "results" / path.name
            assert warm.read_bytes() == path.read_bytes(), path.name
        # Both studies store blocks whose rows differ in key set or order.
        shape_counts = []
        for pack in _packs(tmp_path / "cache" / "evaluations"):
            data = pack.read_bytes()
            for _, offset, length, _ in read_pack_index(pack)[1]:
                shape_counts.append(len(json.loads(data[offset:offset + length])["shapes"]))
        assert max(shape_counts) > 1


def _tagged_rows(array, traffic, extra):
    return [{"cell": array.cell.name, "workload": t.name, "tag": extra}
            for t in traffic]


def _nested_rows(array, traffic, extra):
    return [{"workload": t.name, "nested": {"value": 1}, "tags": ["a"]}
            for t in traffic]


def _mixed_rows(array, traffic, extra):
    return [{"workload": "flat", "value": 1.5, "ok": True, "note": None},
            {"workload": "nested", "nested": {"value": 1}, "tags": ["a"]}]


def _tagged_blocks(arrays, traffic, extra):
    for array in arrays:
        yield _tagged_rows(array, traffic, extra)


def _nested_blocks(arrays, traffic, extra):
    for array in arrays:
        yield _nested_rows(array, traffic, extra)


def _mixed_blocks(arrays, traffic, extra):
    for array in arrays:
        yield _mixed_rows(array, traffic, extra)


def _rows_until_interrupt(arrays, traffic, extra):
    """Rows of each block, until the block whose capacity is ``extra``."""
    for array in arrays:
        if array.capacity_bytes == extra:
            raise KeyboardInterrupt
        yield _tagged_rows(array, traffic, extra)


class TestEvaluateBlocks:
    def arrays(self, stt_array_1mb):
        return [stt_array_1mb]

    def test_interrupted_call_keeps_finished_blocks(
            self, tmp_path, stt_optimistic, forget_pack_indexes):
        arrays = characterize_points(
            [make_point(stt_optimistic, capacity=mb(c)) for c in (1, 2, 4, 8)])
        traffic = _traffic_pair()
        interrupted_at = 2
        extra = arrays[interrupted_at].capacity_bytes
        with pytest.raises(KeyboardInterrupt):
            evaluate_blocks(arrays, traffic, rows_fn=_rows_until_interrupt,
                            extra=extra, cache=EvaluationCache(tmp_path))
        assert list(tmp_path.rglob("*.tmp.*")) == []
        forget_pack_indexes()
        fresh = EvaluationCache(tmp_path)
        context = evaluation_context(
            traffic, rows_fn_id=rows_fn_id(_rows_until_interrupt), extra=extra)
        loaded = [fresh.load(evaluation_fingerprint(array, context))
                  for array in arrays]
        assert loaded[:interrupted_at] == [
            _tagged_rows(array, traffic, extra) for array in arrays[:interrupted_at]
        ]
        assert loaded[interrupted_at:] == [None, None]
        assert fresh.corrupt == 0

    def test_duplicate_blocks_coalesced(self, stt_array_1mb):
        telemetry = SweepTelemetry()
        blocks = evaluate_blocks(
            [stt_array_1mb, stt_array_1mb], _traffic_pair(), progress=telemetry.emit
        )
        assert blocks[0] == blocks[1]
        assert telemetry.evaluated == 1
        assert telemetry.eval_cached == 1
        # The duplicate is the caller's own copy, down to its rows.
        blocks[0][0]["annotation"] = "mutated"
        blocks[0].append({})
        assert "annotation" not in blocks[1][0]
        assert len(blocks[1]) == len(_traffic_pair())

    def test_disk_cache_warm_rerun(self, tmp_path, stt_array_1mb):
        cache = EvaluationCache(tmp_path)
        traffic = _traffic_pair()
        cold = evaluate_blocks([stt_array_1mb], traffic, cache=cache)
        assert len(_stored_fingerprints(tmp_path)) == 1
        telemetry = SweepTelemetry()
        warm = evaluate_blocks(
            [stt_array_1mb], traffic, cache=cache, progress=telemetry.emit)
        assert telemetry.evaluated == 0
        assert telemetry.eval_cached == 1
        assert warm == cold

    def test_returned_rows_are_copies(self, tmp_path, stt_array_1mb):
        cache = EvaluationCache(tmp_path)
        traffic = _traffic_pair()
        first = evaluate_blocks([stt_array_1mb], traffic, cache=cache)
        first[0][0]["annotation"] = "mutated"
        telemetry = SweepTelemetry()
        second = evaluate_blocks([stt_array_1mb], traffic, cache=cache,
                                 progress=telemetry.emit)
        assert (telemetry.eval_cached, telemetry.evaluated) == (1, 0)
        assert "annotation" not in second[0][0]

    def test_returned_rows_are_deep_copies(self, tmp_path, stt_array_1mb):
        """Mutating *nested* values of a returned row must not corrupt
        the persisted cache block."""
        cache = EvaluationCache(tmp_path)
        traffic = _traffic_pair()
        first = evaluate_blocks([stt_array_1mb], traffic, cache=cache,
                                rows_fn=_nested_blocks)
        first[0][0]["nested"]["value"] = 999
        first[0][0]["tags"].append("mutated")
        telemetry = SweepTelemetry()
        second = evaluate_blocks([stt_array_1mb], traffic, cache=cache,
                                 rows_fn=_nested_blocks, progress=telemetry.emit)
        assert (telemetry.eval_cached, telemetry.evaluated) == (1, 0)
        assert second[0][0]["nested"] == {"value": 1}
        assert second[0][0]["tags"] == ["a"]

    def test_flat_rows_are_fresh_dicts(self, tmp_path, stt_array_1mb):
        """A disk hit rebuilds flat rows as new plain dicts, equal to
        the fresh rows but sharing no object with them."""
        cache = EvaluationCache(tmp_path)
        traffic = _traffic_pair()
        fresh = evaluate_blocks([stt_array_1mb], traffic, cache=cache)
        telemetry = SweepTelemetry()
        disk_hit = evaluate_blocks([stt_array_1mb], traffic, cache=cache,
                                   progress=telemetry.emit)
        assert len(_stored_fingerprints(tmp_path)) == 1
        assert (telemetry.eval_cached, telemetry.evaluated) == (1, 0)
        assert disk_hit == fresh
        assert disk_hit[0] is not fresh[0]
        for row, fresh_row in zip(disk_hit[0], fresh[0]):
            assert type(row) is dict
            assert row is not fresh_row

    def test_mixed_block_isolates_nested_values(self, tmp_path,
                                                stt_array_1mb):
        """One block holding a flat and a nested row: annotating either
        returned row leaves the persisted block untouched."""
        cache = EvaluationCache(tmp_path)
        traffic = _traffic_pair()
        first = evaluate_blocks([stt_array_1mb], traffic, cache=cache,
                                rows_fn=_mixed_blocks)
        flat, nested = first[0]
        flat["value"] = -1.0
        nested["nested"]["value"] = 999
        nested["tags"].append("mutated")
        telemetry = SweepTelemetry()
        again = evaluate_blocks([stt_array_1mb], traffic, cache=cache,
                                rows_fn=_mixed_blocks, progress=telemetry.emit)
        assert (telemetry.eval_cached, telemetry.evaluated) == (1, 0)
        assert again[0] == _mixed_rows(None, traffic, None)

    def test_custom_rows_fn_and_extra_key_separately(self, tmp_path,
                                                     stt_array_1mb):
        cache = EvaluationCache(tmp_path)
        traffic = _traffic_pair()
        a = evaluate_blocks([stt_array_1mb], traffic, cache=cache,
                            rows_fn=_tagged_blocks, extra="a")
        b = evaluate_blocks([stt_array_1mb], traffic, cache=cache,
                            rows_fn=_tagged_blocks, extra="b")
        assert a[0][0]["tag"] == "a"
        assert b[0][0]["tag"] == "b"
        # Different extras never share an entry.
        assert len(set(_stored_fingerprints(tmp_path))) == 2


class TestCachedWork:
    """The executor's one cache discipline, with and without a store."""

    def test_no_store_computes_no_fingerprint(self, monkeypatch, stt_optimistic,
                                              stt_array_1mb):
        def boom(*args, **kwargs):
            raise AssertionError("fingerprint computed without a store")

        for name in ("evaluation_context", "evaluation_fingerprint",
                     "trace_fingerprint"):
            monkeypatch.setattr(executor, name, boom)
        monkeypatch.setattr(SweepPoint, "fingerprint", boom)
        [array] = characterize_points([make_point(stt_optimistic)])
        assert array == stt_array_1mb
        [rows] = evaluate_blocks([stt_array_1mb], _traffic_pair())
        assert len(rows) == 2
        workload = WorkloadModel("w", working_set_bytes=mb(1), write_fraction=0.2)
        [trace] = executor.simulate_traces([workload], n_accesses=2_000, seed=1)
        assert trace.name == "w"

    def test_equal_items_are_computed_once_without_a_store(self, stt_optimistic,
                                                           stt_array_1mb):
        twin = ArrayCharacterization.from_dict(stt_array_1mb.to_dict())
        assert twin is not stt_array_1mb and twin == stt_array_1mb
        events = []
        blocks = evaluate_blocks([stt_array_1mb, twin], _traffic_pair(),
                                 progress=events.append)
        assert [e.kind for e in events] == ["completed", "cached"]
        assert events[1].describe().endswith("[memory]")
        assert blocks[0] == blocks[1] and blocks[0] is not blocks[1]

        telemetry = SweepTelemetry()
        first, second = characterize_points(
            [make_point(stt_optimistic), make_point(stt_optimistic)],
            progress=telemetry.emit)
        assert first is second
        assert (telemetry.completed, telemetry.cached) == (1, 1)

    def test_store_fingerprints_each_item_at_most_once(
            self, monkeypatch, tmp_path, stt_optimistic, stt_array_1mb,
            sram_array_1mb):
        counted = []

        def counting(fingerprint):
            def wrapper(*args, **kwargs):
                counted.append(fingerprint.__name__)
                return fingerprint(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(executor, "evaluation_fingerprint",
                            counting(executor.evaluation_fingerprint))
        monkeypatch.setattr(SweepPoint, "fingerprint",
                            counting(SweepPoint.fingerprint))
        twin = ArrayCharacterization.from_dict(stt_array_1mb.to_dict())
        arrays = [stt_array_1mb, twin, sram_array_1mb]
        cache = EvaluationCache(tmp_path / "evaluations")
        for _ in range(2):  # cold, then warm
            counted.clear()
            evaluate_blocks(arrays, _traffic_pair(), cache=cache)
            assert counted == ["evaluation_fingerprint"] * len(arrays)
        points = [make_point(stt_optimistic)] * 2
        counted.clear()
        characterize_points(points, cache=CharacterizationCache(tmp_path / "arrays"))
        assert counted == ["fingerprint"] * len(points)

    def test_debug_log_lines_are_the_events(self, caplog, stt_array_1mb):
        events = []
        with caplog.at_level(logging.DEBUG, logger="repro.runtime"):
            evaluate_blocks([stt_array_1mb, stt_array_1mb], _traffic_pair(),
                            progress=events.append)
        assert len(events) == 2
        assert [r.getMessage() for r in caplog.records] == [
            e.describe() for e in events]
        assert {r.levelno for r in caplog.records} == {logging.DEBUG}

    def test_events_are_not_formatted_when_debug_is_off(self, caplog,
                                                        monkeypatch,
                                                        stt_array_1mb):
        described = []
        monkeypatch.setattr(ProgressEvent, "describe",
                            lambda event: described.append(event) or "")
        with caplog.at_level(logging.WARNING, logger="repro.runtime"):
            evaluate_blocks([stt_array_1mb], _traffic_pair())
        assert described == []


class TestRuntimeOptions:
    def test_defaults(self):
        options = RuntimeOptions()
        assert options.cache_dir is None
        assert DSEEngine(options).trace_cache is None
        assert options.seed_or(7) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeOptions(on_error="sometimes")
        for gone in ("workers", "retry", "point_shard_index", "point_shard_count",
                     "trace_cache_dir"):
            with pytest.raises(TypeError):
                RuntimeOptions(**{gone: 1})

    def test_trace_cache_defaults_under_cache_dir(self, tmp_path):
        engine = DSEEngine(RuntimeOptions(cache_dir=tmp_path))
        assert engine.trace_cache.root == tmp_path / "traces"

    def test_seed_override(self):
        assert RuntimeOptions(seed=42).seed_or(7) == 42

    def test_engine_construction(self, tmp_path):
        engine = DSEEngine(RuntimeOptions(cache_dir=tmp_path, on_error="skip"))
        assert not hasattr(engine, "workers")
        assert engine.runtime.on_error == "skip"
        assert engine.cache is not None
        assert engine.eval_cache is not None
        assert engine.cache.root == tmp_path / "arrays"
        assert engine.eval_cache.root == tmp_path / "evaluations"


def small_spec(cells, traffic=()):
    return SweepSpec(
        cells=cells,
        capacities_bytes=[mb(1), mb(2)],
        traffic=traffic,
        optimization_targets=(
            OptimizationTarget.READ_EDP,
            OptimizationTarget.AREA,
        ),
    )


class TestEngineRuntime:
    def test_sweep_points_match_engine_order(self, stt_optimistic, sram16):
        spec = small_spec([stt_optimistic, sram16])
        points = sweep_points(spec)
        assert len(points) == 8
        # SRAM points pick up the SRAM comparison node.
        assert {p.node_nm for p in points if p.cell is sram16} == {16}
        rows = DSEEngine().run(spec)
        assert [p.cell.name for p in points] == [r["cell"] for r in rows]

    def test_engine_shares_fingerprint_between_caches(self, tmp_path,
                                                      stt_optimistic):
        spec = small_spec([stt_optimistic])
        first = DSEEngine(RuntimeOptions(cache_dir=tmp_path))
        first.run(spec)
        assert set(_stored_fingerprints(tmp_path / "arrays")) == {
            point.fingerprint() for point in sweep_points(spec)
        }
        telemetry = SweepTelemetry()
        second = DSEEngine(RuntimeOptions(cache_dir=tmp_path, progress=telemetry.emit))
        second.run(spec)
        assert telemetry.completed == 0
        assert telemetry.cached == len(sweep_points(spec))

    def test_engine_skip_keeps_good_rows(self, stt_optimistic, sram16):
        # SRAM cannot store 2 bits/cell, so its point fails; STT's succeeds.
        spec = SweepSpec(
            cells=[stt_optimistic, sram16],
            capacities_bytes=[mb(1)],
            bits_per_cell=2,
            optimization_targets=(OptimizationTarget.READ_EDP,),
        )
        with pytest.raises(CharacterizationError):
            DSEEngine().run(spec)
        telemetry = SweepTelemetry()
        engine = DSEEngine(RuntimeOptions(on_error="skip", progress=telemetry.emit))
        table = engine.run(spec)
        assert len(table) == 1
        assert telemetry.failed == 1

    def test_study_logs_each_failed_point_once(self, caplog, stt_optimistic,
                                               sram16):
        # The study's telemetry forwards the engine's events: the one
        # failing SRAM point must still be logged exactly once.
        spec = SweepSpec(
            cells=[stt_optimistic, sram16],
            capacities_bytes=[mb(1)],
            bits_per_cell=2,
            optimization_targets=(OptimizationTarget.READ_EDP,),
        )
        study = StudySpec(
            name="one-failure", builder=lambda runtime: DSEEngine(runtime).run(spec),
            figure="n/a", description="one failing point",
        )
        with caplog.at_level(logging.WARNING, logger="repro.runtime"):
            outcome = study.run(RuntimeOptions(on_error="skip"))
        assert outcome.ok and outcome.telemetry.failed == 1
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "failed" in warnings[0].getMessage()

    def test_warm_rerun_skips_evaluation_blocks(self, tmp_path,
                                                stt_optimistic, sram16,
                                                simple_traffic):
        spec = small_spec([stt_optimistic, sram16], traffic=[simple_traffic])
        cold_telemetry, warm_telemetry = SweepTelemetry(), SweepTelemetry()
        cold_engine = DSEEngine(RuntimeOptions(cache_dir=tmp_path,
                                               progress=cold_telemetry.emit))
        cold = cold_engine.run(spec)
        assert cold_telemetry.evaluated == 8
        assert len(_stored_fingerprints(tmp_path / "evaluations")) == 8
        warm_engine = DSEEngine(RuntimeOptions(cache_dir=tmp_path,
                                               progress=warm_telemetry.emit))
        warm = warm_engine.run(spec)
        assert warm_telemetry.completed == 0
        assert warm_telemetry.evaluated == 0
        assert warm_telemetry.eval_cached == 8
        # Cross-run parity: cached rows identical to freshly evaluated ones.
        assert list(warm) == list(cold)

    def test_progress_callback_sees_every_point(self, stt_optimistic):
        events = []
        engine = DSEEngine(RuntimeOptions(progress=events.append))
        engine.run(small_spec([stt_optimistic]))
        assert len(events) == 4
        assert {e.kind for e in events} == {"completed"}

    def test_invalid_engine_options_rejected(self):
        # RuntimeOptions is the one way to configure an engine.
        for retired in ("cache_dir", "on_error", "progress"):
            with pytest.raises(TypeError):
                DSEEngine(**{retired: None})

    def test_second_engine_regenerates_no_traces(self, tmp_path):
        from repro.cachesim.llc import SYNTHETIC_SUITE

        def traces():
            telemetry = SweepTelemetry()
            runtime = RuntimeOptions(cache_dir=tmp_path, progress=telemetry.emit)
            return DSEEngine(runtime).llc_traces(SYNTHETIC_SUITE, 2_000, 1), telemetry

        cold, cold_telemetry = traces()
        assert cold_telemetry.trace_simulated == len(SYNTHETIC_SUITE)
        warm, warm_telemetry = traces()
        assert warm_telemetry.trace_simulated == 0
        assert warm_telemetry.trace_cached == len(SYNTHETIC_SUITE)
        assert warm == cold

    def test_corrupt_counters_count_every_quarantined_pack(
        self, tmp_path, stt_optimistic, simple_traffic, forget_pack_indexes
    ):
        """One re-read of a store's index may delete several damaged packs."""
        specs = [
            SweepSpec(cells=[stt_optimistic], capacities_bytes=[capacity],
                      traffic=[simple_traffic])
            for capacity in (mb(1), mb(2))
        ]
        for spec in specs:  # one pack per call and store
            DSEEngine(RuntimeOptions(cache_dir=tmp_path)).run(spec)
        damaged = {}
        for store in ("arrays", "evaluations"):
            packs = _packs(tmp_path / store)
            assert len(packs) == 2
            for pack in packs:
                pack.write_bytes(pack.read_bytes()[: pack.stat().st_size // 2])
                damaged[pack] = pack.read_bytes()
        forget_pack_indexes()  # a fresh process reads the damaged packs
        telemetry = SweepTelemetry()
        engine = DSEEngine(RuntimeOptions(cache_dir=tmp_path, progress=telemetry.emit))
        for spec in specs:
            engine.run(spec)

        assert telemetry.corrupt == telemetry.eval_corrupt == 2
        assert telemetry.completed == telemetry.evaluated == 2
        # Every damaged pack is gone: deleted, or rewritten intact by the
        # recompute (a pack's name hashes its fingerprints).
        for pack, data in damaged.items():
            assert not pack.exists() or pack.read_bytes() != data
        assert all(r.clean and r.corrupt == 0 for r in fsck_cache_dir(tmp_path))


class TestConfigRuntime:
    def config(self, **runtime):
        return {
            "name": "rt",
            "cells": {"technologies": ["STT"], "flavors": ["optimistic"]},
            "system": {"capacities_mb": [1]},
            "runtime": runtime,
        }

    def test_runtime_section_parsed(self):
        parsed = parse_config(self.config(cache_dir="c", on_error="skip"))
        assert parsed.runtime.cache_dir == "c"
        assert parsed.runtime.on_error == "skip"

    def test_runtime_defaults(self):
        parsed = parse_config({
            "name": "rt",
            "cells": {"technologies": ["STT"], "flavors": ["optimistic"]},
            "system": {"capacities_mb": [1]},
        })
        assert parsed.runtime.cache_dir is None
        assert parsed.runtime.on_error == "raise"

    def test_bad_on_error_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(self.config(on_error="sometimes"))
