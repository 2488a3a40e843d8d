"""The sweep runtime: fingerprints, persistent cache, serial executor."""

import dataclasses
import hashlib
import json
import random
import re
import threading

import pytest

from repro.cells.export import cell_from_dict, cell_to_dict
from repro.config import parse_config
from repro.core.engine import DSEEngine, SweepSpec
from repro.core.metrics import evaluation_rows
from repro.errors import CharacterizationError, ConfigError
from repro.nvsim.result import ArrayCharacterization, OptimizationTarget
from repro.runtime import (
    CharacterizationCache,
    EvaluationCache,
    PointShard,
    RuntimeOptions,
    SweepPoint,
    SweepTelemetry,
    characterize_points,
    evaluate_blocks,
    evaluation_fingerprint,
    point_fingerprint,
    sweep_points,
)
from repro.runtime.executor import rows_fn_id
from repro.runtime.fsck import fsck_cache_dir
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

    def test_schema_tag_changes_the_key(self, stt_optimistic):
        point = make_point(stt_optimistic)
        assert (point.fingerprint(schema_tag="array-cache-v1")
                != point.fingerprint(schema_tag="array-cache-v2"))

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
        assert fp in cache
        assert cache.load(fp) == stt_array_1mb
        assert cache.stats() == {
            "hits": 1, "misses": 1, "stores": 1, "corrupt": 0, "quarantined": 0,
        }

    def test_schema_tag_bump_invalidates(self, tmp_path, stt_optimistic,
                                         stt_array_1mb):
        old = CharacterizationCache(tmp_path, schema_tag="array-cache-v1")
        fp = make_point(stt_optimistic).fingerprint()
        old.store(fp, stt_array_1mb)
        bumped = CharacterizationCache(tmp_path, schema_tag="array-cache-v2")
        # Same path would be unreachable anyway (the tag is hashed into real
        # fingerprints); even a forced lookup of the old key must miss.
        assert bumped.load(fp) is None
        assert bumped.misses == 1

    @pytest.mark.parametrize(
        "garbage", ["{not json", "null", "[1, 2]", '"a string"'],
        ids=["truncated", "null", "list", "string"],
    )
    def test_corrupt_entry_is_quarantined(self, tmp_path, stt_optimistic,
                                          stt_array_1mb, garbage):
        cache = CharacterizationCache(tmp_path)
        fp = make_point(stt_optimistic).fingerprint()
        cache.store(fp, stt_array_1mb)
        cache.path_for(fp).write_text(garbage)
        assert cache.load(fp) is None
        # Corruption is an infrastructure fault, not an ordinary miss:
        # counted separately, and the damaged file is preserved aside.
        assert cache.corrupt == 1
        assert cache.misses == 0
        assert not cache.path_for(fp).exists()
        quarantined = cache.quarantine_dir() / cache.path_for(fp).name
        assert quarantined.read_text() == garbage
        # The next store re-materializes the entry at the original path.
        cache.store(fp, stt_array_1mb)
        assert cache.load(fp) == stt_array_1mb

    def test_checksum_mismatch_is_quarantined(self, tmp_path, stt_optimistic,
                                              stt_array_1mb):
        cache = CharacterizationCache(tmp_path)
        fp = make_point(stt_optimistic).fingerprint()
        cache.store(fp, stt_array_1mb)
        path = cache.path_for(fp)
        data = bytearray(path.read_bytes())
        # Flip one byte of the body: its last digit becomes another digit,
        # so the body is still valid JSON and only the checksum catches it.
        body_start = data.index(b"\n") + 1
        digit = max(i for i in range(body_start, len(data)) if chr(data[i]).isdigit())
        data[digit] ^= 0x01
        path.write_bytes(bytes(data))
        assert json.loads(data[body_start:]) != stt_array_1mb.to_dict()
        assert cache.load(fp) is None
        assert cache.corrupt == 1
        assert (cache.quarantine_dir() / path.name).exists()

    def test_pre_v2_entry_is_an_ordinary_miss(
            self, tmp_path, stt_optimistic, stt_array_1mb):
        cache = CharacterizationCache(tmp_path)
        fp = make_point(stt_optimistic).fingerprint()
        legacy = tmp_path / fp[:2] / f"{fp}.json"
        legacy.parent.mkdir(parents=True)
        legacy.write_text(json.dumps({
            "schema": cache.schema_tag, "fingerprint": fp,
            "result": stt_array_1mb.to_dict(),
        }))
        assert cache.load(fp) is None
        assert cache.misses == 1
        assert cache.corrupt == 0
        assert legacy.exists()
        assert not cache.quarantine_dir().exists()
        [report] = fsck_cache_dir(tmp_path)
        assert report.clean
        assert report.legacy == 1
        assert legacy.exists()

    def test_entry_checksum_covers_the_stored_body(
            self, tmp_path, stt_optimistic, stt_array_1mb):
        cache = CharacterizationCache(tmp_path)
        fp = make_point(stt_optimistic).fingerprint()
        cache.store(fp, stt_array_1mb)
        data = cache.path_for(fp).read_bytes()
        head, body = data.split(b"\n", 1)
        header = json.loads(head)
        assert header == {
            "schema": cache.schema_tag,
            "fingerprint": fp,
            "checksum": hashlib.sha256(body).hexdigest(),
        }
        assert json.loads(body) == stt_array_1mb.to_dict()

    def test_clear_and_len(self, tmp_path, stt_optimistic, stt_array_1mb):
        cache = CharacterizationCache(tmp_path)
        fp = make_point(stt_optimistic).fingerprint()
        cache.store(fp, stt_array_1mb)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_store_leaves_no_tmp_files(self, tmp_path, stt_optimistic,
                                       stt_array_1mb):
        cache = CharacterizationCache(tmp_path)
        fp = make_point(stt_optimistic).fingerprint()
        for _ in range(3):
            cache.store(fp, stt_array_1mb)
        assert list(tmp_path.rglob("*.tmp.*")) == []

    def test_clear_sweeps_stale_tmp_files(self, tmp_path, stt_optimistic,
                                          stt_array_1mb):
        cache = CharacterizationCache(tmp_path)
        fp = make_point(stt_optimistic).fingerprint()
        cache.store(fp, stt_array_1mb)
        # A run that died between write and rename leaves a tmp file
        # behind; so could the pre-fix naming scheme (no thread/counter).
        path = cache.path_for(fp)
        (path.parent / f"{path.name}.tmp.12345.1.0").write_text("{}")
        (path.parent / f"{path.stem}.tmp.12345").write_text("{}")
        assert cache.clear() == 1  # tmp files never count as entries
        assert list(tmp_path.rglob("*.tmp*")) == []
        assert len(cache) == 0

    def test_tmp_files_invisible_to_entry_iteration(self, tmp_path,
                                                    stt_optimistic,
                                                    stt_array_1mb):
        cache = CharacterizationCache(tmp_path)
        fp = make_point(stt_optimistic).fingerprint()
        cache.store(fp, stt_array_1mb)
        path = cache.path_for(fp)
        (path.parent / f"{path.name}.tmp.999.1.0").write_text("junk")
        assert list(cache.fingerprints()) == [fp]
        assert len(cache) == 1

    def test_concurrent_stores_of_same_fingerprint(self, tmp_path,
                                                   stt_optimistic,
                                                   stt_array_1mb):
        """Two threads storing one fingerprint must not collide on a
        shared tmp name (the pre-fix scheme used only the pid)."""
        cache = CharacterizationCache(tmp_path)
        fp = make_point(stt_optimistic).fingerprint()
        errors = []

        def hammer():
            try:
                for _ in range(25):
                    cache.store(fp, stt_array_1mb)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert cache.load(fp) == stt_array_1mb
        assert list(tmp_path.rglob("*.tmp.*")) == []


class TestExecutor:
    def test_memory_cache_shared_and_duplicates_coalesced(self, stt_optimistic):
        telemetry = SweepTelemetry()
        memory = {}
        point = make_point(stt_optimistic)
        results = characterize_points(
            [point, point], memory=memory, telemetry=telemetry
        )
        assert results[0] == results[1]
        assert telemetry.completed == 1
        assert telemetry.cached == 1
        assert len(memory) == 1

    def test_disk_cache_hit_on_rerun(self, tmp_path, stt_optimistic):
        cache = CharacterizationCache(tmp_path)
        point = make_point(stt_optimistic)
        characterize_points([point], cache=cache)
        assert cache.stores == 1
        telemetry = SweepTelemetry()
        rerun = characterize_points([point], cache=cache, telemetry=telemetry)
        assert telemetry.completed == 0
        assert telemetry.cached == 1
        assert rerun[0] is not None

    def test_on_error_raise(self, stt_optimistic):
        bad = make_point(stt_optimistic, capacity=4096,
                         access_bits=INFEASIBLE_ACCESS_BITS)
        with pytest.raises(CharacterizationError):
            characterize_points([bad], on_error="raise")

    def test_on_error_skip_reports_and_continues(self, stt_optimistic):
        good = make_point(stt_optimistic)
        bad = make_point(stt_optimistic, capacity=4096,
                         access_bits=INFEASIBLE_ACCESS_BITS)
        telemetry = SweepTelemetry()
        results = characterize_points(
            [bad, good], on_error="skip", telemetry=telemetry
        )
        assert results[0] is None
        assert results[1] is not None
        assert telemetry.failed == 1
        assert telemetry.completed == 1
        assert "no feasible organization" in telemetry.failures[0].error

        # The failing point shares a batch group (cell, node, access width,
        # bits/cell) with two good ones: they still complete as a batch.
        wide = 2 ** 16  # feasible at 1 and 2 MB, infeasible at 4 KB
        group = [make_point(stt_optimistic, capacity=capacity, access_bits=wide)
                 for capacity in (mb(1), 4096, mb(2))]
        events = []
        telemetry = SweepTelemetry(events.append)
        results = characterize_points(group, on_error="skip", telemetry=telemetry)
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
        assert telemetry.failed == 1
        assert telemetry.completed == 2
        assert telemetry.batched == 2
        assert [e.source for e in events if e.kind == "completed"] == ["batch"] * 2
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
            [make_point(stt_optimistic)], telemetry=telemetry
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
        characterize_points([point], cache=cache, telemetry=telemetry)
        assert telemetry.cached == 1
        assert telemetry.characterize_wall_s == 0.0

    def test_duration_in_event_and_describe(self, stt_optimistic):
        events = []
        telemetry = SweepTelemetry(events.append)
        characterize_points([make_point(stt_optimistic)], telemetry=telemetry)
        (event,) = events
        assert event.duration_s > 0
        assert event.to_dict()["duration_s"] == event.duration_s
        assert f"({event.duration_s:.3f}s)" in event.describe()


def _traffic_pair():
    return (
        TrafficPattern("read-heavy", reads_per_second=1e8, writes_per_second=1e6),
        TrafficPattern("write-heavy", reads_per_second=1e6, writes_per_second=1e7),
    )


class TestEvaluationFingerprint:
    def test_traffic_and_array_and_extra_change_the_key(self, stt_array_1mb):
        traffic = _traffic_pair()
        fn = rows_fn_id(evaluation_rows)
        base = evaluation_fingerprint(stt_array_1mb, traffic, rows_fn_id=fn)
        assert base != evaluation_fingerprint(
            stt_array_1mb, traffic[:1], rows_fn_id=fn)
        assert base != evaluation_fingerprint(
            stt_array_1mb, traffic, rows_fn_id=fn, extra=[1])
        assert base != evaluation_fingerprint(
            stt_array_1mb, traffic, rows_fn_id="other:fn")
        assert base != evaluation_fingerprint(
            stt_array_1mb, traffic, rows_fn_id=fn, schema_tag="eval-rows-v99")

    def test_deterministic_across_reconstruction(self, stt_array_1mb):
        rebuilt = ArrayCharacterization.from_dict(stt_array_1mb.to_dict())
        traffic = _traffic_pair()
        fn = rows_fn_id(evaluation_rows)
        assert (evaluation_fingerprint(stt_array_1mb, traffic, rows_fn_id=fn)
                == evaluation_fingerprint(rebuilt, traffic, rows_fn_id=fn))


class TestEvaluationCache:
    def rows(self, stt_array_1mb):
        return evaluation_rows(stt_array_1mb, _traffic_pair())

    def test_miss_then_hit_roundtrips_rows(self, tmp_path, stt_array_1mb):
        cache = EvaluationCache(tmp_path)
        rows = self.rows(stt_array_1mb)
        fp = evaluation_fingerprint(
            stt_array_1mb, _traffic_pair(), rows_fn_id=rows_fn_id(evaluation_rows))
        assert cache.load(fp) is None
        cache.store(fp, rows)
        assert cache.load(fp) == rows  # exact cross-run parity, incl. floats
        assert cache.stats() == {
            "hits": 1, "misses": 1, "stores": 1, "corrupt": 0, "quarantined": 0,
        }

    def test_schema_tag_bump_invalidates(self, tmp_path, stt_array_1mb):
        rows = self.rows(stt_array_1mb)
        EvaluationCache(tmp_path, schema_tag="eval-rows-v1").store("ab" * 32, rows)
        bumped = EvaluationCache(tmp_path, schema_tag="eval-rows-v2")
        assert bumped.load("ab" * 32) is None

    def test_row_key_order_survives_the_roundtrip(self, tmp_path):
        # CSV column order is taken from row insertion order, so cached
        # rows must preserve it to reproduce fresh CSVs byte-for-byte.
        cache = EvaluationCache(tmp_path)
        rows = [{"zeta": 1, "alpha": 2, "mid": 3}]
        cache.store("ef" * 32, rows)
        loaded = cache.load("ef" * 32)
        assert [list(r) for r in loaded] == [["zeta", "alpha", "mid"]]

    def test_malformed_payload_is_quarantined(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        cache.store("cd" * 32, [{"a": 1}])
        # Corrupt the payload into a non-list: load must reject and
        # quarantine the entry (checksum no longer matches either).
        path = cache.path_for("cd" * 32)
        text = path.read_text().replace('[{"a": 1}]', '{"a": 1}')
        path.write_text(text)
        assert cache.load("cd" * 32) is None
        assert cache.corrupt == 1
        assert not path.exists()


def _tagged_rows(array, traffic, extra):
    return [{"cell": array.cell.name, "workload": t.name, "tag": extra}
            for t in traffic]


def _nested_rows(array, traffic, extra):
    return [{"workload": t.name, "nested": {"value": 1}, "tags": ["a"]}
            for t in traffic]


def _mixed_rows(array, traffic, extra):
    return [{"workload": "flat", "value": 1.5, "ok": True, "note": None},
            {"workload": "nested", "nested": {"value": 1}, "tags": ["a"]}]


class TestEvaluateBlocks:
    def arrays(self, stt_array_1mb):
        return [stt_array_1mb]

    def test_duplicate_blocks_coalesced(self, stt_array_1mb):
        telemetry = SweepTelemetry()
        blocks = evaluate_blocks(
            [stt_array_1mb, stt_array_1mb], _traffic_pair(), telemetry=telemetry
        )
        assert blocks[0] == blocks[1]
        assert telemetry.evaluated == 1
        assert telemetry.eval_cached == 1

    def test_disk_cache_warm_rerun(self, tmp_path, stt_array_1mb):
        cache = EvaluationCache(tmp_path)
        traffic = _traffic_pair()
        cold = evaluate_blocks([stt_array_1mb], traffic, cache=cache)
        assert cache.stores == 1
        telemetry = SweepTelemetry()
        warm = evaluate_blocks(
            [stt_array_1mb], traffic, cache=cache, telemetry=telemetry)
        assert telemetry.evaluated == 0
        assert telemetry.eval_cached == 1
        assert warm == cold

    def test_returned_rows_are_copies(self, stt_array_1mb):
        memory = {}
        traffic = _traffic_pair()
        first = evaluate_blocks([stt_array_1mb], traffic, memory=memory)
        first[0][0]["annotation"] = "mutated"
        second = evaluate_blocks([stt_array_1mb], traffic, memory=memory)
        assert "annotation" not in second[0][0]

    def test_returned_rows_are_deep_copies(self, tmp_path, stt_array_1mb):
        """Regression: mutating *nested* values of a returned row must not
        corrupt the in-memory memo or the persisted cache block (the old
        shallow per-row dict() copy aliased nested lists/dicts)."""
        cache = EvaluationCache(tmp_path)
        memory = {}
        traffic = _traffic_pair()
        first = evaluate_blocks([stt_array_1mb], traffic, memory=memory,
                                cache=cache, rows_fn=_nested_rows)
        first[0][0]["nested"]["value"] = 999
        first[0][0]["tags"].append("mutated")
        # Served from the in-memory memo: nested values untouched.
        second = evaluate_blocks([stt_array_1mb], traffic, memory=memory,
                                 cache=cache, rows_fn=_nested_rows)
        assert second[0][0]["nested"] == {"value": 1}
        assert second[0][0]["tags"] == ["a"]
        # Served from the on-disk cache (fresh memo): also untouched.
        third = evaluate_blocks([stt_array_1mb], traffic, cache=cache,
                                rows_fn=_nested_rows)
        assert third[0][0]["nested"] == {"value": 1}
        assert third[0][0]["tags"] == ["a"]

    def test_flat_rows_are_fresh_dicts(self, tmp_path, stt_array_1mb):
        """Flat rows take the dict() fast path: equal to the memo's rows
        but never the memo's own objects, on fresh, memory and disk hits."""
        cache = EvaluationCache(tmp_path)
        traffic = _traffic_pair()
        memory = {}
        fresh = evaluate_blocks([stt_array_1mb], traffic, memory=memory,
                                cache=cache)
        memory_hit = evaluate_blocks([stt_array_1mb], traffic, memory=memory,
                                     cache=cache)
        disk_memory = {}
        disk_hit = evaluate_blocks([stt_array_1mb], traffic,
                                   memory=disk_memory, cache=cache)
        assert cache.stores == 1 and cache.hits == 1
        for returned, memo in ((fresh, memory), (memory_hit, memory),
                               (disk_hit, disk_memory)):
            (memo_rows,) = memo.values()
            assert returned[0] == memo_rows
            assert returned[0] is not memo_rows
            for row, memo_row in zip(returned[0], memo_rows):
                assert type(row) is dict
                assert row is not memo_row
        assert all(a is not b for a, b in zip(fresh[0], memory_hit[0]))

    def test_mixed_block_isolates_nested_values(self, tmp_path,
                                                stt_array_1mb):
        """One block holding a flat and a nested row: annotating either
        returned row leaves the memo and the persisted block untouched."""
        cache = EvaluationCache(tmp_path)
        memory = {}
        traffic = _traffic_pair()
        first = evaluate_blocks([stt_array_1mb], traffic, memory=memory,
                                cache=cache, rows_fn=_mixed_rows)
        flat, nested = first[0]
        flat["value"] = -1.0
        nested["nested"]["value"] = 999
        nested["tags"].append("mutated")
        for memo in (memory, None):
            again = evaluate_blocks([stt_array_1mb], traffic, memory=memo,
                                    cache=cache, rows_fn=_mixed_rows)
            assert again[0] == _mixed_rows(None, traffic, None)

    def test_custom_rows_fn_and_extra_key_separately(self, tmp_path,
                                                     stt_array_1mb):
        cache = EvaluationCache(tmp_path)
        traffic = _traffic_pair()
        a = evaluate_blocks([stt_array_1mb], traffic, cache=cache,
                            rows_fn=_tagged_rows, extra="a")
        b = evaluate_blocks([stt_array_1mb], traffic, cache=cache,
                            rows_fn=_tagged_rows, extra="b")
        assert a[0][0]["tag"] == "a"
        assert b[0][0]["tag"] == "b"
        assert cache.stores == 2  # different extras never share an entry


class TestPointSharding:
    """Intra-study point sharding through the executor and the engine."""

    def points(self, stt_optimistic, sram16):
        return [
            make_point(cell, capacity=cap, target=target)
            for cell in (stt_optimistic, sram16)
            for cap in (mb(1), mb(2))
            for target in (OptimizationTarget.READ_EDP, OptimizationTarget.AREA)
        ]

    @pytest.mark.parametrize("shard_count", [1, 2, 3, 4])
    def test_every_point_on_exactly_one_shard(self, stt_optimistic, sram16,
                                              shard_count):
        points = self.points(stt_optimistic, sram16)
        memory = {}
        per_shard = [
            characterize_points(
                points, memory=memory,
                point_shard=PointShard(i, shard_count),
            )
            for i in range(shard_count)
        ]
        for index in range(len(points)):
            owners = [i for i in range(shard_count)
                      if per_shard[i][index] is not None]
            assert len(owners) == 1, f"point {index} owned by {owners}"
        full = characterize_points(points, memory=memory)
        for index in range(len(points)):
            owned = next(r[index] for r in per_shard if r[index] is not None)
            assert owned == full[index]

    def test_assignment_stable_under_point_reordering(self, stt_optimistic,
                                                      sram16):
        points = self.points(stt_optimistic, sram16)
        memory = {}

        def selected_labels(ordered):
            telemetry = SweepTelemetry()
            characterize_points(ordered, memory=memory, telemetry=telemetry,
                                point_shard=PointShard(0, 3))
            return telemetry.selected_points

        reference = selected_labels(points)
        shuffled = list(points)
        random.Random(7).shuffle(shuffled)
        assert selected_labels(shuffled) == reference

    def test_skipped_points_recorded_in_telemetry(self, stt_optimistic, sram16):
        points = self.points(stt_optimistic, sram16)
        telemetry = SweepTelemetry()
        results = characterize_points(points, telemetry=telemetry,
                                      point_shard=PointShard(0, 2))
        produced = sum(1 for r in results if r is not None)
        assert telemetry.skipped == len(points) - produced
        assert len(telemetry.planned_points) == len(points)
        assert len(telemetry.selected_points) == produced
        assert telemetry.completed_points == telemetry.selected_points
        assert telemetry.planned_points == {p.fingerprint() for p in points}
        counters = telemetry.counters()
        assert counters["skipped"] == telemetry.skipped

    def test_whole_space_selector_is_a_noop(self, stt_optimistic):
        points = [make_point(stt_optimistic)]
        telemetry = SweepTelemetry()
        results = characterize_points(points, telemetry=telemetry,
                                      point_shard=PointShard(0, 1))
        assert results[0] is not None
        assert telemetry.skipped == 0
        assert telemetry.planned_points == set()  # no accounting overhead

    def test_evaluate_blocks_point_shard(self, stt_optimistic, sram16):
        arrays = [
            SweepPoint(cell, mb(1), 22, OptimizationTarget.READ_EDP).characterize()
            for cell in (stt_optimistic, sram16)
        ]
        traffic = _traffic_pair()
        full = evaluate_blocks(arrays, traffic)
        telemetry = SweepTelemetry()
        shards = [
            evaluate_blocks(arrays, traffic, telemetry=telemetry,
                            point_shard=PointShard(i, 2))
            for i in range(2)
        ]
        for index in range(len(arrays)):
            owners = [i for i in range(2) if shards[i][index] is not None]
            assert len(owners) == 1
            assert shards[owners[0]][index] == full[index]
        assert telemetry.eval_skipped == len(arrays)

    def test_engine_shard_union_matches_full_run(self, stt_optimistic, sram16,
                                                 simple_traffic):
        spec = small_spec([stt_optimistic, sram16], traffic=[simple_traffic])
        full = DSEEngine().run(spec)
        shard_rows = []
        for i in range(3):
            engine = DSEEngine(point_shard=PointShard(i, 3))
            shard_rows.extend(list(engine.run(spec)))
        key = sorted(map(repr, shard_rows))
        assert key == sorted(map(repr, list(full)))

    def test_spec_point_shard_overrides_engine(self, stt_optimistic):
        spec = small_spec([stt_optimistic])
        n_points = len(sweep_points(spec))
        engine = DSEEngine(point_shard=PointShard(0, 2))
        sharded = dataclasses.replace(spec, point_shard=PointShard(0, 1))
        table = engine.run(sharded)
        assert len(table) == n_points  # spec's whole-space selector wins

    def test_from_options_carries_point_shard(self, tmp_path):
        engine = RuntimeOptions(point_shard_index=1,
                                point_shard_count=3).engine()
        assert engine.point_shard == PointShard(1, 3)
        assert RuntimeOptions().engine().point_shard is None


class TestRuntimeOptions:
    def test_defaults(self):
        options = RuntimeOptions()
        assert options.cache_dir is None
        assert options.effective_trace_cache_dir is None
        assert options.seed_or(7) == 7
        assert options.point_shard is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeOptions(on_error="sometimes")
        for gone in ("workers", "retry"):
            with pytest.raises(TypeError):
                RuntimeOptions(**{gone: 1})

    def test_point_shard_validation(self):
        with pytest.raises(ValueError):
            RuntimeOptions(point_shard_count=0)
        with pytest.raises(ValueError):
            RuntimeOptions(point_shard_index=2, point_shard_count=2)
        with pytest.raises(ValueError):
            RuntimeOptions(point_shard_index=-1, point_shard_count=2)
        options = RuntimeOptions(point_shard_index=1, point_shard_count=2)
        assert options.point_shard == PointShard(1, 2)

    def test_trace_cache_defaults_under_cache_dir(self, tmp_path):
        options = RuntimeOptions(cache_dir=tmp_path)
        assert options.effective_trace_cache_dir == tmp_path / "traces"
        override = RuntimeOptions(cache_dir=tmp_path,
                                  trace_cache_dir=tmp_path / "elsewhere")
        assert override.effective_trace_cache_dir == tmp_path / "elsewhere"

    def test_seed_override(self):
        assert RuntimeOptions(seed=42).seed_or(7) == 42

    def test_engine_construction(self, tmp_path):
        engine = RuntimeOptions(cache_dir=tmp_path, on_error="skip").engine()
        assert not hasattr(engine, "workers")
        assert engine.on_error == "skip"
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
        first = DSEEngine(cache_dir=tmp_path)
        first.run(spec)
        assert set(first._array_cache) == set(first.cache.fingerprints())
        second = DSEEngine(cache_dir=tmp_path)
        second.run(spec)
        assert second.last_telemetry.completed == 0
        assert second.last_telemetry.cached == len(sweep_points(spec))

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
        engine = DSEEngine(on_error="skip")
        table = engine.run(spec)
        assert len(table) == 1
        assert engine.last_telemetry.failed == 1

    def test_warm_rerun_skips_evaluation_blocks(self, tmp_path,
                                                stt_optimistic, sram16,
                                                simple_traffic):
        spec = small_spec([stt_optimistic, sram16], traffic=[simple_traffic])
        cold_engine = DSEEngine(cache_dir=tmp_path)
        cold = cold_engine.run(spec)
        assert cold_engine.last_telemetry.evaluated == 8
        assert cold_engine.eval_cache.stores == 8
        warm_engine = DSEEngine(cache_dir=tmp_path)
        warm = warm_engine.run(spec)
        assert warm_engine.last_telemetry.completed == 0
        assert warm_engine.last_telemetry.evaluated == 0
        assert warm_engine.last_telemetry.eval_cached == 8
        # Cross-run parity: cached rows identical to freshly evaluated ones.
        assert list(warm) == list(cold)

    def test_progress_callback_sees_every_point(self, stt_optimistic):
        events = []
        engine = DSEEngine(progress=events.append)
        engine.run(small_spec([stt_optimistic]))
        assert len(events) == 4
        assert {e.kind for e in events} == {"completed"}

    def test_invalid_engine_options_rejected(self):
        with pytest.raises(ValueError):
            DSEEngine(on_error="explode")


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
        assert parsed.cache_dir == "c"
        assert parsed.on_error == "skip"

    def test_runtime_defaults(self):
        parsed = parse_config({
            "name": "rt",
            "cells": {"technologies": ["STT"], "flavors": ["optimistic"]},
            "system": {"capacities_mb": [1]},
        })
        assert parsed.cache_dir is None
        assert parsed.on_error == "raise"

    def test_bad_on_error_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(self.config(on_error="sometimes"))

    def test_point_shard_section_parsed(self):
        parsed = parse_config(self.config(point_shard_index=1,
                                          point_shard_count=2))
        assert parsed.point_shard_index == 1
        assert parsed.point_shard_count == 2
        assert parsed.runtime_options().point_shard == PointShard(1, 2)

    def test_bad_point_shard_rejected(self):
        with pytest.raises(ConfigError, match="point_shard_count"):
            parse_config(self.config(point_shard_count=0))
        with pytest.raises(ConfigError, match="point_shard_index"):
            parse_config(self.config(point_shard_index=5, point_shard_count=2))
