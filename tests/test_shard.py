"""Shard planner, run manifests, and manifest merging."""

import json
import random

import pytest

from repro.runtime.fingerprint import fingerprint_payload
from repro.runtime.shard import (
    MANIFEST_FILENAME,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    ManifestEntry,
    PointShard,
    RunManifest,
    ShardError,
    ShardPlan,
    assign_fingerprint,
    collect_artifacts,
    merge_manifests,
    partition_fingerprints,
    plan_shard,
    point_set_digest,
    point_shard_section,
    schema_tags,
    shard_assignments,
    source_digest,
    study_fingerprint,
)
from repro.studies.pipeline import REGISTRY

SUITE = tuple(REGISTRY)


# --- planner --------------------------------------------------------------


@pytest.mark.parametrize("shard_count", [1, 2, 3, 4, 5])
def test_every_study_assigned_exactly_once(shard_count):
    plans = [plan_shard(SUITE, i, shard_count) for i in range(shard_count)]
    seen = [name for plan in plans for name in plan.selected]
    assert sorted(seen) == sorted(SUITE)
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("shard_count", [1, 2, 3, 4, 5])
def test_shard_sizes_balanced(shard_count):
    sizes = [len(plan_shard(SUITE, i, shard_count).selected) for i in range(shard_count)]
    assert max(sizes) - min(sizes) <= 1


def test_assignment_stable_under_registry_reordering():
    reference = shard_assignments(SUITE, 3)
    for seed in range(5):
        shuffled = list(SUITE)
        random.Random(seed).shuffle(shuffled)
        assert shard_assignments(shuffled, 3) == reference
        for i in range(3):
            assert set(plan_shard(shuffled, i, 3).selected) == {
                name for name, shard in reference.items() if shard == i
            }


def test_selection_preserves_suite_order():
    plan = plan_shard(SUITE, 1, 3)
    positions = [SUITE.index(name) for name in plan.selected]
    assert positions == sorted(positions)
    assert plan.suite == SUITE


def test_single_shard_is_whole_suite():
    plan = plan_shard(SUITE, 0, 1)
    assert plan.is_whole_suite
    assert plan.selected == SUITE


def test_invalid_shard_parameters_rejected():
    with pytest.raises(ShardError, match="shard_count"):
        plan_shard(SUITE, 0, 0)
    with pytest.raises(ShardError, match="shard_index"):
        plan_shard(SUITE, 3, 3)
    with pytest.raises(ShardError, match="shard_index"):
        plan_shard(SUITE, -1, 2)
    with pytest.raises(ShardError, match="duplicate"):
        plan_shard(["a", "b", "a"], 0, 2)


# --- fingerprint-space partitioning ---------------------------------------


def test_partition_fingerprints_exact_cover():
    fingerprints = [fingerprint_payload({"point": i}) for i in range(64)]
    for shard_count in (1, 2, 3, 5):
        shards = [
            partition_fingerprints(fingerprints, i, shard_count)
            for i in range(shard_count)
        ]
        combined = [fp for shard in shards for fp in shard]
        assert sorted(combined) == sorted(fingerprints)


def test_assign_fingerprint_deterministic_and_in_range():
    fp = fingerprint_payload({"x": 1})
    assert assign_fingerprint(fp, 4) == assign_fingerprint(fp, 4)
    assert 0 <= assign_fingerprint(fp, 4) < 4
    points = [{"id": fingerprint_payload({"p": i})} for i in range(10)]
    picked = partition_fingerprints(points, 0, 3, key=lambda p: p["id"])
    assert all(assign_fingerprint(p["id"], 3) == 0 for p in picked)


def test_point_shard_selects_matches_partition():
    fingerprints = [fingerprint_payload({"point": i}) for i in range(32)]
    for shard_count in (1, 2, 3, 4):
        shards = [PointShard(i, shard_count) for i in range(shard_count)]
        for fp in fingerprints:
            owners = [s for s in shards if s.selects(fp)]
            assert len(owners) == 1
        combined = [fp for s in shards for fp in s.partition(fingerprints)]
        assert sorted(combined) == sorted(fingerprints)
    assert PointShard().is_whole_space
    assert not PointShard(1, 2).is_whole_space
    assert PointShard(1, 3).to_dict() == {"index": 1, "count": 3}


def test_point_shard_validation():
    with pytest.raises(ShardError, match="shard_count"):
        PointShard(0, 0)
    with pytest.raises(ShardError, match="shard_index"):
        PointShard(2, 2)
    with pytest.raises(ShardError, match="shard_index"):
        PointShard(-1, 2)


def test_point_set_digest_order_independent():
    fingerprints = [fingerprint_payload({"p": i}) for i in range(8)]
    shuffled = list(reversed(fingerprints))
    assert point_set_digest(fingerprints) == point_set_digest(shuffled)
    assert point_set_digest(fingerprints) != point_set_digest(fingerprints[:-1])
    assert point_set_digest(fingerprints) == point_set_digest(
        fingerprints + fingerprints  # duplicates collapse: it is a set digest
    )


def test_point_shard_section_contents():
    planned = [fingerprint_payload({"p": i}) for i in range(6)]
    selected = planned[:2]
    section = point_shard_section(PointShard(0, 2), planned, selected, selected)
    assert section["index"] == 0
    assert section["count"] == 2
    assert section["planned"] == 6
    assert section["planned_digest"] == point_set_digest(planned)
    assert section["selected"] == sorted(selected)
    assert section["completed"] == 2


# --- study fingerprints ---------------------------------------------------


def test_study_fingerprint_stable_and_sensitive():
    spec = REGISTRY["fig09_spec_llc"]
    base = study_fingerprint(spec)
    assert base == study_fingerprint(spec)
    assert study_fingerprint(spec, overrides={"n_accesses": 7}) != base
    assert study_fingerprint(spec, seed=1) != base
    assert study_fingerprint(REGISTRY["fig14_writebuffer"]) != base


def test_study_fingerprint_point_shard_sensitivity():
    spec = REGISTRY["fig09_spec_llc"]
    base = study_fingerprint(spec)
    # The whole-space selector keys identically to no selector at all.
    assert study_fingerprint(spec, point_shard=PointShard(0, 1)) == base
    shard0 = study_fingerprint(spec, point_shard=PointShard(0, 2))
    shard1 = study_fingerprint(spec, point_shard=PointShard(1, 2))
    assert shard0 != base
    assert shard1 != base
    assert shard0 != shard1


def test_source_digest_is_stable_hex():
    digest = source_digest()
    assert digest == source_digest()
    assert len(digest) == 64
    int(digest, 16)


def test_schema_tags_cover_every_cache_layer():
    assert set(schema_tags()) == {"arrays", "evaluations", "traces"}


# --- manifests ------------------------------------------------------------


def _entry(name, status=STATUS_OK, **kwargs):
    defaults = {
        "fingerprint": fingerprint_payload({"study": name}),
        "rows": 5,
        "elapsed_s": 0.1,
        "artifacts": {"csv": f"results/{name}.csv"},
        "telemetry": {"completed": 3, "evaluated": 2},
    }
    defaults.update(kwargs)
    return ManifestEntry(name=name, status=status, **defaults)


def _manifest(entries, shard_index=0, shard_count=1, suite=None, **kwargs):
    return RunManifest(
        shard_index=shard_index,
        shard_count=shard_count,
        suite=tuple(suite if suite is not None else (e.name for e in entries)),
        entries=tuple(entries),
        **kwargs,
    )


def test_manifest_roundtrip(tmp_path):
    manifest = _manifest([_entry("a"), _entry("b", status=STATUS_FAILED, error="boom")])
    path = manifest.write(tmp_path)
    assert path.name == MANIFEST_FILENAME
    loaded = RunManifest.load(tmp_path)
    assert loaded == manifest
    assert RunManifest.load(path) == manifest
    assert not loaded.ok
    assert loaded.entry_for("a") == manifest.entries[0]
    assert loaded.entry_for("zzz") is None


def test_manifest_try_load_tolerates_missing_and_corrupt(tmp_path):
    assert RunManifest.try_load(tmp_path) is None
    (tmp_path / MANIFEST_FILENAME).write_text("{not json")
    assert RunManifest.try_load(tmp_path) is None
    (tmp_path / MANIFEST_FILENAME).write_text(json.dumps({"schema": "other-v9"}))
    assert RunManifest.try_load(tmp_path) is None


def test_manifest_rejects_wrong_schema():
    with pytest.raises(ShardError, match="schema"):
        RunManifest.from_dict({"schema": "nope"})


def test_entry_rejects_unknown_status():
    with pytest.raises(ShardError, match="status"):
        ManifestEntry(name="a", status="great")


def test_cached_entries_count_as_ok():
    assert _entry("a", status=STATUS_CACHED).ok
    assert not _entry("a", status=STATUS_FAILED).ok


def test_retained_entries_roundtrip_and_lookup(tmp_path):
    manifest = _manifest([_entry("a")], suite=("a",), retained=(_entry("z"),))
    manifest.write(tmp_path)
    loaded = RunManifest.load(tmp_path)
    assert loaded.retained == manifest.retained
    assert loaded.entry_for("z") is None  # not part of this run
    assert loaded.lookup("z") == manifest.retained[0]
    assert loaded.lookup("a") == manifest.entries[0]
    assert loaded.lookup("missing") is None


# --- merging --------------------------------------------------------------


def _shard_manifests(names=("a", "b", "c", "d", "e"), shard_count=3):
    shards = []
    for i in range(shard_count):
        plan = plan_shard(names, i, shard_count)
        shards.append(
            _manifest(
                [_entry(n) for n in plan.selected],
                shard_index=i,
                shard_count=shard_count,
                suite=names,
            )
        )
    return shards


def test_merge_combines_all_shards_in_suite_order():
    shards = _shard_manifests()
    merged = merge_manifests(shards)
    assert merged.names == ("a", "b", "c", "d", "e")
    assert merged.shard_count == 1
    assert merged.merged_from == (0, 1, 2)
    assert merged.ok


def test_merge_detects_duplicate_study():
    shards = _shard_manifests()
    dup = shards[1].entries[0]
    shards[0] = _manifest(
        list(shards[0].entries) + [dup],
        shard_index=0,
        shard_count=3,
        suite=shards[0].suite,
    )
    with pytest.raises(ShardError, match="more than one shard"):
        merge_manifests(shards)


def test_merge_detects_dropped_study():
    shards = _shard_manifests()
    shards[2] = _manifest(
        shards[2].entries[:-1],
        shard_index=2,
        shard_count=3,
        suite=shards[2].suite,
    )
    with pytest.raises(ShardError, match="dropped"):
        merge_manifests(shards)


def test_merge_detects_missing_shard():
    shards = _shard_manifests()
    with pytest.raises(ShardError, match="missing shard"):
        merge_manifests(shards[:2])


def test_merge_detects_duplicate_shard_index():
    shards = _shard_manifests()
    with pytest.raises(ShardError, match="duplicate shard"):
        merge_manifests([shards[0], shards[0], shards[1]])


def test_merge_detects_suite_mismatch():
    shards = _shard_manifests()
    other = _manifest(
        shards[1].entries, shard_index=1, shard_count=3, suite=("a", "b", "x", "d", "e")
    )
    with pytest.raises(ShardError, match="suite"):
        merge_manifests([shards[0], other, shards[2]])


def test_merge_detects_schema_tag_mismatch():
    shards = _shard_manifests()
    stale = _manifest(
        shards[1].entries,
        shard_index=1,
        shard_count=3,
        suite=shards[1].suite,
        tags={"arrays": "array-cache-v0"},
    )
    with pytest.raises(ShardError, match="schema tags"):
        merge_manifests([shards[0], stale, shards[2]])


def test_merge_detects_shard_count_mismatch():
    shards = _shard_manifests()
    odd = _manifest(
        shards[1].entries, shard_index=1, shard_count=4, suite=shards[1].suite
    )
    with pytest.raises(ShardError, match="shard_count"):
        merge_manifests([shards[0], odd, shards[2]])


def test_merge_rejects_unplanned_study():
    shards = _shard_manifests()
    rogue = _manifest(
        list(shards[0].entries) + [_entry("zzz")],
        shard_index=0,
        shard_count=3,
        suite=shards[0].suite,
    )
    with pytest.raises(ShardError, match="not part of the planned suite"):
        merge_manifests([rogue, shards[1], shards[2]])


def test_merge_nothing_rejected():
    with pytest.raises(ShardError, match="no manifests"):
        merge_manifests([])


# --- point-sharded merging ------------------------------------------------

POINTS = [fingerprint_payload({"pt": i}) for i in range(12)]


def _point_entry(name, shard, selected, planned=None, status=STATUS_OK,
                 **kwargs):
    planned = POINTS if planned is None else planned
    section = point_shard_section(shard, planned, selected, selected)
    section.update(kwargs.pop("section_overrides", {}))
    defaults = {
        "fingerprint": fingerprint_payload({"study": name, "shard": shard.index}),
        "rows": 2 * len(selected),
        "elapsed_s": 0.5,
        "artifacts": {"csv": f"results/{name}.csv"},
        "telemetry": {"completed": len(selected), "skipped": len(planned) - len(selected)},
        "point_shard": section,
    }
    defaults.update(kwargs)
    return ManifestEntry(name=name, status=status, **defaults)


def _point_manifests(names=("a", "b"), point_count=2):
    manifests = []
    for j in range(point_count):
        shard = PointShard(j, point_count)
        entries = [
            _point_entry(name, shard, shard.partition(POINTS))
            for name in names
        ]
        manifests.append(RunManifest(
            shard_index=0,
            shard_count=1,
            suite=tuple(names),
            entries=tuple(entries),
            point_shard_index=j,
            point_shard_count=point_count,
        ))
    return manifests


def _replace_entry(manifest, name, entry):
    return RunManifest(
        shard_index=manifest.shard_index,
        shard_count=manifest.shard_count,
        suite=manifest.suite,
        entries=tuple(entry if e.name == name else e for e in manifest.entries),
        tags=manifest.tags,
        point_shard_index=manifest.point_shard_index,
        point_shard_count=manifest.point_shard_count,
    )


@pytest.mark.parametrize("point_count", [2, 3, 4])
def test_point_merge_combines_slices(point_count):
    merged = merge_manifests(_point_manifests(point_count=point_count))
    assert merged.names == ("a", "b")
    assert merged.shard_count == 1
    assert merged.point_shard_count == 1
    assert merged.point_merged_from == tuple(range(point_count))
    assert merged.ok
    for entry in merged.entries:
        assert entry.status == STATUS_OK
        assert entry.rows == 2 * len(POINTS)  # slices sum to the whole space
        assert entry.fingerprint == ""  # whole-space key set by the merge driver
        telemetry = entry.telemetry
        assert telemetry["completed"] == len(POINTS)


def test_point_merge_statuses_combine():
    manifests = _point_manifests()
    cached = [
        _replace_entry(
            m, "a",
            _point_entry("a", m.point_shard, m.point_shard.partition(POINTS),
                         status=STATUS_CACHED),
        )
        for m in manifests
    ]
    assert merge_manifests(cached).entry_for("a").status == STATUS_CACHED
    failed = [cached[0], _replace_entry(
        cached[1], "a",
        _point_entry("a", cached[1].point_shard,
                     cached[1].point_shard.partition(POINTS),
                     status=STATUS_FAILED, error="boom"),
    )]
    merged = merge_manifests(failed)
    assert merged.entry_for("a").status == STATUS_FAILED
    assert not merged.ok
    # A failed study is neither copied nor re-materialized by the merge
    # driver, so its merged entry must not advertise artifact paths.
    assert dict(merged.entry_for("a").artifacts) == {}
    assert dict(merged.entry_for("b").artifacts) == {"csv": "results/b.csv"}


def test_point_merge_detects_dropped_point():
    manifests = _point_manifests()
    shard0 = manifests[0].point_shard
    short = shard0.partition(POINTS)[:-1]  # one selected point goes missing
    tampered = _replace_entry(manifests[0], "a",
                              _point_entry("a", shard0, short))
    with pytest.raises(ShardError, match="dropped by every shard"):
        merge_manifests([tampered, manifests[1]])


def test_point_merge_detects_duplicated_point():
    manifests = _point_manifests()
    shard0 = manifests[0].point_shard
    stolen = manifests[1].point_shard.partition(POINTS)[0]
    greedy = _replace_entry(
        manifests[0], "a",
        _point_entry("a", shard0, shard0.partition(POINTS) + [stolen]),
    )
    with pytest.raises(ShardError, match="more than one point shard"):
        merge_manifests([greedy, manifests[1]])


def test_point_merge_rejects_overcounted_completion():
    """completed must not exceed the selected slice."""
    manifests = _point_manifests()
    shard0 = manifests[0].point_shard
    selected = shard0.partition(POINTS)
    inflated = _replace_entry(
        manifests[0], "a",
        _point_entry("a", shard0, selected,
                     section_overrides={"completed": len(selected) + 1}),
    )
    with pytest.raises(ShardError, match="more completed"):
        merge_manifests([inflated, manifests[1]])


def test_point_merge_detects_planned_space_mismatch():
    manifests = _point_manifests()
    shard0 = manifests[0].point_shard
    other_points = [fingerprint_payload({"other": i}) for i in range(12)]
    drifted = _replace_entry(
        manifests[0], "a",
        _point_entry("a", shard0, shard0.partition(other_points),
                     planned=other_points),
    )
    with pytest.raises(ShardError, match="planned point space"):
        merge_manifests([drifted, manifests[1]])


def test_point_merge_detects_missing_point_shard():
    manifests = _point_manifests()
    with pytest.raises(ShardError, match="missing shard manifests"):
        merge_manifests(manifests[:1])


def test_point_merge_detects_point_count_mismatch():
    two = _point_manifests(point_count=2)
    three = _point_manifests(point_count=3)
    with pytest.raises(ShardError, match="point_shard_count"):
        merge_manifests([two[0], three[1]])


def test_point_merge_detects_study_missing_from_a_slice():
    manifests = _point_manifests()
    narrowed = RunManifest(
        shard_index=0,
        shard_count=1,
        suite=manifests[1].suite,
        entries=manifests[1].entries[:1],  # "b" never ran on this slice
        point_shard_index=1,
        point_shard_count=2,
    )
    with pytest.raises(ShardError, match="appears in point shards"):
        merge_manifests([manifests[0], narrowed])


def test_point_merge_detects_section_manifest_mismatch():
    manifests = _point_manifests()
    confused = _replace_entry(
        manifests[0], "a",
        _point_entry("a", manifests[0].point_shard,
                     manifests[0].point_shard.partition(POINTS),
                     section_overrides={"index": 1}),
    )
    with pytest.raises(ShardError, match="does not match its manifest"):
        merge_manifests([confused, manifests[1]])


def test_point_sharded_manifest_roundtrip(tmp_path):
    manifest = _point_manifests()[1]
    manifest.write(tmp_path)
    loaded = RunManifest.load(tmp_path)
    assert loaded == manifest
    assert loaded.point_shard == PointShard(1, 2)
    assert dict(loaded.entry_for("a").point_shard)["index"] == 1


def test_manifests_without_point_fields_still_load():
    # Pre-point-sharding manifests (PR 4) lack the new keys entirely.
    payload = _manifest([_entry("a")]).to_dict()
    for key in ("point_shard_index", "point_shard_count", "point_merged_from"):
        payload.pop(key)
    for entry in payload["entries"]:
        entry.pop("point_shard")
    loaded = RunManifest.from_dict(payload)
    assert loaded.point_shard_count == 1
    assert dict(loaded.entry_for("a").point_shard) == {}


# --- artifact collection --------------------------------------------------


def test_collect_artifacts_copies_files(tmp_path):
    source = tmp_path / "shard0"
    target = tmp_path / "merged"
    (source / "results").mkdir(parents=True)
    (source / "results" / "a.csv").write_text("x,y\n1,2\n")
    manifest = _manifest([_entry("a", artifacts={"csv": "results/a.csv"})])
    collect_artifacts(manifest, source, target)
    assert (target / "results" / "a.csv").read_text() == "x,y\n1,2\n"


def test_collect_artifacts_missing_file_rejected(tmp_path):
    manifest = _manifest([_entry("a", artifacts={"csv": "results/a.csv"})])
    with pytest.raises(ShardError, match="missing"):
        collect_artifacts(manifest, tmp_path / "nope", tmp_path / "merged")


def test_collect_artifacts_skips_named_studies(tmp_path):
    source = tmp_path / "shard0"
    (source / "results").mkdir(parents=True)
    (source / "results" / "b.csv").write_text("x\n1\n")
    manifest = _manifest([
        _entry("a", artifacts={"csv": "results/a.csv"}),  # partial; never copied
        _entry("b", artifacts={"csv": "results/b.csv"}),
    ])
    collect_artifacts(manifest, source, tmp_path / "merged", skip={"a"})
    assert not (tmp_path / "merged" / "results" / "a.csv").exists()
    assert (tmp_path / "merged" / "results" / "b.csv").exists()


def test_shard_plan_is_frozen():
    plan = plan_shard(SUITE, 0, 2)
    assert isinstance(plan, ShardPlan)
    with pytest.raises(AttributeError):
        plan.shard_index = 5
