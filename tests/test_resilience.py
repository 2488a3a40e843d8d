"""Failure handling: damaged cache packs deleted and healed.

Each test damages the bytes of a cache pack on disk and checks the
end-to-end behaviour of a characterization sweep over it: the loader
detects the damage, deletes the whole pack, and every point is
recomputed and re-packed clean, so the next run is warm.

In-process, the pack index this process already holds serves any body
whose checksum still verifies, so damage to a pack's key line or to
lines past a body may go unseen until a fresh process re-reads the
pack's lines.  Tests that flip a body byte therefore run over the store
they filled; tests that truncate a pack copy it into a store root this
process has never indexed.
"""

from __future__ import annotations

import pytest

from repro.nvsim.result import OptimizationTarget
from repro.runtime import (
    CharacterizationCache,
    SweepPoint,
    SweepTelemetry,
    characterize_points,
)
from repro.runtime.cache import PACK_SUFFIX, read_pack_index
from repro.units import mb


def make_point(cell, capacity=mb(1)):
    return SweepPoint(
        cell=cell,
        capacity_bytes=capacity,
        node_nm=22,
        target=OptimizationTarget.READ_EDP,
        access_bits=64,
        bits_per_cell=1,
    )


def _damage(pack, mode, fresh_root):
    """Damage ``pack``; returns the store root the damaged pack now sits in.

    ``truncate`` keeps the first half of the bytes and writes them under
    ``fresh_root``, whose index no cache in this process holds yet.
    ``bitflip`` flips the first byte of the first body in place.
    """
    data = pack.read_bytes()
    if mode == "truncate":
        fresh_root.mkdir()
        (fresh_root / pack.name).write_bytes(data[: len(data) // 2])
        return fresh_root
    at = read_pack_index(pack)[1][0][1]
    pack.write_bytes(data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:])
    return pack.parent


def _healed(root, pack_name, damaged):
    """The damaged bytes are gone: the recompute re-packed the same points
    under the same name (a pack's name hashes its fingerprints), intact,
    and the store holds nothing else."""
    pack = root / pack_name
    assert sorted(root.iterdir()) == [pack]
    assert pack.read_bytes() != damaged
    store = CharacterizationCache(root)
    schema, entries = read_pack_index(pack)
    with open(pack, "rb") as handle:
        for _, *entry in entries:
            assert store.read_entry(handle, schema, *entry) is not None


class TestChaosEndToEnd:
    """Pack bytes damaged on disk, then a sweep over the damaged store."""

    def test_cache_corruption_quarantined_and_healed(self, tmp_path, stt_optimistic):
        point = make_point(stt_optimistic)
        clean = CharacterizationCache(tmp_path / "filled")
        characterize_points([point], cache=clean)
        [pack] = sorted(clean.root.glob(f"*{PACK_SUFFIX}"))
        assert [entry[0] for entry in read_pack_index(pack)[1]] == [point.fingerprint()]

        root = _damage(pack, "truncate", tmp_path / "damaged")
        bad_bytes = (root / pack.name).read_bytes()
        damaged = CharacterizationCache(root)
        telemetry = SweepTelemetry()
        results = characterize_points([point], cache=damaged, progress=telemetry.emit)
        assert results[0] is not None
        assert telemetry.corrupt == 1
        assert telemetry.completed == 1  # recomputed, not served corrupt
        assert damaged.corrupt == 1
        _healed(root, pack.name, bad_bytes)

        # the recompute re-stored a clean pack, so the next run is warm
        warm = SweepTelemetry()
        characterize_points([point], cache=damaged, progress=warm.emit)
        assert warm.cached == 1
        assert warm.corrupt == 0

    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    def test_each_pack_corrupted_once_and_quarantined_whole(
            self, tmp_path, stt_optimistic, mode):
        points = [make_point(stt_optimistic, capacity=mb(c)) for c in (1, 2, 4)]
        filled = tmp_path / "filled"
        characterize_points(points, cache=CharacterizationCache(filled))
        [pack] = sorted(filled.glob(f"*{PACK_SUFFIX}"))  # one call, one pack

        root = _damage(pack, mode, tmp_path / "damaged")
        bad_bytes = (root / pack.name).read_bytes()
        damaged = CharacterizationCache(root)
        telemetry = SweepTelemetry()
        characterize_points(points, cache=damaged, progress=telemetry.emit)
        # The first load meets the damage and the whole pack goes, so the
        # other points miss instead of being served from a damaged file.
        assert telemetry.corrupt == 1
        assert telemetry.completed == len(points)
        _healed(root, pack.name, bad_bytes)
        warm = SweepTelemetry()
        characterize_points(points, cache=damaged, progress=warm.emit)
        assert warm.cached == len(points)
        assert warm.corrupt == 0
