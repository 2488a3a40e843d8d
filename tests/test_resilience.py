"""Failure handling: cache-corruption chaos, quarantine, and healing.

Covers the deterministic corruption harness (:mod:`repro.runtime.chaos`)
from the spec parser down to the file damage it does, and the end-to-end
behaviour of a characterization sweep whose cache entries are damaged:
the loader detects the damage, quarantines the entry, and the point is
recomputed and re-stored clean.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.nvsim.result import OptimizationTarget
from repro.runtime import (
    CharacterizationCache,
    SweepPoint,
    SweepTelemetry,
    characterize_points,
)
from repro.runtime import chaos as chaos_module
from repro.runtime.chaos import ChaosOptions, parse_chaos_spec
from repro.units import mb


@pytest.fixture(autouse=True)
def _reset_corruption_ledger():
    """Chaos corrupts each pack at most once per *process*; tests must
    not inherit another test's ledger."""
    chaos_module._CORRUPTED.clear()
    yield
    chaos_module._CORRUPTED.clear()


def make_point(cell, capacity=mb(1)):
    return SweepPoint(
        cell=cell,
        capacity_bytes=capacity,
        node_nm=22,
        target=OptimizationTarget.READ_EDP,
        access_bits=64,
        bits_per_cell=1,
    )


class TestChaosSpec:
    def test_off_and_empty_disable(self):
        assert parse_chaos_spec("off") is None
        assert parse_chaos_spec("") is None
        assert parse_chaos_spec("  OFF  ") is None

    def test_aliases_and_field_names(self):
        options = parse_chaos_spec("seed=7,cache_corrupt=0.5,corrupt_mode=bitflip")
        assert options == ChaosOptions(
            seed=7, cache_corrupt_rate=0.5, corrupt_mode="bitflip",
        )
        assert parse_chaos_spec("cache_corrupt_rate=0.1").cache_corrupt_rate == 0.1

    def test_bad_specs_rejected(self):
        # Worker-fault kinds no longer exist: their keys are unknown.
        for key in ("worker_kill", "worker_error", "stall", "poison"):
            with pytest.raises(ConfigError, match="unknown chaos spec key"):
                parse_chaos_spec(f"{key}=0.5")
        with pytest.raises(ConfigError, match="not key=value"):
            parse_chaos_spec("cache_corrupt")
        with pytest.raises(ConfigError, match="must be a number"):
            parse_chaos_spec("cache_corrupt=lots")
        with pytest.raises(ConfigError, match=r"in \[0, 1\]"):
            parse_chaos_spec("cache_corrupt=1.5")
        with pytest.raises(ConfigError, match="seed must be an int"):
            parse_chaos_spec("seed=x")

    def test_options_validation_and_enabled(self):
        assert not ChaosOptions().enabled
        assert ChaosOptions(cache_corrupt_rate=0.01).enabled
        with pytest.raises(ConfigError):
            ChaosOptions(corrupt_mode="scramble")
        with pytest.raises(ConfigError, match="unknown chaos option"):
            ChaosOptions.from_mapping({"poison_rate": 0.5})
        options = ChaosOptions(seed=3, cache_corrupt_rate=0.2)
        assert ChaosOptions.from_mapping(options.to_dict()) == options


class TestChaosInjection:
    def test_decisions_are_deterministic(self, tmp_path):
        body = b'{"schema": "x", "result": [1, 2, 3]}'

        def damaged(options):
            hits = set()
            for i in range(16):
                target = tmp_path / f"entry-{i}.json"
                target.write_bytes(body)
                if options.maybe_corrupt_file(target, f"fp-{i}"):
                    hits.add(i)
            chaos_module._CORRUPTED.clear()
            return hits

        first = damaged(ChaosOptions(seed=3, cache_corrupt_rate=0.5))
        assert first == damaged(ChaosOptions(seed=3, cache_corrupt_rate=0.5))
        assert 0 < len(first) < 16  # neither all nor nothing

    def test_corrupt_file_truncates_once_per_fingerprint(self, tmp_path):
        target = tmp_path / "entry.json"
        target.write_bytes(b'{"schema": "x", "result": [1, 2, 3]}')
        original = target.read_bytes()
        options = ChaosOptions(seed=2, cache_corrupt_rate=1.0)
        assert options.maybe_corrupt_file(target, "fp-a") is True
        assert len(target.read_bytes()) == len(original) // 2
        # once per process: the second pass leaves the file alone
        target.write_bytes(original)
        assert options.maybe_corrupt_file(target, "fp-a") is False
        assert target.read_bytes() == original

    def test_corrupt_file_bitflip_preserves_length(self, tmp_path):
        target = tmp_path / "entry.json"
        original = b'{"schema": "x", "result": [1, 2, 3]}'
        target.write_bytes(original)
        options = ChaosOptions(
            seed=2, cache_corrupt_rate=1.0, corrupt_mode="bitflip"
        )
        assert options.maybe_corrupt_file(target, "fp-b") is True
        damaged = target.read_bytes()
        assert len(damaged) == len(original)
        assert damaged != original


class TestChaosEndToEnd:
    def test_cache_corruption_quarantined_and_healed(self, tmp_path, stt_optimistic):
        point = make_point(stt_optimistic)
        clean = CharacterizationCache(tmp_path)
        characterize_points([point], cache=clean)
        assert clean.stores == 1

        # chaos corrupts the entry just before the load reads it
        hostile = CharacterizationCache(
            tmp_path, chaos=ChaosOptions(seed=5, cache_corrupt_rate=1.0)
        )
        telemetry = SweepTelemetry()
        results = characterize_points([point], cache=hostile, telemetry=telemetry)
        assert results[0] is not None
        assert telemetry.corrupt == 1
        assert telemetry.completed == 1  # recomputed, not served corrupt
        assert hostile.stats()["corrupt"] == 1
        assert hostile.stats()["quarantined"] == 1
        damaged = list(hostile.quarantine_dir().iterdir())
        assert len(damaged) == 1

        # the recompute re-stored a clean entry; with the corruption
        # ledger marking this fingerprint spent, the next run is warm
        warm = SweepTelemetry()
        characterize_points([point], cache=hostile, telemetry=warm)
        assert warm.cached == 1
        assert warm.corrupt == 0

    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    def test_each_pack_corrupted_once_and_quarantined_whole(
            self, tmp_path, stt_optimistic, mode):
        points = [make_point(stt_optimistic, capacity=mb(c)) for c in (1, 2, 4)]
        characterize_points(points, cache=CharacterizationCache(tmp_path))
        [pack] = sorted(tmp_path.glob("*.v3"))  # one call, one pack

        hostile = CharacterizationCache(tmp_path, chaos=ChaosOptions(
            seed=5, cache_corrupt_rate=1.0, corrupt_mode=mode))
        telemetry = SweepTelemetry()
        characterize_points(points, cache=hostile, telemetry=telemetry)
        # The first load damages the pack; verification catches the damage
        # wherever it landed and the whole pack goes, so the other points
        # miss instead of being served from a damaged file.
        assert telemetry.corrupt == 1
        assert telemetry.completed == len(points)
        assert [p.name for p in hostile.quarantine_dir().iterdir()] == [pack.name]
        # The recompute re-packed the same points under the same name, and
        # chaos does not damage that pack a second time in this process.
        assert sorted(tmp_path.glob("*.v3")) == [pack]
        warm = SweepTelemetry()
        characterize_points(points, cache=hostile, telemetry=warm)
        assert warm.cached == len(points)
        assert warm.corrupt == 0
