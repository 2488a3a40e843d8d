"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cells import (
    TechnologyClass,
    reference_rram,
    sram_cell,
    tentpoles_for,
)
from repro.nvsim import OptimizationTarget, characterize
from repro.traffic import TrafficPattern
from repro.units import mb


@pytest.fixture(scope="session")
def stt_optimistic():
    return tentpoles_for(TechnologyClass.STT).optimistic


@pytest.fixture(scope="session")
def stt_pessimistic():
    return tentpoles_for(TechnologyClass.STT).pessimistic


@pytest.fixture(scope="session")
def rram_optimistic():
    return tentpoles_for(TechnologyClass.RRAM).optimistic


@pytest.fixture(scope="session")
def fefet_optimistic():
    return tentpoles_for(TechnologyClass.FEFET).optimistic


@pytest.fixture(scope="session")
def pcm_optimistic():
    return tentpoles_for(TechnologyClass.PCM).optimistic


@pytest.fixture(scope="session")
def sram16():
    return sram_cell(16)


@pytest.fixture(scope="session")
def rram_ref():
    return reference_rram()


@pytest.fixture(scope="session")
def stt_array_1mb(stt_optimistic):
    """A small characterized array most system-level tests can share."""
    return characterize(
        stt_optimistic, mb(1), node_nm=22,
        optimization_target=OptimizationTarget.READ_EDP,
    )


@pytest.fixture(scope="session")
def sram_array_1mb(sram16):
    return characterize(
        sram16, mb(1), node_nm=16,
        optimization_target=OptimizationTarget.READ_EDP,
    )


@pytest.fixture()
def simple_traffic():
    return TrafficPattern(
        name="unit-test-traffic",
        reads_per_second=1e7,
        writes_per_second=1e5,
        access_bytes=8,
    )


@pytest.fixture()
def forget_pack_indexes():
    """A callable that drops every in-process pack index.

    The next load then re-reads each pack's lines from disk, as a fresh
    interpreter would.
    """
    from repro.runtime import cache

    return cache._INDEXES.clear


@pytest.fixture()
def write_pack():
    """A callable writing a v4 pack under any store key; returns its path.

    ``write_pack(root, key, entries)`` stores each ``(fingerprint,
    payload)`` of ``entries`` as one line, its body ``json.dumps`` of the
    payload, as a pack written under ``key`` would hold it.
    """
    from repro.runtime.cache import PACK_SUFFIX, pack_id

    def write(root, key, entries):
        lines = [key.encode()]
        for fingerprint, payload in entries:
            body = json.dumps(payload).encode()
            checksum = hashlib.sha256(body).hexdigest()
            lines.append(f"{fingerprint} {checksum} ".encode() + body)
        root.mkdir(parents=True, exist_ok=True)
        path = root / (pack_id(key, [fp for fp, _ in entries]) + PACK_SUFFIX)
        path.write_bytes(b"\n".join(lines) + b"\n")
        return path

    return write
