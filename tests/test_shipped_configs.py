"""The shipped config/ samples parse and run end to end."""

import json
from pathlib import Path

import pytest

from repro.config import (
    is_suite_config,
    load_config,
    load_study_config,
    load_suite_config,
    run_config,
    run_study_config,
    run_suite_config,
)
from repro.config.schema import is_service_config
from repro.studies.pipeline import REGISTRY

CONFIG_DIR = Path(__file__).resolve().parent.parent / "config"
CONFIG_FILES = sorted(CONFIG_DIR.glob("*.json"))
SWEEP_CONFIG_FILES = [
    p for p in CONFIG_FILES
    if not is_suite_config(raw := json.loads(p.read_text()))
    and not is_service_config(raw)
]
STUDY_CONFIG_FILES = sorted((CONFIG_DIR / "studies").glob("*.json"))


def test_samples_exist():
    names = {p.name for p in CONFIG_FILES}
    assert "main_dnn_study.json" in names
    assert "graph_study.json" in names
    assert "spec_llc_study.json" in names
    assert "array_characterization.json" in names
    assert "suite.json" in names


@pytest.mark.parametrize("path", SWEEP_CONFIG_FILES, ids=lambda p: p.name)
def test_sample_parses(path):
    parsed = load_config(path)
    assert parsed.cells
    assert parsed.capacities_bytes


def test_service_stub_parses():
    from repro.config.loader import load_service_config

    parsed = load_service_config(CONFIG_DIR / "service.json")
    assert parsed.workers == 2
    assert parsed.rate_limit_rps > 0
    assert set(parsed.warm_studies) <= set(REGISTRY)
    assert parsed.runtime.on_error == "skip"


def test_suite_stub_parses():
    parsed = load_suite_config(CONFIG_DIR / "suite.json")
    assert parsed.only is None
    assert parsed.incremental


def test_suite_config_runs(tmp_path):
    raw = json.loads((CONFIG_DIR / "suite.json").read_text())
    raw["suite"]["only"] = ["ext_hierarchy"]
    raw["suite"]["output_dir"] = str(tmp_path / "out")
    raw["runtime"]["cache_dir"] = str(tmp_path / "cache")
    run = run_suite_config(raw)
    assert run.ok
    assert set(run.tables) == {"ext_hierarchy"}
    assert (tmp_path / "out" / "results" / "ext_hierarchy.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()
    # A second pass against the same output dir is fully incremental.
    again = run_suite_config(raw)
    assert again.fully_incremental


def test_main_dnn_study_runs(tmp_path):
    raw = json.loads((CONFIG_DIR / "main_dnn_study.json").read_text())
    raw["output_csv"] = str(tmp_path / "dnn.csv")
    # Shrink the sweep for test time: one capacity is already configured.
    table = run_config(raw)
    assert len(table) > 0
    assert (tmp_path / "dnn.csv").exists()
    assert {"PCM", "STT", "RRAM", "FeFET", "SRAM"} <= set(table.column("tech"))


def test_every_registered_study_has_a_stub():
    names = {p.stem for p in STUDY_CONFIG_FILES}
    assert names == set(REGISTRY)


@pytest.mark.parametrize("path", STUDY_CONFIG_FILES, ids=lambda p: p.name)
def test_study_stub_parses(path):
    parsed = load_study_config(path)
    assert parsed.study == path.stem
    assert parsed.study in REGISTRY


def test_study_stub_runs(tmp_path):
    raw = json.loads((CONFIG_DIR / "studies" / "ext_hierarchy.json").read_text())
    raw["output_csv"] = str(tmp_path / "h.csv")
    raw["report_md"] = str(tmp_path / "h.md")
    table = run_study_config(raw)
    assert len(table) == 9
    assert (tmp_path / "h.csv").exists()
    assert (tmp_path / "h.md").exists()


def test_array_characterization_runs(tmp_path):
    raw = json.loads((CONFIG_DIR / "array_characterization.json").read_text())
    raw["output_csv"] = str(tmp_path / "arrays.csv")
    # Restrict targets to keep the unit-test fast; the full sweep runs in
    # the benches.
    raw["system"]["optimization_targets"] = ["ReadEDP"]
    table = run_config(raw)
    # 7 technologies x 2 flavors + SRAM = 15 arrays (the config does not
    # request the reference flavor).
    assert len(table) == 15
