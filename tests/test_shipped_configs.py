"""The shipped config/ samples parse and run end to end."""

import json
import re
from pathlib import Path

import pytest

from repro.config import is_service_config, load_config, run_config
from repro.studies.pipeline import REGISTRY

CONFIG_DIR = Path(__file__).resolve().parent.parent / "config"
CONFIG_FILES = sorted(CONFIG_DIR.glob("*.json"))
SWEEP_CONFIG_FILES = [
    p for p in CONFIG_FILES if not is_service_config(json.loads(p.read_text()))
]


def test_samples_exist():
    names = {p.name for p in CONFIG_FILES}
    assert "main_dnn_study.json" in names
    assert "graph_study.json" in names
    assert "spec_llc_study.json" in names
    assert "array_characterization.json" in names


@pytest.mark.parametrize("path", SWEEP_CONFIG_FILES, ids=lambda p: p.name)
def test_sample_parses(path):
    parsed = load_config(path)
    assert parsed.sweep.cells
    assert parsed.sweep.capacities_bytes


@pytest.mark.parametrize("path", SWEEP_CONFIG_FILES, ids=lambda p: p.name)
def test_config_naming_a_figure_reproduces_it_or_says_reduced(path, tmp_path):
    raw = json.loads(path.read_text())
    description = raw.get("description", "")
    figure = re.search(r"\bFigure (\d+)\b", description)
    if figure is None:
        return
    named = [name for name in REGISTRY if name in description]
    assert len(named) == 1, "name the registered study that reproduces the figure"
    study = REGISTRY[named[0]]
    assert re.match(r"Fig\. (\d+)\b", study.figure).group(1) == figure.group(1)
    if re.search(r"\b(reduced|variant) sweep\b", description):
        return
    raw["output_csv"] = str(tmp_path / "config.csv")
    raw.get("runtime", {}).pop("cache_dir", None)
    assert run_config(raw).to_csv() == study.run().table.to_csv()


def test_service_stub_parses():
    from repro.config.loader import load_service_config

    parsed = load_service_config(CONFIG_DIR / "service.json")
    assert parsed.workers == 2
    assert parsed.rate_limit_rps > 0
    assert set(parsed.warm_studies) <= set(REGISTRY)
    assert parsed.runtime.on_error == "skip"


def test_main_dnn_study_runs(tmp_path):
    raw = json.loads((CONFIG_DIR / "main_dnn_study.json").read_text())
    raw["output_csv"] = str(tmp_path / "dnn.csv")
    # Shrink the sweep for test time: one capacity is already configured.
    table = run_config(raw)
    assert len(table) > 0
    assert (tmp_path / "dnn.csv").exists()
    assert {"PCM", "STT", "RRAM", "FeFET", "SRAM"} <= set(table.column("tech"))


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
