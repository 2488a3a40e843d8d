"""Smoke tests: every shipped example runs to completion.

Run in-process (not via subprocess) so failures surface with real
tracebacks and the characterization caches are shared.  The slowest
examples are excluded here and covered by the bench suite instead.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "custom_cell_sweep.py",
    "fault_injection_tool.py",
    "heterogeneous_hierarchy.py",
    "service_client.py",
    "study_pipeline.py",
]


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name, capsys, monkeypatch):
    # A clean argv, as `python examples/<name>` would see — examples
    # that parse arguments must not inherit pytest's command line.
    monkeypatch.setattr(sys, "argv", [str(EXAMPLES_DIR / name)])
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report


def test_all_examples_present():
    names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert {
        "quickstart.py",
        "dnn_edge_accelerator.py",
        "graph_analytics.py",
        "llc_replacement.py",
        "codesign_sweep.py",
        "custom_cell_sweep.py",
        "fault_injection_tool.py",
        "heterogeneous_hierarchy.py",
        "service_client.py",
        "study_pipeline.py",
    } <= names
