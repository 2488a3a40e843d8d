"""Each persistent store is keyed on the bytes of the modules that produce
its payloads (``repro.runtime.fingerprint.STORE_SOURCES``).

Two kinds of check: the declared source sets cover what the model
packages actually import, and edits on a copy of the package move
exactly the keys they should, so a stale cache entry is a miss.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime.fingerprint import (
    PACKAGE_ROOT,
    STORE_SOURCES,
    source_files,
    store_keys,
)

# -- the declared source sets cover the model's imports ----------------------

#: The model package whose payloads each store holds.
MODEL_PACKAGES = {"arrays": "repro.nvsim", "traces": "repro.cachesim"}

#: Imported by the model but exempt from the check: ``repro.errors``
#: defines exception classes only, so it cannot change a payload.
NOT_SOURCES = {"repro.errors"}


def _module_name(path):
    parts = path.relative_to(PACKAGE_ROOT).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(("repro", *parts))


def _module_file(name):
    """The file defining module ``name``, or ``None`` if it is no module."""
    path = PACKAGE_ROOT.joinpath(*name.split(".")[1:])
    if path.is_dir():
        return path / "__init__.py"
    if path.with_suffix(".py").is_file():
        return path.with_suffix(".py")
    return None


def _imports(path):
    """The in-package modules a file imports, at any nesting depth.

    ``from repro.x import y`` names ``repro.x``, and ``repro.x.y`` too
    when that is a module.
    """
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] != "repro":
                continue
            found.add(node.module)
            for alias in node.names:
                if _module_file(f"{node.module}.{alias.name}") is not None:
                    found.add(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "repro")
    return found


def import_closure(package):
    """Every in-package module that ``package``'s modules import, transitively."""
    todo = [_module_name(path) for path in source_files([package])]
    seen = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_imports(_module_file(name)))
    return seen


def uncovered(modules, package):
    """The modules of ``package``'s import closure that ``modules`` miss."""
    covered = {_module_name(path) for path in source_files(modules)}
    return import_closure(package) - covered - NOT_SOURCES


@pytest.mark.parametrize("store", sorted(MODEL_PACKAGES))
def test_declared_sources_cover_the_model_import_closure(store):
    assert uncovered(STORE_SOURCES[store], MODEL_PACKAGES[store]) == set()


def test_the_check_sees_a_dropped_module():
    without_units = [m for m in STORE_SOURCES["arrays"] if m != "repro.units"]
    assert uncovered(without_units, "repro.nvsim") == {"repro.units"}


def test_the_evaluations_key_covers_the_whole_package():
    assert STORE_SOURCES["evaluations"] is None
    names = {path.relative_to(PACKAGE_ROOT).as_posix() for path in source_files()}
    assert {"core/writebuffer.py", "studies/writebuffer_study.py"} <= names
    assert "dnn/proxy_weights.npz" in names


# -- edits on a copy of the package ------------------------------------------


@pytest.fixture
def package_copy(tmp_path):
    """A copy of the ``repro`` package under ``<tmp>/src/repro``."""
    root = tmp_path / "src" / "repro"
    shutil.copytree(PACKAGE_ROOT, root, ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _append_comment(root, relpath):
    with open(root / relpath, "a", encoding="utf-8") as handle:
        handle.write("# an edit\n")


def test_a_copy_keys_like_the_installed_package(package_copy):
    assert store_keys(package_copy) == store_keys()


@pytest.mark.parametrize(
    "relpath, moved",
    [
        ("nvsim/batch.py", {"arrays", "evaluations"}),
        ("units.py", {"arrays", "evaluations", "traces"}),
        ("traffic/base.py", {"evaluations", "traces"}),
        ("core/writebuffer.py", {"evaluations"}),
        ("studies/writebuffer_study.py", {"evaluations"}),
        ("viz/report.py", {"evaluations"}),
    ],
)
def test_an_edit_moves_exactly_the_keys_it_feeds(package_copy, relpath, moved):
    before = store_keys(package_copy)
    _append_comment(package_copy, relpath)
    after = store_keys(package_copy)
    assert {store for store in before if before[store] != after[store]} == moved


def _run_study(src, outdir, cache_dir):
    """One ``ext_synthetic_llc`` run of the package under ``src``; its telemetry."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run(
        [sys.executable, "-m", "repro.config.cli", "summary", str(outdir),
         "--only", "ext_synthetic_llc", "--cache-dir", str(cache_dir)],
        env=env, check=True, capture_output=True,
    )
    [entry] = json.loads((outdir / "manifest.json").read_text())["entries"]
    telemetry = entry["telemetry"]
    return {key: telemetry[key] for key in ("completed", "cached", "trace_simulated",
                                            "trace_cached", "evaluated", "eval_cached")}


def test_edits_miss_or_hit_end_to_end(package_copy, tmp_path):
    """A ``viz/`` edit keeps the array and trace hits; a ``units`` edit
    misses both; outputs never change."""
    src, cache = package_copy.parent, tmp_path / "cache"
    cold = _run_study(src, tmp_path / "cold", cache)
    assert cold["completed"] == 10 and cold["trace_simulated"] == 4
    assert cold["cached"] == cold["trace_cached"] == 0

    _append_comment(package_copy, "viz/report.py")
    warm = _run_study(src, tmp_path / "viz_edit", cache)
    assert (warm["completed"], warm["cached"]) == (0, 10)
    assert (warm["trace_simulated"], warm["trace_cached"]) == (0, 4)
    assert (warm["evaluated"], warm["eval_cached"]) == (10, 0)

    _append_comment(package_copy, "units.py")
    edited = _run_study(src, tmp_path / "units_edit", cache)
    assert (edited["completed"], edited["cached"]) == (10, 0)
    assert (edited["trace_simulated"], edited["trace_cached"]) == (4, 0)

    csv = Path("results") / "ext_synthetic_llc.csv"
    for run in ("viz_edit", "units_edit"):
        assert (tmp_path / run / csv).read_bytes() == (tmp_path / "cold" / csv).read_bytes()
