"""Fixtures shared by ``tests/`` and ``benchmarks/``.

The paper's claims are checked on the tables the study suite publishes:
:func:`suite` runs every registry study once per test session, uncached,
exactly as ``nvmexplorer summary`` does, and every claim test reads that
run instead of re-running a study with parameters of its own.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import pytest

from repro.results import ResultTable
from repro.studies.pipeline import REGISTRY
from repro.studies.summary import run_all


class SuiteRun(NamedTuple):
    """One suite run: each study's table and the directory of its CSVs."""

    tables: dict[str, ResultTable]
    out: Path


@pytest.fixture(scope="session")
def suite(tmp_path_factory) -> SuiteRun:
    """One uncached run of every registry study (``summary --force``)."""
    out = tmp_path_factory.mktemp("suite")
    run = run_all(out, incremental=False)
    assert [o.name for o in run.outcomes if o.ok] == list(REGISTRY)
    return SuiteRun(run.tables, out)
