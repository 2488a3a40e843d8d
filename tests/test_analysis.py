"""The invariant linter: rule engine, rules, CLI."""

import shutil
import textwrap
from pathlib import Path

from repro.analysis import run_lint
from repro.analysis.determinism import DeterminismRule
from repro.analysis.exceptions import ExceptSafetyRule
from repro.analysis.iodiscipline import AtomicWriteRule
from repro.analysis.locks import LockCoverageRule
from repro.config.cli import main as cli_main

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"


def make_tree(tmp_path, files):
    """Materialize ``{relpath: source}`` under a ``repro`` package root.

    Files mirror real module names (``nvsim/model.py`` ->
    ``repro.nvsim.model``) so default rule configurations apply to the
    fixture unchanged.
    """
    root = tmp_path / "repro"
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body).lstrip("\n"), encoding="utf-8")
    return root


def lint_main(argv):
    """``nvmexplorer lint`` with ``argv``; its exit code."""
    return cli_main(["lint", *argv])


def rule_findings(root, rule):
    return run_lint(root, rules=[rule]).findings


# -- determinism -------------------------------------------------------------


class TestDeterminismRule:
    def test_wall_clock_in_root_package_is_flagged(self, tmp_path):
        files = {
            "nvsim/model.py": """
                import time

                def characterize():
                    return time.time()
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, DeterminismRule())
        assert len(findings) == 1
        assert findings[0].rule == "determinism"
        assert "time.time" in findings[0].message

    def test_reachability_crosses_module_boundaries(self, tmp_path):
        files = {
            "util.py": """
                import time

                def stamp():
                    return time.time()
            """,
            "nvsim/model.py": """
                from repro.util import stamp

                def characterize():
                    return stamp()
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, DeterminismRule())
        assert len(findings) == 1
        assert findings[0].path == "repro/util.py"

    def test_uncalled_helper_outside_model_packages_is_flagged(self, tmp_path):
        files = {
            "util.py": """
                import time

                def stamp():
                    return time.time()
            """,
            "nvsim/model.py": """
                def characterize():
                    return 42
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, DeterminismRule())
        assert len(findings) == 1
        assert findings[0].path == "repro/util.py"
        assert "time.time" in findings[0].message

    def test_fingerprint_caller_becomes_a_seed(self, tmp_path):
        files = {
            "runtime/fingerprint.py": """
                def point_fingerprint(payload):
                    return str(payload)
            """,
            "runtime/engine.py": """
                import random

                from repro.runtime.fingerprint import point_fingerprint

                def key_for(point):
                    point_fingerprint(point)
                    return random.random()
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, DeterminismRule())
        assert any("random.random" in f.message for f in findings)

    def test_unsorted_iterdir_flagged_sorted_is_not(self, tmp_path):
        files = {
            "nvsim/store.py": """
                def bad(root):
                    return [p.name for p in root.iterdir()]

                def good(root):
                    return [p.name for p in sorted(root.iterdir())]

                def counted(root):
                    return len(list(root.glob("*.json")))
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, DeterminismRule())
        assert len(findings) == 1
        assert ".iterdir()" in findings[0].message
        assert findings[0].line == 2

    def test_first_entry_of_a_listing_is_flagged(self, tmp_path, capsys):
        # next() returns whichever entry the filesystem lists first.
        files = {
            "nvsim/pick.py": """
                def pick(root):
                    return next(root.iterdir())
            """,
        }
        root = make_tree(tmp_path, files)
        assert lint_main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "repro/nvsim/pick.py:2:" in out
        assert "[determinism]" in out
        assert ".iterdir()" in out

    def test_listing_on_an_expression_receiver_is_flagged(self, tmp_path):
        files = {
            "nvsim/store.py": """
                def bad(root):
                    return [p.name for p in (root / "sub").iterdir()]

                def good(root):
                    return sorted((root / "sub").iterdir())
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, DeterminismRule())
        assert len(findings) == 1
        assert ".iterdir()" in findings[0].message
        assert findings[0].line == 2

    def test_set_iteration_flagged_sorted_is_not(self, tmp_path):
        files = {
            "nvsim/interp.py": """
                def bad(lo, hi):
                    return [k for k in set(lo) | set(hi)]

                def good(lo, hi):
                    return [k for k in sorted(set(lo) | set(hi))]
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, DeterminismRule())
        assert len(findings) == 1
        assert "undefined" in findings[0].message

    def test_monotonic_clocks_are_allowed(self, tmp_path):
        files = {
            "nvsim/model.py": """
                import time

                def timed():
                    return time.perf_counter() - time.monotonic()
            """,
        }
        root = make_tree(tmp_path, files)
        assert rule_findings(root, DeterminismRule()) == []

    def test_allow_comment_does_not_waive(self, tmp_path):
        files = {
            "nvsim/model.py": """
                import time

                def characterize():
                    return time.time()  # repro: allow[determinism] display only
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, DeterminismRule())
        assert [(f.rule, f.line) for f in findings] == [("determinism", 4)]


# -- atomic-write ------------------------------------------------------------


class TestAtomicWriteRule:
    def test_bare_write_text_is_flagged(self, tmp_path):
        files = {
            "runtime/cache.py": """
                def save(path, text):
                    path.write_text(text)
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, AtomicWriteRule())
        assert len(findings) == 1
        assert "write_text" in findings[0].message

    def test_write_on_an_expression_receiver_is_flagged(self, tmp_path):
        files = {
            "runtime/cache.py": """
                def save(out, name, text):
                    (out / name).write_text(text)
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, AtomicWriteRule())
        assert len(findings) == 1
        assert ".write_text()" in findings[0].message

    def test_bare_write_in_studies_summary_is_flagged(self, tmp_path):
        files = {
            "studies/summary.py": """
                from repro.runtime.cache import atomic_write_bytes

                def _write_artifacts(outcome, report_path, out):
                    atomic_write_bytes(out / "a.csv", outcome.csv)
                    report_path.write_text(outcome.report)
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, AtomicWriteRule())
        assert len(findings) == 1
        assert "_write_artifacts" in findings[0].message

    def test_staged_replace_in_same_function_is_compliant(self, tmp_path):
        files = {
            "runtime/cache.py": """
                import os

                def save(path, tmp, text):
                    tmp.write_text(text)
                    os.replace(tmp, path)
            """,
        }
        root = make_tree(tmp_path, files)
        assert rule_findings(root, AtomicWriteRule()) == []

    def test_open_for_write_is_flagged_read_is_not(self, tmp_path):
        files = {
            "runtime/cache.py": """
                def save(path, text):
                    with open(path, "w") as fh:
                        fh.write(text)

                def load(path):
                    with open(path) as fh:
                        return fh.read()
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, AtomicWriteRule())
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_atomic_helper_is_compliant(self, tmp_path):
        files = {
            "runtime/cache.py": """
                from repro.runtime.cache import atomic_write_bytes

                def save(path, data):
                    atomic_write_bytes(path, data)
            """,
        }
        root = make_tree(tmp_path, files)
        assert rule_findings(root, AtomicWriteRule()) == []

    def test_modules_outside_persistence_set_are_ignored(self, tmp_path):
        files = {
            "viz/report.py": """
                def save(path, text):
                    path.write_text(text)
            """,
        }
        root = make_tree(tmp_path, files)
        assert rule_findings(root, AtomicWriteRule()) == []


# -- lock-coverage -----------------------------------------------------------


class TestLockCoverageRule:
    def test_unlocked_counter_bump_is_flagged(self, tmp_path):
        files = {
            "runtime/telemetry.py": """
                import threading

                class SweepTelemetry:
                    def __init__(self):
                        self._lock = threading.Lock()
                        with self._lock:
                            self.completed = 0

                    def bump(self):
                        self.completed += 1
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, LockCoverageRule())
        assert len(findings) == 1
        assert "self.completed" in findings[0].message
        assert findings[0].line == 10

    def test_locked_mutation_and_documented_helper_pass(self, tmp_path):
        files = {
            "runtime/telemetry.py": """
                import threading

                class SweepTelemetry:
                    def __init__(self):
                        self._lock = threading.Lock()
                        with self._lock:
                            self.completed = 0
                            self.failures = []

                    def bump(self):
                        with self._lock:
                            self.completed += 1
                            self.failures.append("x")

                    def _count(self, n):
                        \"\"\"Caller holds the lock.\"\"\"
                        self.completed += n
            """,
        }
        root = make_tree(tmp_path, files)
        assert rule_findings(root, LockCoverageRule()) == []

    def test_in_place_container_mutation_is_flagged(self, tmp_path):
        files = {
            "runtime/telemetry.py": """
                import threading

                class SweepTelemetry:
                    def __init__(self):
                        self._lock = threading.Lock()
                        with self._lock:
                            self.failures = []

                    def record(self, item):
                        self.failures.append(item)
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, LockCoverageRule())
        assert len(findings) == 1
        assert "in-place mutation" in findings[0].message


# -- except-safety -----------------------------------------------------------


class TestExceptSafetyRule:
    def test_root_not_named_repro_is_checked(self, tmp_path, capsys):
        """Rules scope to ``repro.*`` whatever ROOT's directory is called."""
        root = tmp_path / "notrepro"
        shutil.copytree(SRC_REPRO, root, ignore=shutil.ignore_patterns("__pycache__"))
        executor = root / "runtime" / "executor.py"
        executor.write_text(
            executor.read_text(encoding="utf-8") + "\ntry:\n    pass\nexcept:\n    pass\n",
            encoding="utf-8",
        )
        assert lint_main([str(root)]) == 1
        findings = capsys.readouterr().out.splitlines()
        assert any(
            line.startswith("notrepro/runtime/executor.py:") and "[except-safety]" in line
            for line in findings
        )

    def test_bare_except_is_flagged(self, tmp_path):
        files = {
            "runtime/worker.py": """
                def run(task):
                    try:
                        task()
                    except:
                        pass
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, ExceptSafetyRule())
        assert len(findings) == 1
        assert "bare `except:`" in findings[0].message

    def test_swallowed_interrupt_is_flagged_reraise_is_not(self, tmp_path):
        files = {
            "runtime/worker.py": """
                def swallow(task):
                    try:
                        task()
                    except KeyboardInterrupt:
                        pass

                def cleanup(task, tmp):
                    try:
                        task()
                    except BaseException:
                        tmp.unlink(missing_ok=True)
                        raise
            """,
        }
        root = make_tree(tmp_path, files)
        findings = rule_findings(root, ExceptSafetyRule())
        assert len(findings) == 1
        assert "KeyboardInterrupt" in findings[0].message
        assert findings[0].line == 4

    def test_out_of_scope_modules_are_ignored(self, tmp_path):
        files = {
            "viz/plots.py": """
                def render(fn):
                    try:
                        fn()
                    except:
                        pass
            """,
        }
        root = make_tree(tmp_path, files)
        assert rule_findings(root, ExceptSafetyRule()) == []


# -- CLI ---------------------------------------------------------------------


DIRTY_TREE = {
    "nvsim/model.py": """
        import time

        def characterize():
            return time.time()
    """,
}


class TestCli:
    def test_cli_dirty_tree_exits_one(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY_TREE)
        assert lint_main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "repro/nvsim/model.py:4:11: [determinism] time.time()" in out
        assert "1 violation(s) [determinism]" in out

    def test_cli_clean_tree_exits_zero(self, tmp_path, capsys):
        files = {
            "nvsim/model.py": "def characterize():\n    return 42\n",
        }
        root = make_tree(tmp_path, files)
        assert lint_main([str(root)]) == 0

    def test_cli_missing_root_is_usage_error(self, tmp_path):
        assert lint_main([str(tmp_path / "nope")]) == 2


# -- the repo lints itself ---------------------------------------------------


class TestSelfLint:
    def test_src_repro_is_clean(self):
        result = run_lint(SRC_REPRO)
        assert result.findings == [], (
            "src/repro violates its own invariants:\n"
            + "\n".join(f.format() for f in result.findings)
        )
