"""The schema-tag drift ratchet against the real source tree.

These tests make the pinned digests in ``repro/analysis/drift_pins.json``
part of tier-1: editing any cache-feeding module (the sets declared in
:data:`repro.runtime.fingerprint.SCHEMA_TAG_SOURCES`) without bumping
its schema tag — or bumping the tag without re-pinning — fails here and
in CI's ``nvmexplorer lint`` step, not at some later warm run that
silently serves stale semantics.
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.drift import (
    SchemaDriftRule,
    compute_pins,
    load_pins,
    pins_path_for,
    tag_source_files,
)
from repro.analysis.engine import run_lint
from repro.runtime.fingerprint import SCHEMA_TAG_SOURCES

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_registry_covers_every_live_schema_tag():
    """The registry names real tags defined where it says they are."""
    import repro.runtime.fingerprint as fingerprint
    import repro.runtime.shard as shard

    namespaces = {
        "repro.runtime.fingerprint": fingerprint,
        "repro.runtime.shard": shard,
    }
    for name, (defining_module, sources) in SCHEMA_TAG_SOURCES.items():
        namespace = namespaces[defining_module]
        assert isinstance(getattr(namespace, name), str), name
        assert sources, name


def test_tag_source_files_resolve_and_are_sorted():
    for name, (_, sources) in SCHEMA_TAG_SOURCES.items():
        files = tag_source_files(tuple(sources), SRC_REPRO)
        assert files == sorted(files), name
        assert files, name
        assert all(f.suffix == ".py" for f in files), name


def test_unknown_module_raises():
    with pytest.raises(FileNotFoundError):
        tag_source_files(("repro.no_such_module",), SRC_REPRO)


def test_committed_pins_match_the_tree():
    """THE ratchet: recomputed digests equal the committed pins.

    If this fails you changed cache-feeding source.  If the change
    alters what gets computed or stored, bump the tag named in the
    failure; either way re-pin with ``nvmexplorer lint --update-pins``
    and commit ``drift_pins.json``.
    """
    pinned = load_pins(pins_path_for(SRC_REPRO))
    assert pinned is not None, "drift_pins.json missing or invalid"
    current = compute_pins(SRC_REPRO)
    assert set(current) == set(pinned), (
        "SCHEMA_TAG_SOURCES and drift_pins.json disagree on which tags "
        "exist — re-pin via `nvmexplorer lint --update-pins`"
    )
    for name, entry in current.items():
        pin = pinned[name]
        assert entry["tag"] == pin["tag"], (
            f"{name} value changed without re-pinning — run "
            "`nvmexplorer lint --update-pins` and commit drift_pins.json"
        )
        assert entry["digest"] == pin["digest"], (
            f"source feeding {name} changed without a schema-tag bump; "
            f"cached entries keyed under {pin['tag']!r} may no longer "
            f"match fresh computations.  Bump the tag ({name} in "
            f"{SCHEMA_TAG_SOURCES[name][0]}) if the change affects "
            "results, then re-pin via `nvmexplorer lint --update-pins`"
        )


@pytest.fixture()
def copied_tree(tmp_path):
    """A private copy of ``src/repro`` the test can mutate freely."""
    shutil.copytree(SRC_REPRO, tmp_path / "repro")
    return tmp_path


def test_editing_batch_math_moves_the_digest(copied_tree):
    """Touching ``repro/nvsim/batch.py`` changes SCHEMA_TAG's digest."""
    before = compute_pins(copied_tree / "repro")["SCHEMA_TAG"]["digest"]
    batch = copied_tree / "repro" / "nvsim" / "batch.py"
    batch.write_text(
        batch.read_text(encoding="utf-8") + "\n# perturbed evaluation\n",
        encoding="utf-8",
    )
    after = compute_pins(copied_tree / "repro")["SCHEMA_TAG"]["digest"]
    assert after != before
    # ...and only SCHEMA_TAG's: batch.py feeds no other tag's module set.
    untouched = compute_pins(SRC_REPRO)
    moved = compute_pins(copied_tree / "repro")
    changed = {k for k in moved if moved[k]["digest"] != untouched[k]["digest"]}
    assert changed == {"SCHEMA_TAG"}


def perturb_batch(tree):
    batch = tree / "repro" / "nvsim" / "batch.py"
    batch.write_text(
        batch.read_text(encoding="utf-8") + "\n# perturbed evaluation\n",
        encoding="utf-8",
    )


def test_drift_rule_fails_on_unbumped_batch_edit(copied_tree):
    perturb_batch(copied_tree)
    findings = run_lint(copied_tree / "repro", rules=[SchemaDriftRule()]).findings
    assert len(findings) == 1
    assert findings[0].rule == "schema-drift"
    assert "SCHEMA_TAG" in findings[0].message
    assert "without a tag bump" in findings[0].message
    # Anchored at the tag assignment so the failure points at the bump site.
    assert findings[0].path == "repro/runtime/fingerprint.py"


def test_unbumped_row_codec_edit_reports_eval_drift(copied_tree):
    """The evaluation store's body format is pinned under EVAL_SCHEMA_TAG:
    letting float zeros be shared, with no tag bump, is a finding."""
    codec = copied_tree / "repro" / "runtime" / "rowcodec.py"
    source = codec.read_text(encoding="utf-8")
    assert "first == 0.0 or " in source
    codec.write_text(source.replace("first == 0.0 or ", ""), encoding="utf-8")
    moved = compute_pins(copied_tree / "repro")
    untouched = compute_pins(SRC_REPRO)
    changed = {k for k in moved if moved[k]["digest"] != untouched[k]["digest"]}
    assert changed == {"EVAL_SCHEMA_TAG"}
    findings = run_lint(copied_tree / "repro", rules=[SchemaDriftRule()]).findings
    assert len(findings) == 1
    assert "source feeding EVAL_SCHEMA_TAG changed without a tag bump" in findings[0].message
    assert findings[0].path == "repro/runtime/fingerprint.py"


def test_drift_rule_accepts_bump_plus_repin_flow(copied_tree):
    """A tag bump downgrades the failure to a re-pin request."""
    fingerprint = copied_tree / "repro" / "runtime" / "fingerprint.py"
    fingerprint.write_text(
        fingerprint.read_text(encoding="utf-8").replace('"array-cache-v1"', '"array-cache-v2"'),
        encoding="utf-8",
    )
    findings = run_lint(copied_tree / "repro", rules=[SchemaDriftRule()]).findings

    # fingerprint.py feeds three tag sets: the bumped one asks for a
    # re-pin, the other two correctly see un-bumped source drift.
    lines = fingerprint.read_text(encoding="utf-8").splitlines()

    def message_for(tag):
        # Findings anchor at the tag assignment, so the anchored line
        # identifies the tag unambiguously.
        matches = [f.message for f in findings if lines[f.line - 1].startswith(tag + " ")]
        assert len(matches) == 1, (tag, [f.message for f in findings])
        return matches[0]

    assert "tag value changed" in message_for("SCHEMA_TAG")
    assert "--update-pins" in message_for("SCHEMA_TAG")
    assert "without a tag bump" in message_for("TRACE_SCHEMA_TAG")
    assert "without a tag bump" in message_for("EVAL_SCHEMA_TAG")


def test_update_pins_repins_the_linted_tree_only(copied_tree, capsys):
    """``lint ROOT --update-pins`` re-pins ROOT's own pin file against
    ROOT's registry; the running package's pins stay untouched."""
    installed = pins_path_for(SRC_REPRO)
    before = installed.read_bytes()
    perturb_batch(copied_tree)
    root = copied_tree / "repro"
    assert lint_main([str(root), "--update-pins"]) == 0
    assert installed.read_bytes() == before
    assert lint_main([str(root)]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_root_not_named_repro_pins_like_the_real_tree(tmp_path):
    """Digests name files by their path under the package directory, so a
    copy under another name pins exactly like the real tree."""
    root = tmp_path / "notrepro"
    shutil.copytree(SRC_REPRO, root, ignore=shutil.ignore_patterns("__pycache__"))
    assert compute_pins(root) == compute_pins(SRC_REPRO)


def test_root_not_named_repro_reports_trace_drift(tmp_path, capsys):
    root = tmp_path / "notrepro"
    shutil.copytree(SRC_REPRO, root, ignore=shutil.ignore_patterns("__pycache__"))
    streams = root / "cachesim" / "streams.py"
    streams.write_text(
        streams.read_text(encoding="utf-8") + "\n# perturbed sampler\n",
        encoding="utf-8",
    )
    assert lint_main([str(root)]) == 1
    findings = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("notrepro/runtime/fingerprint.py:") and "[schema-drift]" in line
    ]
    assert len(findings) == 1
    assert "source feeding TRACE_SCHEMA_TAG changed without a tag bump" in findings[0]
