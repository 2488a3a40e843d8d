"""Rule ``schema-drift``: cache-feeding source may not change tag-silently.

The persistent caches are only safe because every schema tag versions
the code that produces its payloads: bump the tag and every stale entry
becomes unreachable; *forget* to bump it and a warm cache silently
serves results computed by old semantics.  Runtime can't detect the
forgotten bump — by construction the fingerprints still match.  This
rule makes it a PR-time failure:

* :data:`repro.runtime.fingerprint.SCHEMA_TAG_SOURCES` declares which
  modules feed each tag;
* ``repro/analysis/drift_pins.json`` (committed) pins each set's content
  digest next to the tag value it was pinned against; the rule reads
  (and ``--update-pins`` writes) the pin file *of the linted tree*;
* the rule recomputes the digests: a moved digest under an unmoved tag
  is the violation; a moved tag or module set just needs a re-pin
  (``nvmexplorer lint --update-pins``).

Tag values are read *statically* from the defining module's AST (a
``NAME = "literal"`` assignment), so the check works on any source tree
without importing it.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import Iterator, Mapping, Optional, Tuple, Union

from repro.analysis.engine import Finding, LintContext, Rule

__all__ = [
    "SchemaDriftRule",
    "compute_pins",
    "load_pins",
    "pins_path_for",
    "tag_source_digest",
    "tag_source_files",
    "update_pins",
    "write_pins",
]

PINS_SCHEMA = "drift-pins-v1"  # repro: allow[schema-drift] lint-tool file format, not a runtime cache payload


def pins_path_for(root: Union[str, Path]) -> Path:
    """The committed pin file of the package at ``root``: it ships inside
    the package, so the ratchet travels with the source it describes."""
    return Path(root) / "analysis" / "drift_pins.json"


#: Names that look like cache schema tags; any assignment matching this
#: that the registry does not cover is itself a finding (a new cache
#: layer must opt into the ratchet).
_TAG_NAME_HINTS = ("SCHEMA_TAG", "_SCHEMA", "SCHEMA_")


def _looks_like_tag(name: str) -> bool:
    return name.isupper() and any(hint in name for hint in _TAG_NAME_HINTS)


def _static_tag_assignment(tree: ast.Module, name: str) -> Optional[Tuple[int, str]]:
    """``(line, value)`` of a module-level ``NAME = "literal"``."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        if (
            name in targets
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            return node.lineno, node.value.value
    return None


def _registry(ctx: LintContext) -> Mapping[str, tuple]:
    """The tag registry, parsed statically from the linted tree.

    Reads ``SCHEMA_TAG_SOURCES`` out of the fingerprint module's AST via
    ``ast.literal_eval``, falling back to the imported registry when the
    linted tree has none (e.g. fixture trees in tests).
    """
    module = ctx.modules.get("repro.runtime.fingerprint")
    if module is not None:
        for node in module.tree.body:
            value = None
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                value = node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
                value = node.value
            else:
                continue
            if "SCHEMA_TAG_SOURCES" in names and value is not None:
                try:
                    parsed = ast.literal_eval(value)
                except (ValueError, SyntaxError):
                    continue
                if isinstance(parsed, dict):
                    return parsed
    from repro.runtime.fingerprint import SCHEMA_TAG_SOURCES

    return SCHEMA_TAG_SOURCES


def _module_path(root: Path, dotted: str) -> Path:
    """Where ``repro.x.y`` lives under the package directory ``root``,
    whatever that directory is named (without a suffix)."""
    return root.joinpath(*dotted.split(".")[1:])


def tag_source_files(source_modules: tuple[str, ...], root: Union[str, Path]) -> list[Path]:
    """The source files one tag's module set covers, sorted.

    ``root`` is the ``repro`` package directory.  A dotted name resolving
    to a package directory covers every ``*.py`` under it recursively; a
    plain module covers its single file.
    """
    root = Path(root)
    files: set = set()
    for dotted in source_modules:
        path = _module_path(root, dotted)
        if path.is_dir():
            files |= set(path.rglob("*.py"))
        elif path.with_suffix(".py").is_file():
            files.add(path.with_suffix(".py"))
        else:
            raise FileNotFoundError(f"schema-tag source module {dotted!r} not found under {root}")
    return sorted(files)


def tag_source_digest(source_modules: tuple[str, ...], root: Union[str, Path]) -> str:
    """Content digest of one tag's module set (mtime-independent).

    Each file is named ``repro/<path under root>``, so a copy of the
    package digests like the original whatever its directory is called.
    Raw bytes participate, like :func:`repro.runtime.shard.source_digest`
    — deliberately stricter than semantic hashing, so even a comment-only
    edit to cache-feeding code forces an explicit re-pin (attesting the
    change is semantics-preserving) or a tag bump.
    """
    root = Path(root)
    digest = hashlib.sha256()
    for path in tag_source_files(source_modules, root):
        digest.update(f"repro/{path.relative_to(root).as_posix()}".encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def compute_pins(
    root: Union[str, Path],
    registry: Optional[Mapping[str, tuple]] = None,
) -> dict:
    """Recompute every tag's pin entry against one source tree.

    ``root`` is the ``repro`` package directory (the lint root), whatever
    it is named.  Tag values come from the defining module's AST.
    """
    if registry is None:
        from repro.runtime.fingerprint import SCHEMA_TAG_SOURCES as registry

    root = Path(root)
    pins: dict = {}
    for name in sorted(registry):
        defining_module, sources = registry[name]
        module_path = _module_path(root, defining_module).with_suffix(".py")
        tag_value = None
        if module_path.is_file():
            found = _static_tag_assignment(
                ast.parse(module_path.read_text(encoding="utf-8")), name
            )
            if found is not None:
                tag_value = found[1]
        pins[name] = {
            "tag": tag_value,
            "digest": tag_source_digest(tuple(sources), root),
            "sources": sorted(sources),
        }
    return pins


def load_pins(path: Union[str, Path]) -> Optional[dict]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) or payload.get("schema") != PINS_SCHEMA:
        return None
    pins = payload.get("pins")
    return pins if isinstance(pins, dict) else None


def update_pins(root: Union[str, Path]) -> Tuple[Path, dict]:
    """Re-pin the tree at ``root`` against its own tag registry, into its
    own pin file; returns ``(pin file, pins)``."""
    ctx = LintContext.load(root)
    pins = compute_pins(ctx.root, _registry(ctx))
    path = pins_path_for(ctx.root)
    write_pins(path, pins)
    return path, pins


def write_pins(path: Union[str, Path], pins: dict) -> None:
    """Atomically (tmp + replace) persist recomputed pins."""
    from repro.runtime.cache import atomic_write_text

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        path,
        json.dumps({"schema": PINS_SCHEMA, "pins": pins}, indent=2, sort_keys=True) + "\n",
    )


class SchemaDriftRule(Rule):
    """Pinned source digests must move together with their schema tags."""

    id = "schema-drift"

    def __init__(
        self,
        pins_path: Optional[Union[str, Path]] = None,
        registry: Optional[Mapping[str, tuple]] = None,
    ) -> None:
        self.pins_path = None if pins_path is None else Path(pins_path)
        self.registry = registry

    def _anchor(self, ctx: LintContext, defining_module: str, name: str):
        """``(module_info, line)`` of the tag assignment, best effort."""
        module = ctx.modules.get(defining_module)
        if module is None:
            return None, 1
        found = _static_tag_assignment(module.tree, name)
        return module, (found[0] if found else 1)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        registry = self.registry if self.registry is not None else _registry(ctx)
        try:
            current = compute_pins(ctx.root, registry)
        except FileNotFoundError as exc:
            fingerprint = ctx.modules.get("repro.runtime.fingerprint")
            if fingerprint is not None:
                yield ctx.finding(
                    self.id,
                    fingerprint,
                    1,
                    f"schema-tag registry names missing source: {exc}",
                )
            return
        pins_path = self.pins_path or pins_path_for(ctx.root)
        pinned = load_pins(pins_path)

        for name in sorted(registry):
            defining_module, _ = registry[name]
            module, line = self._anchor(ctx, defining_module, name)
            if module is None:
                continue
            entry = current[name]
            pin = (pinned or {}).get(name)
            if pin is None:
                yield ctx.finding(
                    self.id,
                    module,
                    line,
                    f"{name} has no pinned source digest — run "
                    "`nvmexplorer lint --update-pins` and commit "
                    f"{pins_path.name}",
                )
                continue
            tag_moved = entry["tag"] != pin.get("tag")
            sources_moved = sorted(entry["sources"]) != sorted(pin.get("sources", []))
            if tag_moved or sources_moved:
                what = "tag value" if tag_moved else "source module set"
                yield ctx.finding(
                    self.id,
                    module,
                    line,
                    f"{name} {what} changed since its pin — re-pin via "
                    "`nvmexplorer lint --update-pins` (a tag bump already "
                    "invalidated the cache; the pin just records it)",
                )
            elif entry["digest"] != pin.get("digest"):
                yield ctx.finding(
                    self.id,
                    module,
                    line,
                    f"source feeding {name} changed without a tag bump "
                    f"(digest {entry['digest'][:12]}… != pinned "
                    f"{str(pin.get('digest'))[:12]}…) — cached results may "
                    f"no longer match fresh runs; bump {name} if semantics "
                    "changed, or re-pin via `nvmexplorer lint --update-pins` "
                    "if not",
                )

        # A tag-looking constant the registry does not cover is a new
        # cache layer dodging the ratchet.
        for module in ctx.modules.values():
            for node in module.tree.body:
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and _looks_like_tag(target.id)
                        and target.id not in registry
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str)
                    ):
                        yield ctx.finding(
                            self.id,
                            module,
                            node,
                            f"{target.id} looks like a cache schema tag but "
                            "is not covered by SCHEMA_TAG_SOURCES — add it "
                            "to the drift ratchet (repro.runtime."
                            "fingerprint) or rename it",
                        )
