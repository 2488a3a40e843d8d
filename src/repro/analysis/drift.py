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
import json
from pathlib import Path
from typing import Iterator, Mapping, Optional, Tuple, Union

from repro.analysis.engine import Finding, LintContext, Rule

__all__ = [
    "SchemaDriftRule",
    "compute_pins",
    "load_pins",
    "pins_path_for",
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


def compute_pins(
    package_root: Union[str, Path],
    registry: Optional[Mapping[str, tuple]] = None,
) -> dict:
    """Recompute every tag's pin entry against one source tree.

    ``package_root`` is the directory *containing* the ``repro`` package
    (i.e. the lint root's parent).  Tag values come from the defining
    module's AST.
    """
    from repro.runtime.fingerprint import tag_source_digest

    if registry is None:
        from repro.runtime.fingerprint import SCHEMA_TAG_SOURCES as registry

    package_root = Path(package_root)
    pins: dict = {}
    for name in sorted(registry):
        defining_module, sources = registry[name]
        module_path = package_root / (Path(*defining_module.split(".")).as_posix() + ".py")
        tag_value = None
        if module_path.is_file():
            found = _static_tag_assignment(
                ast.parse(module_path.read_text(encoding="utf-8")), name
            )
            if found is not None:
                tag_value = found[1]
        pins[name] = {
            "tag": tag_value,
            "digest": tag_source_digest(tuple(sources), package_root),
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
    pins = compute_pins(ctx.root.parent, _registry(ctx))
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
        package_root = ctx.root.parent
        try:
            current = compute_pins(package_root, registry)
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
