"""Rule ``atomic-write``: persistent stores write tmp + ``os.replace``.

Every durable artifact in the cache/queue/manifest layer is written by
staging a unique temp file and atomically renaming it into place
(:func:`repro.runtime.cache._tmp_path_for` + ``os.replace``), so a
crashed writer can never leave a truncated entry that a later run (or
fsck) mistakes for data.  A bare ``open(path, "w")`` / ``write_text`` /
``write_bytes`` in those modules silently reintroduces the torn-write
window that PR 7's crash-recovery work closed.

The check is function-local: a write call is compliant when its
enclosing function also renames something into place (``os.replace`` /
``os.rename``) or delegates to one of the atomic helpers.  Read-only opens and
explicit temp-staging writes therefore pass without annotation.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.callgraph import _import_bindings, resolve_chain
from repro.analysis.engine import (
    Finding,
    LintContext,
    ModuleInfo,
    Rule,
    dotted_name,
    enclosing_function,
    register_rule,
)

__all__ = ["AtomicWriteRule"]

#: Modules that own persistent state (caches, manifests, stamps).
DEFAULT_PERSISTENCE_MODULES = (
    "repro.runtime.cache",
    "repro.runtime.shard",
    "repro.runtime.fsck",
    "repro.service.warm",
)

#: Calling any of these inside the function marks it atomic-compliant.
_RENAME_CALLS = {"os.replace", "os.rename"}
_ATOMIC_HELPERS = {"atomic_write_text", "atomic_write_json", "_write_json"}

_WRITE_METHODS = {"write_text", "write_bytes"}


def _open_write_mode(call: ast.Call) -> bool:
    """Is this ``open(...)`` call opening for writing?"""
    mode = None
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        mode = call.args[1].value
    for keyword in call.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            mode = keyword.value.value
    return isinstance(mode, str) and any(c in mode for c in "wax+")


@register_rule
class AtomicWriteRule(Rule):
    """Bare writes in persistence modules bypass tmp + ``os.replace``."""

    id = "atomic-write"
    summary = (
        "persistent-store modules must stage writes to a temp file and "
        "os.replace() them into place"
    )

    def __init__(self, modules: Sequence[str] = DEFAULT_PERSISTENCE_MODULES) -> None:
        self.modules = tuple(modules)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for name in self.modules:
            module = ctx.modules.get(name)
            if module is None:
                continue
            yield from self._check_module(ctx, module)

    def _check_module(self, ctx: LintContext, module: ModuleInfo) -> Iterator[Finding]:
        bindings = _import_bindings(module)
        compliant_fns = set()  # functions that rename or call a helper
        writes = []  # (function-or-None, call node, description)

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None:
                continue
            resolved = resolve_chain(chain, bindings)
            owner = enclosing_function(module, node)
            leaf = chain.split(".")[-1]
            if resolved in _RENAME_CALLS or leaf in _ATOMIC_HELPERS:
                compliant_fns.add(owner)
            elif leaf in _WRITE_METHODS and "." in chain:
                writes.append((owner, node, f".{leaf}()"))
            elif resolved == "open" and _open_write_mode(node):
                writes.append((owner, node, 'open(..., "w")'))

        for owner, call, description in writes:
            if owner in compliant_fns:
                continue
            where = owner.name if owner is not None else "module level"
            yield ctx.finding(
                self.id,
                module,
                call,
                f"bare {description} in {where} bypasses the tmp + "
                "os.replace discipline — stage to a temp path "
                "(_tmp_path_for) and os.replace() it into place, or use an "
                "atomic_write_* helper",
            )
