"""Rule ``lock-coverage``: shared telemetry mutates under its lock.

:class:`repro.runtime.telemetry.SweepTelemetry` promises that every
counter mutation happens under ``self._lock``, so one telemetry value
may be emitted into, absorbed into and read from different threads.
That promise is easy to silently break — a new counter bumped outside
the lock races ``absorb()`` and produces off-by-some manifests only
under load.

This rule checks the promise statically: inside ``SweepTelemetry``,
any mutation of ``self.<attr>`` — assignment, augmented assignment,
``setattr(self, ...)``, or an in-place container mutation like
``self.failures.append(...)`` — must sit under a ``with self._lock:``
block, or in a method whose docstring declares the convention
``"caller holds the lock"`` (the documented pattern for internal
helpers invoked from locked sections).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.analysis.engine import (
    Finding,
    LintContext,
    ModuleInfo,
    Rule,
    dotted_name,
)

__all__ = ["LockCoverageRule"]

#: The guarded class, where it lives, and the lock attribute it mutates under.
GUARDED_MODULE = "repro.runtime.telemetry"
GUARDED_CLASS = "SweepTelemetry"
LOCK_ATTR = "_lock"

#: Method names that mutate a container in place.
_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "discard",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
}

#: Docstring marker for helpers that rely on the caller's lock.
_LOCK_HELD_MARKER = "holds the lock"


def _holds_lock_by_convention(fn: ast.AST) -> bool:
    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    doc = ast.get_docstring(fn)
    return doc is not None and _LOCK_HELD_MARKER in doc.lower()


class LockCoverageRule(Rule):
    """Counter mutation outside ``with self._lock`` in guarded classes."""

    id = "lock-coverage"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        module = ctx.modules.get(GUARDED_MODULE)
        if module is None:
            return
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == GUARDED_CLASS:
                yield from self._check_class(ctx, module, node)

    # -- helpers -----------------------------------------------------------

    def _under_lock(self, module: ModuleInfo, node: ast.AST) -> bool:
        lock_chain = f"self.{LOCK_ATTR}"
        current = module.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.With, ast.AsyncWith)):
                for item in current.items:
                    if dotted_name(item.context_expr) == lock_chain:
                        return True
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return _holds_lock_by_convention(current)
            current = module.parents.get(current)
        return False

    def _self_attr(self, node: ast.AST) -> Optional[str]:
        """``self.X`` -> ``X`` (only for direct attributes of ``self``)."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _check_class(
        self,
        ctx: LintContext,
        module: ModuleInfo,
        cls: ast.ClassDef,
    ) -> Iterator[Finding]:
        for node in ast.walk(cls):
            mutated = self._mutation_target(node)
            if mutated is None:
                continue
            attr, verb = mutated
            if attr == LOCK_ATTR:
                continue
            if self._under_lock(module, node):
                continue
            yield ctx.finding(
                self.id,
                module,
                node,
                f"{verb} of self.{attr} in {cls.name} outside "
                f"`with self.{LOCK_ATTR}:` — shared telemetry must mutate "
                "under its lock (or in a helper documented as "
                "'caller holds the lock')",
            )

    def _mutation_target(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        """``(attribute, kind-of-mutation)`` when this node mutates
        ``self.<attribute>``, else None."""
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = self._self_attr(target)
                if attr is not None:
                    return attr, "assignment"
        elif isinstance(node, ast.AugAssign):
            attr = self._self_attr(node.target)
            if attr is not None:
                return attr, "augmented assignment"
        elif isinstance(node, ast.Call):
            chain = dotted_name(node.func)
            if chain == "setattr" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Name) and first.id == "self":
                    return "<attr>", "setattr()"
            if (
                chain is not None
                and chain.startswith("self.")
                and chain.count(".") == 2
                and chain.split(".")[-1] in _MUTATOR_METHODS
            ):
                return chain.split(".")[1], "in-place mutation"
        return None
