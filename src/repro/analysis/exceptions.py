"""Rule ``except-safety``: runtime/service code must not eat interrupts.

The suite driver's resumability contract (SIGINT/SIGTERM land as
``KeyboardInterrupt``, partial manifests are written, exit code 130)
only works if no layer below it swallows the interrupt.  Two shapes
break it:

* a bare ``except:`` — catches ``KeyboardInterrupt`` and ``SystemExit``
  along with everything else;
* an ``except BaseException:`` / ``except KeyboardInterrupt:`` handler
  that never re-raises — cleanup handlers are fine (``tmp.unlink();
  raise`` is the house pattern), silent swallowing is not.

Scope is the runtime and service layers, where an eaten interrupt
corrupts the crash-recovery story; study/viz code may legitimately
catch broadly for reporting.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, LintContext, Rule

__all__ = ["ExceptSafetyRule"]

#: Package prefixes whose modules are checked.
SCOPES = ("repro.runtime", "repro.service")

#: Exception names whose handlers must re-raise.
_INTERRUPT_NAMES = {"BaseException", "KeyboardInterrupt", "SystemExit"}


def _names_in_handler_type(node) -> set:
    """Exception class names an ``except`` clause catches (best effort)."""
    if node is None:
        return set()
    if isinstance(node, ast.Tuple):
        out = set()
        for element in node.elts:
            out |= _names_in_handler_type(element)
        return out
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _reraises(handler: ast.ExceptHandler) -> bool:
    """Does the handler body (outside nested handlers) raise again?"""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


class ExceptSafetyRule(Rule):
    """Bare excepts and swallowed interrupts in runtime/service code."""

    id = "except-safety"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.modules.values():
            if not any(module.name == s or module.name.startswith(s + ".") for s in SCOPES):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    yield ctx.finding(
                        self.id,
                        module,
                        node,
                        "bare `except:` catches KeyboardInterrupt/SystemExit "
                        "— name the exceptions (or BaseException with a "
                        "re-raise)",
                    )
                    continue
                caught = _names_in_handler_type(node.type)
                if caught & _INTERRUPT_NAMES and not _reraises(node):
                    names = ", ".join(sorted(caught & _INTERRUPT_NAMES))
                    yield ctx.finding(
                        self.id,
                        module,
                        node,
                        f"handler catches {names} without re-raising — "
                        "interrupts must propagate for the resumable-"
                        "manifest contract (cleanup handlers end in "
                        "`raise`)",
                    )
