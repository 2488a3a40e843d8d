"""Core of the invariant linter: parsed modules, findings, rules.

The analysis package statically enforces the contracts the runtime can
only check after the fact: the package must compute the same bytes
on every run, persistent writes must go tmp + ``os.replace``, telemetry
counters must mutate under their lock, and runtime/service code must not
swallow interrupts.  Each contract is a :class:`Rule`; this module owns
everything the rules share:

* :class:`LintContext` — every module under the lint root parsed once
  (AST and parent links);
* :class:`Finding` — one violation, anchored to a file/line;
* :func:`default_rules` — the four rules, one instance each;
* AST helpers — :func:`dotted_name`, :func:`enclosing_function` and the
  import resolver (:func:`import_bindings` + :func:`resolve_chain`) that maps a
  call chain such as ``dt.datetime.now`` to ``datetime.datetime.now``.

There are no inline waivers: code that breaks a rule is changed, or
the rule is.  Verdicts follow ``nvmexplorer fsck``'s convention: exit 0
when there is no finding, 1 when any violation stands.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

__all__ = [
    "Finding",
    "LintContext",
    "LintResult",
    "ModuleInfo",
    "Rule",
    "default_rules",
    "run_lint",
]


@dataclass(frozen=True)
class Finding:
    """One invariant violation, anchored to a source line."""

    rule: str
    path: str  # relative to the lint root's parent (e.g. "repro/runtime/x.py")
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass
class ModuleInfo:
    """One parsed source module plus the derived lookups rules need."""

    name: str  # dotted module name, rooted at the lint root's dir name
    path: Path
    tree: ast.Module
    #: child AST node -> parent (statement ancestry for wrapper checks).
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)


def _link_parents(tree: ast.Module) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


@dataclass
class LintContext:
    """Every module under one lint root, parsed once and shared by rules."""

    root: Path  # the package directory being linted (e.g. .../src/repro)
    modules: Dict[str, ModuleInfo]
    #: Modules that do not parse, as findings.
    load_findings: List[Finding] = field(default_factory=list)

    @classmethod
    def load(cls, root: Union[str, Path]) -> "LintContext":
        root = Path(root).resolve()
        if not root.is_dir():
            raise FileNotFoundError(f"lint root {root} is not a directory")
        base = root.parent
        modules: Dict[str, ModuleInfo] = {}
        load_findings: List[Finding] = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(base)
            # Rules scope to ``repro.*``: ROOT is the package, whatever
            # its directory is called.
            name = ".".join(("repro", *path.relative_to(root).with_suffix("").parts))
            if name.endswith(".__init__"):
                name = name[: -len(".__init__")]
            source = path.read_text(encoding="utf-8")
            rel_str = rel.as_posix()
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                load_findings.append(
                    Finding(
                        rule="parse",
                        path=rel_str,
                        line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1,
                        message=f"module does not parse: {exc.msg}",
                    )
                )
                continue
            modules[name] = ModuleInfo(
                name=name,
                path=path,
                tree=tree,
                parents=_link_parents(tree),
            )
        return cls(root=root, modules=modules, load_findings=load_findings)

    def rel(self, module: ModuleInfo) -> str:
        return module.path.relative_to(self.root.parent).as_posix()

    def finding(
        self,
        rule: str,
        module: ModuleInfo,
        node_or_line,
        message: str,
        col: Optional[int] = None,
    ) -> Finding:
        """Build a finding anchored at an AST node (or explicit line)."""
        if isinstance(node_or_line, int):
            line, column = node_or_line, col or 0
        else:
            line = getattr(node_or_line, "lineno", 1)
            column = getattr(node_or_line, "col_offset", 0) if col is None else col
        return Finding(
            rule=rule,
            path=self.rel(module),
            line=line,
            col=column,
            message=message,
        )


class Rule:
    """One invariant check.  Subclasses set ``id`` and yield findings
    from :meth:`check`."""

    id: str = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError


def default_rules() -> List[Rule]:
    """Fresh, default-configured instances of the four rules."""
    # Imported here because every rule module imports this one.
    from repro.analysis.determinism import DeterminismRule
    from repro.analysis.exceptions import ExceptSafetyRule
    from repro.analysis.iodiscipline import AtomicWriteRule
    from repro.analysis.locks import LockCoverageRule

    return [
        DeterminismRule(),
        ExceptSafetyRule(),
        AtomicWriteRule(),
        LockCoverageRule(),
    ]


@dataclass
class LintResult:
    """Everything one lint pass produced."""

    root: Path
    findings: List[Finding]  # every violation, sorted by location


def run_lint(
    root: Union[str, Path],
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Lint every module under ``root`` with the given (or default) rules."""
    ctx = LintContext.load(root)
    rules = default_rules() if rules is None else list(rules)
    findings: List[Finding] = list(ctx.load_findings)
    for rule in rules:
        findings.extend(rule.check(ctx))
    findings.sort(key=Finding.sort_key)
    return LintResult(root=ctx.root, findings=findings)


def enclosing_function(
    module: ModuleInfo, node: ast.AST
) -> Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
    """The nearest function definition an AST node sits inside."""
    current = module.parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = module.parents.get(current)
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a pure ``Name``/``Attribute`` chain as ``a.b.c`` (else None)."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def import_bindings(module: ModuleInfo) -> Dict[str, str]:
    """Local name -> dotted target for every import in one module."""
    bindings: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                bindings[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                # Relative imports: resolve against this module's package.
                package_parts = module.name.split(".")
                # level=1 strips the module name itself, deeper levels walk up.
                base = package_parts[: len(package_parts) - max(node.level, 1)]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                bindings[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return bindings


def resolve_chain(chain: str, bindings: Dict[str, str]) -> str:
    """Expand a dotted call chain through the module's import bindings."""
    head, _, rest = chain.partition(".")
    target = bindings.get(head)
    if target is None:
        return chain
    return f"{target}.{rest}" if rest else target
