"""Core of the invariant linter: parsed modules, findings, suppressions.

The analysis package statically enforces the contracts the runtime can
only check after the fact: the package must compute the same bytes
on every run, persistent writes must go tmp + ``os.replace``, telemetry
counters must mutate under their lock, and runtime/service code must not
swallow interrupts.  Each contract is a :class:`Rule`; this module owns
everything the rules share:

* :class:`LintContext` — every module under the lint root parsed once
  (AST, parent links, inline suppressions);
* :class:`Finding` — one violation, anchored to a file/line;
* inline suppressions — ``# repro: allow[rule-id] reason`` on the
  flagged line (or alone on the line above) waives that rule there; a
  suppression without a reason is itself a finding;
* :func:`default_rules` — the four rules, one instance each;
* AST helpers — :func:`dotted_name`, :func:`enclosing_function` and the
  import resolver (:func:`import_bindings` + :func:`resolve_chain`) that maps a
  call chain such as ``dt.datetime.now`` to ``datetime.datetime.now``.

Verdicts follow ``nvmexplorer fsck``'s convention: exit 0 when every
finding is suppressed, 1 when any violation stands.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Finding",
    "LintContext",
    "LintResult",
    "ModuleInfo",
    "Rule",
    "Suppression",
    "default_rules",
    "run_lint",
]

#: ``# repro: allow[rule-id[,rule-id...]] reason`` — the inline waiver.
_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[a-z0-9\-]+(?:\s*,\s*[a-z0-9\-]+)*)\]"
    r"(?P<reason>.*)$"
)

#: Rule id of engine-emitted findings about the suppressions themselves.
SUPPRESSION_RULE_ID = "suppression"


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


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow[...]`` comment."""

    line: int  # line the comment sits on
    rules: Tuple[str, ...]
    reason: str

    def covers(self, rule: str) -> bool:
        return rule in self.rules


@dataclass
class ModuleInfo:
    """One parsed source module plus the derived lookups rules need."""

    name: str  # dotted module name, rooted at the lint root's dir name
    path: Path
    tree: ast.Module
    #: child AST node -> parent (statement ancestry for wrapper checks).
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: line number -> parsed suppression comment on that line.
    suppressions: Dict[int, Suppression] = field(default_factory=dict)
    #: lines that hold nothing but a suppression comment: they waive the
    #: *next* line instead of their own.
    comment_only: Dict[int, bool] = field(default_factory=dict)

    def suppression_for(self, line: int, rule: str) -> Optional[Suppression]:
        """The waiver covering ``rule`` at ``line``, if any.

        A suppression applies to findings on its own line, or — when the
        comment is alone on its line — to the line directly below.
        """
        own = self.suppressions.get(line)
        if own is not None and own.covers(rule):
            return own
        above = self.suppressions.get(line - 1)
        if (
            above is not None
            and above.covers(rule)
            and self.comment_only.get(line - 1, False)
        ):
            return above
        return None


def _parse_suppressions(
    source: str,
) -> Tuple[Dict[int, Suppression], Dict[int, bool], List[Tuple[int, str]]]:
    """Extract suppression comments via the tokenizer (not string-matching).

    Returns ``(suppressions, comment_only, problems)`` where problems are
    ``(line, message)`` pairs for malformed waivers (missing reason).
    """
    suppressions: Dict[int, Suppression] = {}
    comment_only: Dict[int, bool] = {}
    problems: List[Tuple[int, str]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return suppressions, comment_only, problems
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_RE.search(token.string)
        if match is None:
            continue
        line = token.start[0]
        rules = tuple(part.strip() for part in match.group("rules").split(",") if part.strip())
        reason = match.group("reason").strip()
        if not reason:
            message = (
                "suppression is missing a reason: write "
                "`# repro: allow[rule-id] why this is safe`"
            )
            problems.append((line, message))
        suppressions[line] = Suppression(line=line, rules=rules, reason=reason)
        # A comment token preceded only by whitespace waives the next line.
        comment_only[line] = token.line[: token.start[1]].strip() == ""
    return suppressions, comment_only, problems


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
    #: Parse/suppression problems discovered while loading, as findings.
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
            suppressions, comment_only, problems = _parse_suppressions(source)
            for line, message in problems:
                load_findings.append(
                    Finding(
                        rule=SUPPRESSION_RULE_ID,
                        path=rel_str,
                        line=line,
                        col=0,
                        message=message,
                    )
                )
            modules[name] = ModuleInfo(
                name=name,
                path=path,
                tree=tree,
                parents=_link_parents(tree),
                suppressions=suppressions,
                comment_only=comment_only,
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
    findings: List[Finding]  # active violations (not suppressed)
    suppressed: List[Tuple[Finding, Suppression]]
    unused_suppressions: List[Finding]  # informational, never fatal


def run_lint(
    root: Union[str, Path],
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Lint every module under ``root`` with the given (or default) rules.

    Findings carrying a matching inline suppression are set aside (with
    the waiver's reason); suppressions that waived nothing are reported
    informationally so stale ones get cleaned up.
    """
    ctx = LintContext.load(root)
    rules = default_rules() if rules is None else list(rules)
    raw: List[Finding] = list(ctx.load_findings)
    for rule in rules:
        raw.extend(rule.check(ctx))
    raw.sort(key=Finding.sort_key)

    by_path = {ctx.rel(info): info for info in ctx.modules.values()}
    active: List[Finding] = []
    suppressed: List[Tuple[Finding, Suppression]] = []
    used: Dict[Tuple[str, int], set] = {}
    for finding in raw:
        info = by_path.get(finding.path)
        waiver = (
            info.suppression_for(finding.line, finding.rule)
            if info is not None and finding.rule != SUPPRESSION_RULE_ID
            else None
        )
        if waiver is not None and waiver.reason:
            suppressed.append((finding, waiver))
            used.setdefault((finding.path, waiver.line), set()).add(finding.rule)
        else:
            active.append(finding)

    unused: List[Finding] = []
    for info in ctx.modules.values():
        path = ctx.rel(info)
        for line, waiver in sorted(info.suppressions.items()):
            if not waiver.reason:
                continue  # already an active finding
            covered = used.get((path, line), set())
            for rule_id in waiver.rules:
                if rule_id not in covered:
                    unused.append(
                        Finding(
                            rule=SUPPRESSION_RULE_ID,
                            path=path,
                            line=line,
                            col=0,
                            message=(
                                f"suppression for [{rule_id}] no longer waives "
                                "anything here; remove it"
                            ),
                        )
                    )
    return LintResult(
        root=ctx.root,
        findings=active,
        suppressed=suppressed,
        unused_suppressions=unused,
    )


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
