"""Rule ``determinism``: fingerprinted code paths must be reproducible.

The entire cache substrate assumes that the same inputs produce the
same bytes: content fingerprints key persistent entries, manifests are
merged by exactly-once point accounting, and CI asserts warm runs are
byte-identical to cold ones.  Any wall-clock read, unseeded RNG draw,
filesystem-order iteration, or set-order iteration on a fingerprinted
path silently breaks all of that.

Scope is computed, not grepped: the rule seeds a call-graph walk
(:mod:`repro.analysis.callgraph`) with

* every function in the model packages (``repro.nvsim``,
  ``repro.cachesim``) and in ``repro.runtime.fingerprint`` itself, and
* every function that directly calls the fingerprint API — computing a
  cache key marks a function as feeding the cache substrate;

then flags banned constructs in everything transitively reachable.
Wall-clock uses that are genuinely required carry an inline
``# repro: allow[determinism] reason``.

``time.monotonic``/``perf_counter`` are deliberately allowed — duration
measurement does not influence cached content — as are seeded RNGs
(``random.Random(seed)``, ``np.random.default_rng(seed)``).  Directory
listings are fine once wrapped in an order-neutral consumer
(``sorted``/``len``/``set``/``min``...).
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence, Tuple

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.engine import (
    Finding,
    LintContext,
    ModuleInfo,
    Rule,
    dotted_name,
    walk_scope,
)

__all__ = ["DeterminismRule"]

#: Packages whose every function is a reachability seed.
DEFAULT_ROOT_PACKAGES: Tuple[str, ...] = (
    "repro.nvsim",
    "repro.cachesim",
    "repro.runtime.fingerprint",
)

#: Calling anything from this module makes the caller a seed.
DEFAULT_FINGERPRINT_MODULE = "repro.runtime.fingerprint"

#: Fully-resolved call targets that read clocks or entropy.
BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "entropy read",
    "uuid.uuid1": "entropy/clock read",
    "uuid.uuid4": "entropy read",
    "secrets.token_bytes": "entropy read",
    "secrets.token_hex": "entropy read",
    "secrets.token_urlsafe": "entropy read",
}

#: Module-level :mod:`random` functions draw from the shared unseeded RNG.
_GLOBAL_RANDOM_FNS = (
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "triangular",
    "gauss",
    "normalvariate",
    "lognormvariate",
    "expovariate",
    "betavariate",
    "getrandbits",
    "randbytes",
)
BANNED_CALLS.update({f"random.{fn}": "unseeded global RNG draw" for fn in _GLOBAL_RANDOM_FNS})
BANNED_CALLS.update(
    {f"numpy.random.{fn}": "unseeded global RNG draw" for fn in _GLOBAL_RANDOM_FNS}
)
BANNED_CALLS.update(
    {
        "numpy.random.rand": "unseeded global RNG draw",
        "numpy.random.randn": "unseeded global RNG draw",
        "numpy.random.permutation": "unseeded global RNG draw",
    }
)

#: Listing calls that yield entries in filesystem order.
LISTING_CALLS = {"os.listdir", "os.scandir"}
LISTING_METHODS = {"iterdir", "glob", "rglob"}

#: Wrapping a listing in one of these makes iteration order irrelevant.
ORDER_NEUTRAL_WRAPPERS = {"sorted", "len", "set", "frozenset", "any", "all", "max", "min", "next"}


def _is_setlike(node: ast.AST) -> bool:
    """Does this expression evaluate to a set (iteration order undefined)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = dotted_name(node.func)
        if chain in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return _is_setlike(node.left) or _is_setlike(node.right)
    return False


def _wrapped_order_neutral(module: ModuleInfo, node: ast.AST) -> bool:
    """Is ``node`` consumed (within its statement) by an order-neutral
    call like ``sorted(...)`` or ``len(...)``?"""
    current = module.parents.get(node)
    while current is not None and not isinstance(current, ast.stmt):
        if isinstance(current, ast.Call):
            chain = dotted_name(current.func)
            if chain in ORDER_NEUTRAL_WRAPPERS:
                return True
        current = module.parents.get(current)
    return False


class DeterminismRule(Rule):
    """No clocks, entropy, or unordered iteration on fingerprinted paths."""

    id = "determinism"

    def __init__(
        self,
        root_packages: Sequence[str] = DEFAULT_ROOT_PACKAGES,
        fingerprint_module: str = DEFAULT_FINGERPRINT_MODULE,
    ) -> None:
        self.root_packages = tuple(root_packages)
        self.fingerprint_module = fingerprint_module

    # -- seeding -----------------------------------------------------------

    def _is_root_module(self, module_name: str) -> bool:
        for pkg in self.root_packages:
            if module_name == pkg or module_name.startswith(pkg + "."):
                return True
        return False

    def _seeds(self, graph: CallGraph) -> list[str]:
        prefix = self.fingerprint_module + "."
        seeds = []
        for qualname, fn in graph.functions.items():
            if self._is_root_module(fn.module):
                seeds.append(qualname)
                continue
            if any(target.startswith(prefix) for target, _ in fn.resolved_calls):
                seeds.append(qualname)
        return sorted(seeds)

    # -- checking ----------------------------------------------------------

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        graph = build_call_graph(ctx)
        origin = graph.reachable_from(self._seeds(graph))
        modules_by_name = ctx.modules

        for qualname in sorted(origin):
            fn = graph.functions[qualname]
            module = modules_by_name.get(fn.module)
            if module is None:
                continue
            chain = graph.chain(origin, qualname)
            via = "" if len(chain) == 1 else f" (reachable from fingerprinted root {chain[0]})"
            yield from self._check_function(ctx, module, graph, qualname, via)

    def _check_function(
        self,
        ctx: LintContext,
        module: ModuleInfo,
        graph: CallGraph,
        qualname: str,
        via: str,
    ) -> Iterator[Finding]:
        fn = graph.functions[qualname]
        for target, call in fn.resolved_calls:
            reason = BANNED_CALLS.get(target)
            if reason is not None:
                yield ctx.finding(
                    self.id,
                    module,
                    call,
                    f"{target}() in {qualname} is nondeterministic ({reason}){via}",
                )
            elif target == "numpy.random.default_rng" and not (call.args or call.keywords):
                yield ctx.finding(
                    self.id,
                    module,
                    call,
                    f"numpy.random.default_rng() without a seed in {qualname} "
                    f"draws OS entropy{via}",
                )
            elif target in LISTING_CALLS and not _wrapped_order_neutral(module, call):
                yield ctx.finding(
                    self.id,
                    module,
                    call,
                    f"{target}() in {qualname} yields filesystem order — "
                    f"wrap in sorted(...){via}",
                )
        for method, call in fn.unresolved_methods:
            if method in LISTING_METHODS and not _wrapped_order_neutral(module, call):
                yield ctx.finding(
                    self.id,
                    module,
                    call,
                    f".{method}() in {qualname} yields filesystem order — "
                    f"wrap in sorted(...){via}",
                )
        yield from self._check_set_iteration(ctx, module, fn.node, qualname, via)

    def _check_set_iteration(
        self,
        ctx: LintContext,
        module: ModuleInfo,
        scope: ast.AST,
        qualname: str,
        via: str,
    ) -> Iterator[Finding]:
        own_body = [
            n
            for n in scope.body
            if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for node in walk_scope(own_body):
            iters: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_setlike(it) and not _wrapped_order_neutral(module, it):
                    yield ctx.finding(
                        self.id,
                        module,
                        it,
                        f"iteration over a set in {qualname} has undefined "
                        f"order — iterate sorted(...){via}",
                    )
