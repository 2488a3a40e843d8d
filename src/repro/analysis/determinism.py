"""Rule ``determinism``: the package must compute the same bytes every run.

The entire cache substrate assumes that the same inputs produce the
same bytes: content fingerprints key persistent entries, manifests are
merged by exactly-once point accounting, and CI asserts warm runs are
byte-identical to cold ones.  Any wall-clock read, unseeded RNG draw,
filesystem-order iteration, or set-order iteration on a path that feeds
a fingerprint silently breaks all of that.

The rule checks every function and module body under the lint root:
a cache key is only as stable as everything it is computed from, and
the package is small enough that scanning all of it costs nothing.

``time.monotonic``/``perf_counter`` are deliberately allowed — duration
measurement does not influence cached content — as are seeded RNGs
(``random.Random(seed)``, ``np.random.default_rng(seed)``).  Directory
listings are fine once wrapped in an order-neutral consumer
(``sorted``/``len``/``set``/``min``...).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.analysis.engine import (
    Finding,
    LintContext,
    ModuleInfo,
    Rule,
    dotted_name,
    enclosing_function,
    import_bindings,
    resolve_chain,
)

__all__ = ["DeterminismRule"]

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
ORDER_NEUTRAL_WRAPPERS = {"sorted", "len", "set", "frozenset", "any", "all", "max", "min"}


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


def _call_problem(module: ModuleInfo, call: ast.Call, bindings: Dict[str, str]) -> Optional[str]:
    """Why this call is nondeterministic, or None when it is not."""
    chain = dotted_name(call.func)
    target = resolve_chain(chain, bindings) if chain is not None else None
    if target in BANNED_CALLS:
        return f"{target}() is nondeterministic ({BANNED_CALLS[target]})"
    if target == "numpy.random.default_rng" and not (call.args or call.keywords):
        return "numpy.random.default_rng() without a seed draws OS entropy"
    # Listing methods match by name whatever the receiver, so
    # ``(root / "sub").iterdir()`` counts as much as ``root.iterdir()``.
    if target in LISTING_CALLS:
        listing = target
    elif isinstance(call.func, ast.Attribute) and call.func.attr in LISTING_METHODS:
        listing = f".{call.func.attr}"
    else:
        return None
    if _wrapped_order_neutral(module, call):
        return None
    return f"{listing}() yields filesystem order — wrap in sorted(...)"


def _iterated(node: ast.AST) -> list:
    """The expressions a loop or comprehension iterates over."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return [gen.iter for gen in node.generators]
    return []


def _scope_name(module: ModuleInfo, node: ast.AST) -> str:
    fn = enclosing_function(module, node)
    return fn.name if fn is not None else "module level"


class DeterminismRule(Rule):
    """No clocks, entropy, or unordered iteration anywhere in the package."""

    id = "determinism"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.modules.values():
            bindings = import_bindings(module)
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call):
                    problem = _call_problem(module, node, bindings)
                    if problem is not None:
                        where = _scope_name(module, node)
                        yield ctx.finding(self.id, module, node, f"{problem} in {where}")
                for it in _iterated(node):
                    if _is_setlike(it) and not _wrapped_order_neutral(module, it):
                        yield ctx.finding(
                            self.id,
                            module,
                            it,
                            f"iteration over a set in {_scope_name(module, it)} has "
                            "undefined order — iterate sorted(...)",
                        )
