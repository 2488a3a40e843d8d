"""Layer spans for the traced benchmark run, recorded from outside the program.

:func:`install` wraps the public entry point of each layer listed in
:data:`LAYERS` and rebinds **every** module-level alias of it across the
loaded ``repro`` modules, not only its home module: ``core.engine``
imports ``characterize_points`` by name, ``studies.summary`` imports
``study_report`` by name, and a wrapper on the home module alone would
never see those calls.  Methods are wrapped on their class, which covers
every instance and subclass.  A layer whose entry point is missing or has
no binding to rebind raises :class:`LayerError` instead of reading as 0 s.

Spans nest on one stack.  Each records inclusive time, self time
(inclusive minus the time of its child spans) and a call count.  A
re-entrant call of a layer already on the stack is passed through
untimed, so inclusive time is never counted twice.  Spans opened with an
empty stack are *top-level*; their sum against the harness's ``suite_s``
gives the unattributed time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

#: (span name, home module, attribute) for every traced layer; a dotted
#: attribute names a method on a class of the home module.  The span of
#: ``StudySpec.run`` is named ``studies.<study name>``.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("traffic.graph", "repro.traffic.graph", "synthetic_social_graph"),
    ("cachesim.llc", "repro.cachesim.llc", "simulate_llc_traffic"),
    ("cachesim.batch", "repro.cachesim.batch", "simulate_batch"),
    ("nvsim.characterize", "repro.nvsim.characterize", "characterize"),
    ("nvsim.warm_lanes", "repro.nvsim.characterize", "warm_lanes"),
    ("nvsim.all_organizations", "repro.nvsim.characterize", "all_organizations"),
    ("core.evaluate_many", "repro.core.metrics", "evaluate_many"),
    ("runtime.executor.characterize_points", "repro.runtime.executor",
     "characterize_points"),
    ("runtime.executor.evaluate_blocks", "repro.runtime.executor",
     "evaluate_blocks"),
    ("runtime.cache.load", "repro.runtime.cache", "JsonObjectCache.load"),
    ("runtime.cache.store", "repro.runtime.cache", "JsonObjectCache.store"),
    ("dnn.trained_proxy", "repro.dnn.proxies", "trained_proxy"),
    ("faults.inject_trials", "repro.faults.injection", "inject_trials"),
    ("results.to_csv", "repro.results.table", "ResultTable.to_csv"),
    ("results.to_markdown", "repro.results.table", "ResultTable.to_markdown"),
    ("viz.study_report", "repro.viz.report", "study_report"),
    ("runtime.shard.study_fingerprint", "repro.runtime.shard", "study_fingerprint"),
    ("runtime.shard.manifest_write", "repro.runtime.shard", "RunManifest.write"),
    ("studies", "repro.studies.pipeline", "StudySpec.run"),
)

#: Layers whose span counts cache hits (a load that returned a value).
_COUNTS_HITS = frozenset({"runtime.cache.load"})


class LayerError(RuntimeError):
    """A layer entry point could not be wrapped."""


class Tracer:
    """In-memory span totals for one traced run."""

    def __init__(self) -> None:
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.hits: Counter[str] = Counter()
        self.top_level_s = 0.0
        # One [name, child seconds] frame per open span.
        self._stack: list[list[Any]] = []

    def _active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def wrap(
        self,
        name: str,
        fn: Callable,
        label: Optional[Callable[..., str]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name`` (or ``label(*args)`` per call)."""
        counts_hits = name in _COUNTS_HITS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if label is None else label(*args)
            if self._active(span):
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.inclusive[span] += elapsed
                self.self_time[span] += elapsed - frame[1]
                self.calls[span] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed
                else:
                    self.top_level_s += elapsed
            if counts_hits and result is not None:
                self.hits[span] += 1
            return result

        return wrapper

    def report(self) -> dict:
        """JSON-able totals: inclusive/self seconds, calls, hits, top level."""
        return {
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "hits": dict(self.hits),
            "top_level_s": self.top_level_s,
        }


def _rebind(original: Callable, wrapper: Callable) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``wrapper``; returns how many bindings were replaced."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                replaced += 1
    return replaced


def _study_label(spec, *_args) -> str:
    return f"studies.{spec.name}"


def install() -> Tracer:
    """Wrap every layer of :data:`LAYERS`; returns the recording tracer.

    Imports each home module first, so later lazy imports of a layer
    module bind the wrapper, never the original.
    """
    tracer = Tracer()
    for name, module_name, attribute in LAYERS:
        module = importlib.import_module(module_name)
        owner_name, _, member = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner).get(member)
        if not callable(original):
            raise LayerError(f"{name}: {module_name}.{attribute} is not a callable")
        wrapper = tracer.wrap(
            name, original, label=_study_label if name == "studies" else None
        )
        if owner_name:
            setattr(owner, member, wrapper)
        elif _rebind(original, wrapper) == 0:
            raise LayerError(f"{name}: no binding of {module_name}.{attribute}")
    return tracer
