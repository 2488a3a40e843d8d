"""Pareto-front utilities for multi-objective design exploration."""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.errors import EvaluationError


def pareto_front(
    records: Iterable[Mapping[str, Any]],
    objectives: Sequence[str],
) -> list[dict[str, Any]]:
    """Records not dominated on the given minimize-objectives.

    A record dominates another when it is no worse on every objective and
    strictly better on at least one.  Records missing an objective are
    excluded.
    """
    if not objectives:
        raise EvaluationError("need at least one objective")
    candidates = [
        dict(r)
        for r in records
        if all(r.get(obj) is not None for obj in objectives)
    ]

    def dominates(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
        no_worse = all(a[o] <= b[o] for o in objectives)
        strictly = any(a[o] < b[o] for o in objectives)
        return no_worse and strictly

    front = []
    for record in candidates:
        if not any(dominates(other, record) for other in candidates):
            front.append(record)
    return front
