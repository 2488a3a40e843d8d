"""The factored body format of the evaluation store.

One evaluation block is the list of flattened rows one array produces
under one traffic block.  Its rows repeat the same ~32 keys, and the
array half of every row holds the same values, so the store writes each
block factored::

    {"shapes": [[<key>, ...], ...],
     "shared": {<key>: <value>, ...},
     "rows":   [[<shape index>, <value>, ...], ...]}

``shapes`` lists each distinct row key order once.  ``shared`` holds each
key present in every row whose value is atomic (``str``, ``int``,
``float``, ``bool`` or ``None``) and the same in type and ``repr`` in
every row.  Each row is its shape's index followed by the values of that
shape's remaining keys, in shape order.  A float zero or NaN is never
shared (``0.0 == -0.0`` and ``nan != nan`` would make equality disagree
with ``repr``), and neither is a list or dict, so every nested value
stays in its own row.  :func:`decode_block` rebuilds every row with its
own key order, value types and float ``repr``.

The format is versioned by the ``evaluations`` store's key
(:func:`~repro.runtime.fingerprint.store_key`), a digest of the whole
package, so editing this module makes every stored block a miss.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Any, List

__all__ = ["ATOMIC_TYPES", "decode_block", "encode_block"]

#: Exact types of the atomic row values: the values a block may share
#: across its rows, and those a shallow row copy cannot alias.
ATOMIC_TYPES = frozenset({str, int, float, bool, type(None)})


def _constant(column: tuple) -> bool:
    """Whether every value of ``column`` may be stored once for all rows."""
    first = column[0]
    kind = type(first)
    # ``count`` compares by ==, under which 1 == 1.0 == True: the type
    # set then tells those apart.
    return (
        column.count(first) == len(column)
        and kind in ATOMIC_TYPES
        and not (kind is float and (first == 0.0 or first != first))
        and len(set(map(type, column))) == 1
    )


def encode_block(rows: List[dict]) -> dict:
    """The factored, JSON-able payload of one block of ``rows``.

    Works a column at a time: rows are grouped by key order, each
    group's values are transposed into columns, and each key present in
    every group is shared when its whole column is constant.
    """
    if not rows:
        return {"shapes": [], "shared": {}, "rows": []}
    keys = list(map(tuple, rows))
    shapes = list(dict.fromkeys(keys))
    if len(shapes) == 1:
        groups = [rows]
    else:
        number = {shape: index for index, shape in enumerate(shapes)}
        order = list(map(number.__getitem__, keys))
        groups = [[] for _ in shapes]
        for row, index in zip(rows, order):
            groups[index].append(row)
    columns = [
        dict(zip(shape, zip(*map(dict.values, group))))
        for shape, group in zip(shapes, groups)
    ]
    if len(columns) == 1:
        whole = columns[0]
    else:
        whole = {
            key: tuple(chain.from_iterable(c[key] for c in columns))
            for key in shapes[0] if all(key in c for c in columns)
        }
    shared = {key: column[0] for key, column in whole.items() if _constant(column)}
    encoded = [
        zip(repeat(index, len(group)),
            *(group_columns[key] for key in shape if key not in shared))
        for index, (shape, group, group_columns)
        in enumerate(zip(shapes, groups, columns))
    ]
    if len(encoded) == 1:
        out_rows = list(encoded[0])
    else:
        out_rows = [next(encoded[index]) for index in order]
    return {"shapes": shapes, "shared": shared, "rows": out_rows}


def decode_block(payload: Any) -> List[dict]:
    """The rows :func:`encode_block` factored into ``payload``.

    Raises :class:`ValueError` on any malformed payload: a missing or
    mistyped part, a shape that is not a list of distinct strings, a
    shared value that is not atomic, an out-of-range shape index, or a
    row with too few or too many values.
    """
    if type(payload) is not dict:
        raise ValueError("evaluation payload must be an object")
    shapes, shared, rows = (
        payload.get("shapes"), payload.get("shared"), payload.get("rows"))
    if type(shapes) is not list or type(rows) is not list:
        raise ValueError("evaluation payload needs 'shapes' and 'rows' lists")
    if type(shared) is not dict or not ATOMIC_TYPES.issuperset(
            map(type, shared.values())):
        raise ValueError("evaluation payload 'shared' must map keys to atoms")
    templates = []
    for shape in shapes:
        if (
            type(shape) is not list
            or not all(type(key) is str for key in shape)
            or len(set(shape)) != len(shape)
        ):
            raise ValueError("evaluation payload shape must list distinct keys")
        rest = [key for key in shape if key not in shared]
        templates.append(
            ({key: shared.get(key) for key in shape}, rest, len(rest) + 1))
    decoded = []
    for row in rows:
        if (
            type(row) is not list or not row or type(row[0]) is not int
            or not 0 <= row[0] < len(templates)
        ):
            raise ValueError("evaluation payload row has no valid shape index")
        template, rest, width = templates[row[0]]
        if len(row) != width:
            raise ValueError("evaluation payload row has the wrong length")
        values = template.copy()
        values.update(zip(rest, row[1:]))
        decoded.append(values)
    return decoded
