"""A small column-oriented results table.

pandas is not available offline, so the framework carries its own result
container: a list of records with pandas-ish verbs (filter, where, select,
sort, min/max) plus CSV/markdown export.  Every study returns one of
these; the visualization layer and benches consume them.
"""

from __future__ import annotations

import csv
import functools
import io
from itertools import chain, repeat
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import ReproError


class ResultTable:
    """An immutable-ish table of records (dicts with shared keys)."""

    def __init__(self, records: Iterable[Mapping[str, Any]] = ()) -> None:
        self._records: list[dict[str, Any]] = [dict(r) for r in records]

    # --- basics -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._records)

    def __getitem__(self, index: int) -> dict[str, Any]:
        return self._records[index]

    def __bool__(self) -> bool:
        return bool(self._records)

    @property
    def columns(self) -> list[str]:
        """Union of keys across records, in first-seen order."""
        return list(dict.fromkeys(chain.from_iterable(self._records)))

    def column(self, name: str, default: Any = None) -> list[Any]:
        """All values of one column."""
        return [r.get(name, default) for r in self._records]

    def append(self, record: Mapping[str, Any]) -> None:
        self._records.append(dict(record))

    def extend(self, records: Iterable[Mapping[str, Any]]) -> None:
        for record in records:
            self.append(record)

    # --- verbs ---------------------------------------------------------------

    def filter(self, predicate: Callable[[dict[str, Any]], bool]) -> "ResultTable":
        return ResultTable(r for r in self._records if predicate(r))

    def where(self, **equals: Any) -> "ResultTable":
        """Filter on column equality: ``table.where(tech="STT", flavor="optimistic")``."""
        def match(record: dict[str, Any]) -> bool:
            return all(record.get(k) == v for k, v in equals.items())
        return self.filter(match)

    def select(self, *columns: str) -> "ResultTable":
        return ResultTable({c: r.get(c) for c in columns} for r in self._records)

    def sort_by(self, column: str, reverse: bool = False) -> "ResultTable":
        """Sorted on ``column``; rows missing it go last in either direction."""
        present = [r for r in self._records if r.get(column) is not None]
        missing = [r for r in self._records if r.get(column) is None]
        present.sort(key=lambda r: r[column], reverse=reverse)
        return ResultTable(present + missing)

    def min_by(self, column: str) -> dict[str, Any]:
        """The record minimizing ``column`` (None values excluded)."""
        candidates = [r for r in self._records if r.get(column) is not None]
        if not candidates:
            raise ReproError(f"no records with column {column!r}")
        return min(candidates, key=lambda r: r[column])

    def max_by(self, column: str) -> dict[str, Any]:
        candidates = [r for r in self._records if r.get(column) is not None]
        if not candidates:
            raise ReproError(f"no records with column {column!r}")
        return max(candidates, key=lambda r: r[column])

    def unique(self, column: str) -> list[Any]:
        seen: dict[Any, None] = {}
        for record in self._records:
            if column in record:
                seen.setdefault(record[column], None)
        return list(seen)

    def with_column(
        self, name: str, func: Callable[[dict[str, Any]], Any]
    ) -> "ResultTable":
        """A copy with a derived column appended."""
        out = []
        for record in self._records:
            new = dict(record)
            new[name] = func(record)
            out.append(new)
        return ResultTable(out)

    # --- export ----------------------------------------------------------------

    def to_csv(self, path: Optional[str] = None) -> str:
        """Render as CSV; write to ``path`` when given."""
        columns = self.columns
        buffer = io.StringIO()
        write = buffer.write
        rows = self._rendered_rows(columns, _csv_column, "")
        for cells in chain([_csv_column(columns)], rows):
            # csv's rule: a record of one empty field is written as "".
            write((",".join(cells) or ('""' if cells else "")) + "\r\n")
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", newline="") as handle:
                handle.write(text)
        return text

    def to_markdown(self, float_format: str = "{:.4g}") -> str:
        """Render as a GitHub-flavored markdown table."""
        columns = self.columns
        if not columns:
            return "(empty table)"
        render = functools.partial(_markdown_column, float_format=float_format)
        header = "| " + " | ".join(columns) + " |"
        rule = "|" + "|".join("---" for _ in columns) + "|"
        rows = [
            "| " + " | ".join(cells) + " |"
            for cells in self._rendered_rows(columns, render, None)
        ]
        return "\n".join([header, rule, *rows])

    def _rendered_rows(
        self,
        columns: Sequence[str],
        render: Callable[[list[Any]], list[Any]],
        missing: Any,
    ) -> Iterator[tuple]:
        """Rows of rendered cells, formatted column by column."""
        records = self._records
        cells = [render([r.get(c, missing) for r in records]) for c in columns]
        # zip() of no columns would drop keyless records: each is still
        # one (empty) row.
        return zip(*cells) if cells else repeat((), len(records))

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        """Parse a CSV string, converting numeric-looking fields."""
        reader = csv.DictReader(io.StringIO(text))
        records = []
        for row in reader:
            parsed: dict[str, Any] = {}
            for key, value in row.items():
                parsed[key] = _coerce(value)
            records.append(parsed)
        return cls(records)


class _TextMemo(dict):
    """Memo of value -> rendered text, filled on first miss.

    Keys are exact, non-zero floats (rendered numbers) or exact strings
    (CSV quoting).  ``0.0`` and ``-0.0`` compare and hash equal but render
    differently, and float subclasses (``np.float64``) render differently
    from ``float``, so neither is ever a key.  Result columns repeat
    array- and traffic-derived values across many rows: over the 14 study
    tables, 80% of the non-zero float cells repeat a value seen earlier in
    their column, which is what makes the memo pay.
    """

    def __init__(self, render: Callable[[Any], str]) -> None:
        super().__init__()
        self._render = render

    def __missing__(self, value: Any) -> str:
        text = self[value] = self._render(value)
        return text


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted the way csv's QUOTE_MINIMAL does."""
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text or "\r" in text:
        return '"' + text + '"'
    return text


def _csv_cell(value: Any) -> str:
    """What csv writes for ``value``: None empty, anything else ``str``."""
    return "" if value is None else _csv_field(str(value))


def _csv_column(values: Sequence[Any]) -> list[str]:
    """CSV fields: memoized ``repr`` for floats, memoized quoting for strings.

    The bytes match what ``csv.writer`` (excel dialect) writes for the
    same values; ``tests/test_results.py`` holds the parity oracle.
    """
    floats = _TextMemo(repr)
    strings = _TextMemo(_csv_field)
    return [
        floats[v] if type(v) is float and v
        else strings[v] if type(v) is str
        else _csv_cell(v)
        for v in values
    ]


def _markdown_cell(value: Any, float_format: str) -> str:
    if isinstance(value, float):
        return float_format.format(value)
    return "" if value is None else str(value)


def _markdown_column(values: list[Any], float_format: str) -> list[str]:
    """Markdown cells: floats via ``float_format``, None empty, else str()."""
    memo = _TextMemo(float_format.format)
    return [
        memo[v] if type(v) is float and v
        else v if type(v) is str
        else _markdown_cell(v, float_format)
        for v in values
    ]


def _coerce(value: Optional[str]) -> Any:
    if value is None or value == "":
        return None
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    if value in ("True", "False"):
        return value == "True"
    return value
