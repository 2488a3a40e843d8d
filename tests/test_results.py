"""ResultTable tests."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.results import ResultTable


@pytest.fixture()
def table():
    return ResultTable(
        [
            {"tech": "STT", "power": 2.0, "latency": 1.5},
            {"tech": "RRAM", "power": 1.0, "latency": 2.5},
            {"tech": "PCM", "power": 3.0, "latency": 4.0},
            {"tech": "STT", "power": 2.5, "latency": 1.0},
        ]
    )


class TestBasics:
    def test_len_iter_index(self, table):
        assert len(table) == 4
        assert table[1]["tech"] == "RRAM"
        assert sum(1 for _ in table) == 4

    def test_columns_in_first_seen_order(self):
        t = ResultTable([{"a": 1}, {"b": 2, "a": 3}])
        assert t.columns == ["a", "b"]

    def test_column_extraction_with_default(self, table):
        assert table.column("power") == [2.0, 1.0, 3.0, 2.5]
        assert table.column("missing", default=0) == [0, 0, 0, 0]

    def test_append_copies(self):
        t = ResultTable()
        record = {"x": 1}
        t.append(record)
        record["x"] = 99
        assert t[0]["x"] == 1

    def test_bool(self):
        assert not ResultTable()
        assert ResultTable([{"a": 1}])


class TestVerbs:
    def test_where(self, table):
        stt = table.where(tech="STT")
        assert len(stt) == 2

    def test_filter(self, table):
        cheap = table.filter(lambda r: r["power"] < 2.5)
        assert len(cheap) == 2

    def test_select(self, table):
        slim = table.select("tech")
        assert slim.columns == ["tech"]
        assert len(slim) == 4

    def test_sort_by_with_none_last(self):
        t = ResultTable([{"v": None, "i": 0}, {"v": 2}, {"v": 1}, {"v": None, "i": 1}])
        ordered = t.sort_by("v")
        assert ordered.column("v") == [1, 2, None, None]
        descending = t.sort_by("v", reverse=True)
        assert descending.column("v") == [2, 1, None, None]
        assert descending.column("i")[2:] == [0, 1]

    def test_min_max_by(self, table):
        assert table.min_by("power")["tech"] == "RRAM"
        assert table.max_by("latency")["tech"] == "PCM"

    def test_min_by_ignores_none(self):
        t = ResultTable([{"v": None}, {"v": 5}])
        assert t.min_by("v")["v"] == 5

    def test_min_by_empty_raises(self):
        with pytest.raises(ReproError):
            ResultTable().min_by("v")

    def test_unique_preserves_order(self, table):
        assert table.unique("tech") == ["STT", "RRAM", "PCM"]

    def test_with_column(self, table):
        extended = table.with_column("edp", lambda r: r["power"] * r["latency"])
        assert extended[0]["edp"] == pytest.approx(3.0)
        assert "edp" not in table[0]


class TestExport:
    def test_csv_roundtrip(self, table):
        text = table.to_csv()
        back = ResultTable.from_csv(text)
        assert len(back) == 4
        assert back[0]["power"] == pytest.approx(2.0)
        assert back[1]["tech"] == "RRAM"

    def test_csv_writes_file(self, table, tmp_path):
        path = tmp_path / "out.csv"
        table.to_csv(str(path))
        assert path.exists()
        assert "tech" in path.read_text()

    def test_csv_coerces_types(self):
        back = ResultTable.from_csv("a,b,c,d\n1,2.5,True,hello\n")
        row = back[0]
        assert row["a"] == 1 and isinstance(row["a"], int)
        assert row["b"] == pytest.approx(2.5)
        assert row["c"] is True
        assert row["d"] == "hello"

    def test_csv_empty_values_become_none(self):
        back = ResultTable.from_csv("a,b\n1,\n")
        assert back[0]["b"] is None

    def test_markdown_render(self, table):
        md = table.to_markdown()
        assert md.startswith("| tech | power | latency |")
        assert "| RRAM | 1 | 2.5 |" in md

    def test_markdown_empty(self):
        assert ResultTable().to_markdown() == "(empty table)"


# --- rendering oracle ----------------------------------------------------------
#
# The row-at-a-time renderers that ResultTable.to_csv / to_markdown replaced.
# The column-wise versions must reproduce them byte for byte.


def _reference_csv(table):
    columns = table.columns
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    for record in table:
        writer.writerow({c: record.get(c, "") for c in columns})
    return buffer.getvalue()


def _reference_markdown(table):
    columns = table.columns
    if not columns:
        return "(empty table)"

    def fmt(value):
        if isinstance(value, float):
            return "{:.4g}".format(value)
        return "" if value is None else str(value)

    header = "| " + " | ".join(columns) + " |"
    rule = "|" + "|".join("---" for _ in columns) + "|"
    rows = [
        "| " + " | ".join(fmt(r.get(c)) for c in columns) + " |"
        for r in table
    ]
    return "\n".join([header, rule, *rows])


def _assert_renders_like_reference(records):
    table = ResultTable(records)
    assert table.to_csv() == _reference_csv(table)
    assert table.to_markdown() == _reference_markdown(table)


_REPEATED_POOL = [0.0, -0.0, 1.0 / 3, math.nan, 2.5e-12, None, "s", 7, True]

_ORACLE_CASES = {
    "signed zeros": [{"x": 0.0}, {"x": -0.0}, {"x": 0.0}, {"x": -0.0}],
    "nan and infinities": [
        {"x": math.nan}, {"x": math.inf}, {"x": -math.inf}, {"x": math.nan},
    ],
    "numpy floats": [
        {"x": np.float64(1.5), "y": 1.5},
        {"x": 1.5, "y": np.float64(1.5)},
        {"x": np.float64(-0.0), "y": np.float64(2.0) / 3},
    ],
    "bools ints and None": [
        {"x": True, "y": 1, "z": None},
        {"x": 1, "y": True, "z": 1.0},
        {"x": False, "y": 0, "z": 0.0},
    ],
    "missing keys": [{"a": 1.25}, {"b": "two"}, {"a": 1.25, "c": None}, {}],
    "awkward strings": [
        {"s": "a,b", "t": 'say "hi"'},
        {"s": "line\nbreak", "t": "cr\rlf\r\n"},
        {"s": "", "t": "pipe | cell"},
    ],
    "single empty column": [{"x": ""}, {"x": None}, {}, {"x": ""}],
    "keyless records": [{}, {}],
    "empty table": [],
    "repeated values": [
        {
            "x": _REPEATED_POOL[i % len(_REPEATED_POOL)],
            "y": _REPEATED_POOL[(i // 7) % len(_REPEATED_POOL)],
            "z": i * 0.1,
        }
        for i in range(300)
    ],
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_rendering_matches_row_wise_reference(name):
    _assert_renders_like_reference(_ORACLE_CASES[name])


_cell_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 0.1, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.text(alphabet=st.sampled_from('ab ,"|\n\r\'x-.'), max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]), _cell_values, max_size=4
        ),
        max_size=12,
    )
)
def test_rendering_matches_reference_on_generated_tables(records):
    _assert_renders_like_reference(records)


# --- csv.writer parity ---------------------------------------------------------
#
# to_csv writes CSV text itself; these cases pin it to what csv.writer
# (excel dialect, QUOTE_MINIMAL) writes for the same header and rows.


def _csv_writer_text(table):
    columns = table.columns
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for record in table:
        writer.writerow([record.get(c, "") for c in columns])
    return buffer.getvalue()


_CSV_WRITER_CASES = {
    "delimiter quote and line breaks": [
        {"s": "a,b", "t": 'say "hi"', "u": "cr\r", "v": "lf\n", "w": '","\r\n'},
        {"s": "plain", "t": '"', "u": "\r\n", "v": " lead space", "w": "tab\t"},
    ],
    "None and empty string": [
        {"x": None, "y": ""}, {"x": "", "y": None}, {"x": None, "y": None},
    ],
    "scalars": [
        {"b": True, "i": 3, "z": -0.0, "n": math.nan, "p": math.inf, "m": -math.inf},
        {"b": False, "i": -3, "z": 0.0, "n": 0.1, "p": 1e300, "m": 5e-324},
    ],
    "numpy scalars": [
        {"d": np.float64(1.5), "f": np.float32(0.1), "i": np.int64(7)},
        {"d": np.float64(-0.0), "f": np.float32(-2.5), "i": np.int64(-7)},
    ],
    "tuple value": [{"t": (1, 2)}, {"t": ("a",)}, {"t": ()}],
    "one column with empty rows": [{"x": None}, {"x": ""}, {"x": "v"}, {}],
    "one column named empty": [{"": 1.5}, {"": None}, {"": ""}],
    "column names that need quoting": [{"a,b": 1, 'q"q': 2, "l\nf": 3, "c\rr": 4}],
    "zero columns": [],
    "keyless records": [{}, {}, {}],
    "ragged records": [
        {"a": 1}, {"b": 2.5, "c": "x,y"}, {}, {"c": None, "a": ""}, {"d": True},
    ],
}


@pytest.mark.parametrize("name", sorted(_CSV_WRITER_CASES))
def test_to_csv_matches_csv_writer(name):
    table = ResultTable(_CSV_WRITER_CASES[name])
    assert table.to_csv() == _csv_writer_text(table)
