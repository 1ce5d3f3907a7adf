import csv
import dataclasses
import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eesscoex.reports import _json_safe, emit_rows, format_row, row_dict
from eesscoex.scenario import GuardSweepRow, ScenarioConfig, simulate

_SCALARS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1]),
    st.booleans(),
    st.none(),
    st.floats().map(np.float64),
    st.text(alphabet=st.sampled_from('aé€😀"\',\n\r\\\t /')),
    st.text(),
)
_HEADERS = st.dictionaries(
    st.text(max_size=8),
    st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8),
    max_size=4,
)


@st.composite
def _rows(draw):
    columns = draw(st.lists(st.text(max_size=8), min_size=1, max_size=6, unique=True))
    n_rows = draw(st.integers(min_value=1, max_value=4))
    return [{key: draw(_SCALARS) for key in columns} for _ in range(n_rows)]


@settings(max_examples=150, deadline=None)
@given(rows=_rows(), header=_HEADERS)
def test_json_file_is_the_stdlib_indent_2_encoding(rows, header):
    expected = json.dumps({"config": _json_safe(header), "rows": _json_safe(rows)},
                          indent=2, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as out_dir:
        paths = emit_rows(rows, out_dir, "t", header=header)
        with open(paths["json"], "rb") as fh:
            assert fh.read() == expected.encode("utf-8")


def test_json_file_with_an_empty_header():
    with tempfile.TemporaryDirectory() as out_dir:
        paths = emit_rows([{"b": 1.5, "a": math.nan}, {"b": -math.inf, "a": "x"}], out_dir, "t")
        with open(paths["json"], encoding="utf-8") as fh:
            assert fh.read() == (
                '{\n  "config": {},\n  "rows": [\n'
                '    {\n      "a": null,\n      "b": 1.5\n    },\n'
                '    {\n      "a": "x",\n      "b": "-inf"\n    }\n  ]\n}\n')


def test_csv_quotes_text_cells_and_keeps_the_first_rows_column_order(tmp_path):
    rows = [{"z": 'say "hi", then\nleave', "a": 2.0}, {"z": "é", "a": math.inf}]
    paths = emit_rows(rows, tmp_path, "t", header={"k": [1, 2]})
    with open(paths["csv"], newline="", encoding="utf-8") as fh:
        assert fh.readline() == "# k=[1, 2]\n"
        assert list(csv.reader(fh)) == [["z", "a"]] + [format_row(row) for row in rows]


@pytest.mark.parametrize("rows, index", [
    ([{"a": 1, "b": "x"}, {"b": "y", "a": 2}, {"a": 3}], 1),  # same keys, other order
    ([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}, {"a": 3}], 2),  # a column missing
    ([{"a": 1}, {"a": 2, "b": "y"}], 1),  # an extra column
    ([{"a": 1}, {"c": 2}], 1),  # other columns
])
def test_rows_with_other_columns_than_the_first_are_rejected(tmp_path, rows, index):
    with pytest.raises(ValueError, match=f"^row {index}: columns"):
        emit_rows(rows, tmp_path, "t")


@pytest.mark.parametrize("value", [[1, 2], (1.0,), {"x": 1}, [], {}])
def test_rows_with_a_nested_value_are_rejected(tmp_path, value):
    with pytest.raises(ValueError, match="^row 1: a report row must be flat"):
        emit_rows([{"a": 1, "b": 2}, {"a": 3, "b": value}], tmp_path, "t")


def test_rows_without_columns_are_rejected(tmp_path):
    with pytest.raises(ValueError, match="no columns"):
        emit_rows([{}], tmp_path, "t")
    with pytest.raises(ValueError, match="empty row set"):
        emit_rows([], tmp_path, "t")


def test_row_dict_is_asdict_for_every_report_row(counties):
    report = simulate(ScenarioConfig(trials=2), counties=counties)
    for row in [*report.rows, GuardSweepRow(2030, 25.0, 300)]:
        converted = row_dict(row)
        assert list(converted.items()) == list(dataclasses.asdict(row).items())
        assert converted is not vars(row)
