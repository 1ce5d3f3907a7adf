import csv
import dataclasses
import io
import json
import math
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eesscoex import reports
from eesscoex.reports import _json_safe, emit_report, emit_rows, format_row, row_dict
from eesscoex.scenario import GuardSweepRow, RfiReport, ScenarioConfig, SensorRow, simulate

BLOCK = reports._BLOCK_ROWS

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


# Equal values of other signs or types (0.0 and -0.0; 1, 1.0 and True; a
# float and an np.float64), and one NaN object, reused as a repeated value is.
_NAN = math.nan
_ALIKE = st.sampled_from([0.0, -0.0, 1, 1.0, True, _NAN, np.float64(1.0), np.float64(-0.0),
                          2.5, np.float64(2.5), -math.inf])
_POOLS = st.one_of(
    st.lists(st.one_of(_ALIKE, _SCALARS), min_size=1, max_size=5),
    st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0])), min_size=1, max_size=5),
    st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, _NAN])), min_size=1, max_size=5),
    st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=1, max_size=5),
    st.lists(st.text(max_size=4), min_size=1, max_size=5),
)


@st.composite
def _rows(draw):
    """Rows whose every column draws from a small pool of its own, so a
    column repeats values, of one exact type or of several."""
    columns = draw(st.lists(st.text(max_size=8), min_size=1, max_size=6, unique=True))
    pools = {key: draw(_POOLS) for key in columns}
    n_rows = draw(st.integers(min_value=1, max_value=9))
    return [{key: draw(st.sampled_from(pools[key])) for key in columns} for _ in range(n_rows)]


def _per_row_csv(rows, header):
    """The CSV file as the per-row path writes it: one `# key=value` line per
    header key in sorted order, the column line, then `format_row` of each row."""
    text = io.StringIO(newline="")
    for key in sorted(header):
        text.write(f"# {key}={_json_safe(header[key])}\n")
    writer = csv.writer(text)
    writer.writerow(list(rows[0]))
    for row in rows:
        writer.writerow(format_row(row))
    return text.getvalue().encode("utf-8")


def _stdlib_json(rows, header):
    return (json.dumps({"config": _json_safe(header), "rows": _json_safe(rows)},
                       indent=2, sort_keys=True) + "\n").encode("utf-8")


def _emitted(rows, out_dir, header=None, block=BLOCK):
    """The bytes of the CSV and JSON files `emit_rows` writes in blocks of `block` rows."""
    with mock.patch.object(reports, "_BLOCK_ROWS", block):
        paths = emit_rows(rows, out_dir, "t", header=header)
    with open(paths["csv"], "rb") as csv_fh, open(paths["json"], "rb") as json_fh:
        return csv_fh.read(), json_fh.read()


_BLOCKS = st.sampled_from([1, 2, 3, BLOCK])


@settings(max_examples=150, deadline=None)
@given(rows=_rows(), header=_HEADERS, block=_BLOCKS)
def test_json_file_is_the_stdlib_indent_2_encoding(rows, header, block):
    with tempfile.TemporaryDirectory() as out_dir:
        assert _emitted(rows, out_dir, header, block)[1] == _stdlib_json(rows, header)


@settings(max_examples=150, deadline=None)
@given(rows=_rows(), header=_HEADERS, block=_BLOCKS)
# County names with a comma, with a quote (in a column of mixed types) and
# with embedded line breaks, and one-column tables, whose empty cells and
# empty column name csv writes as "".
@example(rows=[{"fips": "02110", "worst_county_name": "Juneau, City and Borough of"},
               {"fips": "02020", "worst_county_name": "Anchorage"}], header={}, block=BLOCK)
@example(rows=[{"worst_county_name": 'Prince of "Wales"', "n": 1},
               {"worst_county_name": None, "n": 2}], header={}, block=BLOCK)
@example(rows=[{"worst_county_name": "Kusilvak\r\nCensus Area"},
               {"worst_county_name": "Kusilvak\nCensus Area"}, {"worst_county_name": "a\rb"}],
         header={"note": "x"}, block=2)
@example(rows=[{"": ""}, {"": "x"}, {"": ""}], header={}, block=2)
@example(rows=[{"name": ""}, {"name": None}], header={}, block=BLOCK)
def test_csv_file_is_the_per_row_csv(rows, header, block):
    with tempfile.TemporaryDirectory() as out_dir:
        assert _emitted(rows, out_dir, header, block)[0] == _per_row_csv(rows, header)


def _table(n_rows):
    """`n_rows` report-like rows: repeated names, counts and flags, floats with
    both zeros, with and without NaN and infinities, and one column of
    distinct floats."""
    specials = [0.0, -0.0, 1.5, math.nan, math.inf, -math.inf, 1.5]
    return [{"sensor_id": f"B{i % 5}", "n_footprint": i % 3, "rfi_dbw": -166.0 + i / 7,
             "delta": specials[i % 7], "margin_db": specials[i % 3], "feasible": i % 4 == 0,
             "note": None if i % 2 else "é"}
            for i in range(n_rows)]


@pytest.mark.parametrize("n_rows", [BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_rows_across_block_boundaries_are_the_per_row_files(tmp_path, n_rows):
    rows = _table(n_rows)
    header = {"trials": 4}
    assert _emitted(rows, tmp_path, header) == (_per_row_csv(rows, header),
                                                _stdlib_json(rows, header))


_SPOIL = {"columns": lambda row: {"x": 1, **row},
          "a report row must be flat": lambda row: {**row, "delta": [1.0]}}


@pytest.mark.parametrize("spoilt", [
    {BLOCK + 3: "columns"},
    {BLOCK + 3: "a report row must be flat"},
    {BLOCK + 2: "a report row must be flat", BLOCK + 5: "columns"},
    {BLOCK + 2: "columns", BLOCK + 5: "a report row must be flat"},
])
def test_a_bad_row_in_the_second_block_is_named_by_its_index(tmp_path, spoilt):
    rows = _table(2 * BLOCK + 1)
    for index, fault in spoilt.items():
        rows[index] = _SPOIL[fault](rows[index])
    first = min(spoilt)
    with pytest.raises(ValueError, match=f"^row {first}: {spoilt[first]}"):
        emit_rows(rows, tmp_path, "t")
    # Both files stop after the first block, with no closing JSON.
    csv_lines = (tmp_path / "t.csv").read_bytes().splitlines()
    assert len(csv_lines) == 1 + BLOCK
    with pytest.raises(json.JSONDecodeError):
        json.loads((tmp_path / "t.json").read_text(encoding="utf-8"))


def test_emit_report_writes_what_emit_rows_writes_of_row_dict_copies(tmp_path, counties):
    points = [simulate(ScenarioConfig(trials=2, year=year, rate_bps=rate), counties=counties)
              for year in (2030, 2040) for rate in (100e6, 300e6)]
    header = {key: value for key, value in points[0].config.items()
              if key not in ("year", "rate_bps", "penetration_per_100")}
    copies = [row_dict(row) for point in points for row in point.rows]
    for block in (3, BLOCK):
        with mock.patch.object(reports, "_BLOCK_ROWS", block):
            paths = emit_report(points, tmp_path / "report")
            expected = emit_rows(copies, tmp_path / "rows", "rfi_report", header=header)
        for kind in ("csv", "json"):
            with open(paths[kind], "rb") as got, open(expected[kind], "rb") as want:
                assert got.read() == want.read(), (block, kind)


_ROW = SensorRow("B5", 2030, 100.0, 25.0, 1.0, 3, 1e-4, -40.0, -133.0, -5.0, -170.0, 4.0, 0.0,
                 "06037", "Los Angeles")
# One NaN object, so that lists holding it compare equal and the NaN alone does not.
_CONFIG_VALUES = st.sampled_from([math.nan, None, 1, 1.0, 2.5, "a", [1, 2], [1, math.nan]])
_CONFIGS = st.dictionaries(st.sampled_from(["a", "b", "c", "year", "rate_bps",
                                            "penetration_per_100"]), _CONFIG_VALUES)


@settings(max_examples=200, deadline=None)
@given(configs=st.lists(_CONFIGS, min_size=1, max_size=4))
def test_emit_report_header_is_the_first_configs_keys_every_report_equals(configs):
    shared = {key: value for key, value in configs[0].items()
              if key not in ("year", "rate_bps", "penetration_per_100")
              and all(config.get(key) == value for config in configs)}
    with tempfile.TemporaryDirectory() as out_dir:
        paths = emit_report([RfiReport(config=config, rows=[_ROW]) for config in configs],
                            f"{out_dir}/report")
        expected = emit_rows([row_dict(_ROW)] * len(configs), f"{out_dir}/rows", "rfi_report",
                             header=shared)
        for kind in ("csv", "json"):
            with open(paths[kind], "rb") as got, open(expected[kind], "rb") as want:
                assert got.read() == want.read(), kind


def test_emit_memory_scales_with_the_block_not_the_rows(tmp_path):
    # Peak traced memory beyond the input rows: one block's cells and the
    # file buffers, the same at 4 blocks as at 16.
    def overhead(n_blocks):
        rows = _table(n_blocks * BLOCK)
        tracemalloc.start()
        try:
            emit_rows(rows, tmp_path, "t")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    emit_rows(_table(BLOCK), tmp_path, "t")  # one-time allocations outside the measurement
    assert overhead(16) == pytest.approx(overhead(4), rel=0.1)


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
