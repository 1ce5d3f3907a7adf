"""Deterministic CSV/JSON emission of scenario outputs.

Report bodies must be byte-identical for identical (config, seed)
regardless of execution details, so serialization uses sorted keys,
fixed float formats and no timestamps.
"""

import json
import math
import os
from itertools import islice
from json.encoder import encode_basestring_ascii

__all__ = ["emit_report", "emit_guard_sweep", "emit_rows", "format_row", "row_dict"]

_FLOAT_FORMATS = {
    "rate_mbps": "{:.1f}",
    "guard_mhz": "{:.1f}",
    "adoption_factor": "{:.2f}",
    "delta": "{:.6e}",
    "delta_db": "{:.4f}",
    "net_gain_db": "{:.4f}",
    "mean_p_tx_dbw": "{:.4f}",
    "rfi_dbw": "{:.4f}",
    "margin_db": "{:.4f}",
    "infeasibility_rate": "{:.6f}",
}


def _format_value(key, value):
    if isinstance(value, float):
        if math.isfinite(value):
            return _FLOAT_FORMATS.get(key, "{:.6f}").format(value)
        return "nan" if math.isnan(value) else ("-inf" if value < 0 else "inf")
    return str(value)


def format_row(row):
    """A dict row's cells as text, in its key order: the CSV body and stdout format."""
    return [_format_value(key, value) for key, value in row.items()]


def _json_safe(value):
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return None if math.isnan(value) else ("-inf" if value < 0 else "inf")
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _open_out(out_dir, name):
    try:
        os.makedirs(out_dir, exist_ok=True)
        return open(os.path.join(out_dir, name), "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write report to {os.path.join(out_dir, name)}: {exc}") from exc


def row_dict(row):
    """A report row dataclass as a dict of its fields in field order.  Every
    field is a scalar, so a shallow copy is the whole row."""
    return dict(vars(row))


def _json_cell(value):
    """A flat value as the stdlib's C JSON encoder writes it after `_json_safe`."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "null" if math.isnan(value) else ('"-inf"' if value < 0 else '"inf"')
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _csv_cell(text):
    """A cell's text as the csv module's excel dialect writes it: quoted, its
    quotes doubled, if it holds a comma, a quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(rows, n_columns):
    """Rows of `_csv_cell` texts as the csv module writes them, each line
    ended by CRLF; as it does, a lone empty cell is written as ""."""
    lines = map(",".join, rows)
    if n_columns == 1:
        lines = (line or '""' for line in lines)
    return "\r\n".join(lines) + "\r\n"


# Rows are written this many at a time, so memory does not grow with the table.
_BLOCK_ROWS = 256


def _column_cells(key, name, values, kind):
    """The CSV and JSON cell texts of one column's flat `values`, the CSV
    ones quoted by `_csv_cell`.  When every value is of exactly type `kind`
    (None if they are not of one type) and equal values of it print alike,
    each distinct value is formatted and quoted once.
    Equal floats print alike when finite and, since 0.0 == -0.0, when every
    zero has one sign."""
    distinct = dict.fromkeys(values) if kind in (str, int, float) else ()
    if kind is str:
        formats = str, encode_basestring_ascii
    elif kind is int:
        formats = int.__repr__, int.__repr__
    elif kind is float and all(map(math.isfinite, distinct)) and (
            0.0 not in distinct
            or len({math.copysign(1.0, value) for value in values if value == 0.0}) == 1):
        formats = _FLOAT_FORMATS.get(key, "{:.6f}").format, float.__repr__
    else:
        return ([_csv_cell(_format_value(key, value)) for value in values],
                [name + _json_cell(value) for value in values])
    csv_text = dict(zip(distinct, map(_csv_cell, map(formats[0], distinct))))
    json_text = dict(zip(distinct, map(name.__add__, map(formats[1], distinct))))
    return map(csv_text.__getitem__, values), map(json_text.__getitem__, values)


def _block_cells(block, columns, names, start):
    """The CSV and JSON cell texts of each column of `block`, the rows from
    index `start` on.  A row with other columns than `columns`, or with a
    list, tuple or dict value, raises ValueError naming the first such row."""
    n_fit = next((i for i, row in enumerate(block) if tuple(row) != columns), len(block))
    csv_cells, json_cells, nested = [], [], n_fit
    for key, name, values in zip(columns, names, zip(*map(dict.values, block[:n_fit]))):
        kinds = set(map(type, values))
        if any(issubclass(kind, (list, tuple, dict)) for kind in kinds):
            nested = min(nested, next(i for i, value in enumerate(values)
                                      if isinstance(value, (list, tuple, dict))))
            continue
        csv_column, json_column = _column_cells(key, name, values,
                                                kinds.pop() if len(kinds) == 1 else None)
        csv_cells.append(csv_column)
        json_cells.append(json_column)
    if nested < n_fit:
        raise ValueError(f"row {start + nested}: a report row must be flat, got a list, "
                         "tuple or dict value")
    if n_fit < len(block):
        raise ValueError(f"row {start + n_fit}: columns {list(block[n_fit])} are not the "
                         f"first row's {list(columns)}")
    return csv_cells, json_cells


def emit_rows(rows, out_dir, basename, header=None):
    """Write flat dict rows as CSV (with a commented config header) and JSON
    (sorted keys, 2-space indent), `_BLOCK_ROWS` rows at a time.  The columns
    are the first row's keys; a row with other keys, or in another order, or
    with a list, tuple or dict value raises ValueError naming its index, and
    leaves both files incomplete."""
    rows = iter(rows)
    block = list(islice(rows, _BLOCK_ROWS))
    if not block:
        raise ValueError("nothing to emit: empty row set")
    columns = tuple(block[0])
    if not columns:
        raise ValueError("nothing to emit: rows have no columns")
    names = [encode_basestring_ascii(key) + ": " for key in columns]
    json_order = sorted(range(len(columns)), key=columns.__getitem__)
    header = header or {}
    config = json.dumps(_json_safe(header), indent=2, sort_keys=True).replace("\n", "\n  ")
    with _open_out(out_dir, f"{basename}.csv") as csv_fh, \
            _open_out(out_dir, f"{basename}.json") as json_fh:
        for key in sorted(header):
            csv_fh.write(f"# {key}={_json_safe(header[key])}\n")
        csv_fh.write(_csv_lines([map(_csv_cell, columns)], len(columns)))
        json_fh.write(f'{{\n  "config": {config},\n  "rows": [\n    {{\n      ')
        start = 0
        while block:
            csv_cells, json_cells = _block_cells(block, columns, names, start)
            csv_fh.write(_csv_lines(zip(*csv_cells), len(columns)))
            if start:
                json_fh.write(",\n    {\n      ")
            entries = map(",\n      ".join, zip(*(json_cells[i] for i in json_order)))
            json_fh.write("\n    },\n    {\n      ".join(entries) + "\n    }")
            start += len(block)
            block = list(islice(rows, _BLOCK_ROWS))
        json_fh.write("\n  ]\n}\n")
    return {"csv": csv_fh.name, "json": json_fh.name}


def emit_report(reports, out_dir):
    """Emit one or more RfiReports as a flat sensor-row table.

    The header keeps the configuration keys every report shares; the grid
    coordinates live per row, and any other key that differs across the
    reports is dropped rather than stated for rows it does not describe.
    """
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    if not reports:
        raise ValueError("nothing to emit: empty report set")
    if not all(report.rows for report in reports):
        raise ValueError("nothing to emit: report has no sensor rows")
    # One pass: a report whose config holds every remaining key at an equal
    # value passes one subset test of the item views, and the keys are
    # filtered only at a report where some value differs.  A value unequal to
    # itself (NaN) is never shared, so the identity the view test honours
    # keeps no key that `==` would drop.
    header = {key: value for key, value in reports[0].config.items()
              if key not in ("year", "rate_bps", "penetration_per_100") and value == value}
    for report in reports:
        config = report.config
        if not header.items() <= config.items():
            header = {key: value for key, value in header.items() if config.get(key) == value}
    rows = (vars(row) for report in reports for row in report.rows)
    return emit_rows(rows, out_dir, "rfi_report", header=header)


def emit_guard_sweep(rows, out_dir, header=None):
    return emit_rows(map(vars, rows), out_dir, "guard_sweep", header=header)
