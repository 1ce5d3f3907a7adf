"""Deterministic CSV/JSON emission of scenario outputs.

Report bodies must be byte-identical for identical (config, seed)
regardless of execution details, so serialization uses sorted keys,
fixed float formats and no timestamps.
"""

import csv
import json
import math
import os

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


# Encodes one flat row as the body of its indent=2 entry in the report's
# "rows" list.  Without `indent` the encoder runs in C.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
_NESTED = {list, dict}  # _json_safe turns every list, tuple and dict into these


def row_dict(row):
    """A report row dataclass as a dict of its fields in field order.  Every
    field is a scalar, so a shallow copy is the whole row."""
    return dict(vars(row))


def emit_rows(rows, out_dir, basename, header=None):
    """Write flat dict rows as CSV (with a commented config header) and JSON
    (sorted keys, 2-space indent).  The columns are the first row's keys; a
    row with other keys, or in another order, or with a list, tuple or dict
    value raises ValueError naming its index, and leaves both files
    incomplete."""
    if not rows:
        raise ValueError("nothing to emit: empty row set")
    columns = tuple(rows[0])
    if not columns:
        raise ValueError("nothing to emit: rows have no columns")
    header = header or {}
    config = json.dumps(_json_safe(header), indent=2, sort_keys=True).replace("\n", "\n  ")
    with _open_out(out_dir, f"{basename}.csv") as csv_fh, \
            _open_out(out_dir, f"{basename}.json") as json_fh:
        for key in sorted(header):
            csv_fh.write(f"# {key}={_json_safe(header[key])}\n")
        writer = csv.writer(csv_fh)
        writer.writerow(columns)
        json_fh.write(f'{{\n  "config": {config},\n  "rows": [\n    ')
        for index, row in enumerate(rows):
            if tuple(row) != columns:
                raise ValueError(f"row {index}: columns {list(row)} are not the first "
                                 f"row's {list(columns)}")
            safe = _json_safe(row)
            if not _NESTED.isdisjoint(map(type, safe.values())):
                raise ValueError(f"row {index}: a report row must be flat, got a list, "
                                 "tuple or dict value")
            writer.writerow(format_row(row))
            if index:
                json_fh.write(",\n    ")
            json_fh.write("{\n      " + _ROW_ENCODER.encode(safe)[1:-1] + "\n    }")
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
    rows = []
    for report in reports:
        if not report.rows:
            raise ValueError("nothing to emit: report has no sensor rows")
        rows.extend(map(row_dict, report.rows))
    header = {key: value for key, value in reports[0].config.items()
              if key not in ("year", "rate_bps", "penetration_per_100")
              and all(r.config.get(key) == value for r in reports)}
    return emit_rows(rows, out_dir, "rfi_report", header=header)


def emit_guard_sweep(rows, out_dir, header=None):
    return emit_rows([row_dict(r) for r in rows], out_dir, "guard_sweep", header=header)
