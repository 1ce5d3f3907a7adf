"""Deterministic CSV/JSON emission of scenario outputs.

Report bodies must be byte-identical for identical (config, seed)
regardless of execution details, so serialization uses sorted keys,
fixed float formats and no timestamps.
"""

import csv
import json
import math
import os
from dataclasses import asdict

__all__ = ["emit_report", "emit_guard_sweep", "emit_leakage_table", "emit_rows", "format_row"]

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
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "-inf" if value < 0 else "inf"
        fmt = _FLOAT_FORMATS.get(key, "{:.6f}")
        return fmt.format(value)
    return str(value)


def format_row(row):
    """A dict row's cells as text, in its key order: the CSV body and stdout format."""
    return [_format_value(key, value) for key, value in row.items()]


def _json_safe(value):
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
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


def emit_rows(rows, out_dir, basename, header=None):
    """Write dict rows as CSV (with a commented config header) and JSON; the
    columns are the first row's keys."""
    if not rows:
        raise ValueError("nothing to emit: empty row set")
    paths = {}
    header = header or {}
    with _open_out(out_dir, f"{basename}.csv") as fh:
        for key in sorted(header):
            fh.write(f"# {key}={_json_safe(header[key])}\n")
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow(format_row(row))
        paths["csv"] = fh.name
    with _open_out(out_dir, f"{basename}.json") as fh:
        json.dump({"config": _json_safe(header), "rows": _json_safe(rows)},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
        paths["json"] = fh.name
    return paths


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
        rows.extend(asdict(r) for r in report.rows)
    header = {key: value for key, value in reports[0].config.items()
              if key not in ("year", "rate_bps", "penetration_per_100")
              and all(r.config.get(key) == value for r in reports)}
    return emit_rows(rows, out_dir, "rfi_report", header=header)


def emit_guard_sweep(rows, out_dir, header=None):
    return emit_rows([asdict(r) for r in rows], out_dir, "guard_sweep", header=header)


def emit_leakage_table(rows, out_dir, header=None):
    return emit_rows(rows, out_dir, "leakage", header=header)
