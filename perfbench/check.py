"""Output checks for the benchmark's workloads.

Every run is checked for structure and for properties that hold at any
seed: the RFI composition identity

    rfi = mean_p_tx + delta_db + net_gain + 10 log10(N) + calibration

on every report row, and a guard-sweep table whose max rates lie on the
rate grid and never rise as the year advances at a fixed guard (every
year reuses the same power batch per guard and rate, and the footprint
count only grows with adoption).  Where `reference/` holds outputs the
seed code produced for this workload, seed and size, the run must also
reproduce them: counts, labels and rates exactly, `rfi_dbw` and
`mean_p_tx_dbw` within 1e-6 dB.

The max rate is not checked to be monotone in the guard.  The model
averages power over feasible trials only, so a narrow guard whose tight
per-BS budget drops a costly trial can report a lower mean power, and a
higher max rate, than a wider guard (at 20 trials: seeds 48, 70 and 118
of 0-130).  `guard_falls` counts those steps so they stay visible.
"""

import gzip
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DB_TOL = 1e-6
FLOAT_FIELDS = ("rfi_dbw", "mean_p_tx_dbw")
EXACT_FIELDS = ("sensor_id", "n_footprint", "worst_county_fips", "infeasibility_rate")
SWEEP_RATES_MBPS = (0, 100, 200, 300, 400, 500)  # 0: no grid rate complies


def _num(value):
    """Undo the report's JSON encoding of non-finite floats."""
    if value is None:
        return math.nan
    if isinstance(value, str):
        return float(value)
    return value


def _same_db(a, b):
    a, b = _num(a), _num(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= DB_TOL


def _worst_sensor(rows):
    best = max(rows, key=lambda r: -math.inf if math.isnan(_num(r["rfi_dbw"]))
               else _num(r["rfi_dbw"]))
    return best["sensor_id"]


def fingerprint(workload, report: dict) -> dict:
    """The report fields the reference pins, as plain JSON data."""
    rows = report["rows"]
    if workload.report == "guard_sweep.json":
        return {"table": [[r["year"], r["guard_mhz"], r["max_rate_mbps"]] for r in rows]}
    n_sensors = len(report["config"]["sensor_ids"])
    points = [rows[i:i + n_sensors] for i in range(0, len(rows), n_sensors)]
    return {
        "rows": [[r[f] for f in EXACT_FIELDS + FLOAT_FIELDS] for r in rows],
        "worst_sensor": [_worst_sensor(p) for p in points],
    }


def _coords(row):
    return (row["year"], row.get("adoption_factor", 1.0), row["guard_mhz"],
            row.get("rate_mbps"))


def check_invariants(workload, report: dict) -> list:
    """Errors in a report that any seed would reveal."""
    rows = report["rows"]
    errors = []
    if workload.report == "guard_sweep.json":
        got = [(r["year"], 1.0, r["guard_mhz"], None) for r in rows]
        if got != workload.points():
            return [f"sweep table covers {got}, expected {workload.points()}"]
        by_guard = {}
        for r in rows:
            if r["max_rate_mbps"] not in SWEEP_RATES_MBPS:
                errors.append(f"max rate {r['max_rate_mbps']} is not on the grid "
                              f"{SWEEP_RATES_MBPS}")
            by_guard.setdefault(r["guard_mhz"], []).append(r["max_rate_mbps"])
        for guard, rates in by_guard.items():  # rates in year order
            if any(b > a for a, b in zip(rates, rates[1:])):
                errors.append(f"max rate rises with the year at guard {guard} MHz: {rates}")
        return errors

    sensors = report["config"]["sensor_ids"]
    expected = [p for p in workload.points() for _ in sensors]
    got = [_coords(r) for r in rows]
    if got != expected or [r["sensor_id"] for r in rows] != sensors * len(workload.points()):
        return [f"report has {len(rows)} rows, not the expected "
                f"{len(workload.points())} points x {sensors}"]
    calibration = report["config"]["calibration_db"]
    for i, r in enumerate(rows):
        rfi, n_fp = _num(r["rfi_dbw"]), r["n_footprint"]
        if n_fp <= 0 or not math.isfinite(rfi):
            continue
        composed = (_num(r["mean_p_tx_dbw"]) + _num(r["delta_db"]) + r["net_gain_db"]
                    + 10.0 * math.log10(n_fp) + calibration)
        if not _same_db(rfi, composed):
            errors.append(f"row {i} ({r['sensor_id']}): rfi_dbw {rfi!r} != composed "
                          f"{composed!r}")
    return errors


def guard_falls(workload, out_dir) -> dict:
    """{"guard_falls": steps where the sweep's max rate falls as the guard
    widens} for the sweep workload; {} for the others."""
    if workload.report != "guard_sweep.json":
        return {}
    with open(Path(out_dir) / workload.report, encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    by_year = {}
    for r in rows:
        by_year.setdefault(r["year"], []).append(r["max_rate_mbps"])
    return {"guard_falls": sum(b < a for rates in by_year.values()
                               for a, b in zip(rates, rates[1:]))}


def reference_path(workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}-seed{workload.seed}.json.gz"


def load_reference(workload):
    """The stored fingerprint for this workload and seed, if it was made at
    the same sizes; None otherwise."""
    path = reference_path(workload)
    if not path.exists():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["params"] != workload.params_dict():
        return None
    return ref["fingerprint"]


def write_reference(workload, report: dict):
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    payload = {"params": workload.params_dict(), "fingerprint": fingerprint(workload, report)}
    # mtime=0 keeps the compressed bytes identical across regenerations.
    with gzip.GzipFile(path, "wb", mtime=0) as raw:
        raw.write(json.dumps(payload, sort_keys=True).encode("utf-8"))


def compare(got: dict, ref: dict) -> list:
    """Errors where a fingerprint departs from its reference."""
    if "table" in ref:
        return [] if got["table"] == ref["table"] else [
            f"sweep table {got['table']} != reference {ref['table']}"]
    errors = []
    if got["worst_sensor"] != ref["worst_sensor"]:
        errors.append("worst sensor differs from the reference")
    if len(got["rows"]) != len(ref["rows"]):
        return errors + [f"{len(got['rows'])} rows, reference has {len(ref['rows'])}"]
    n_exact = len(EXACT_FIELDS)
    for i, (g, r) in enumerate(zip(got["rows"], ref["rows"])):
        if g[:n_exact] != r[:n_exact]:
            errors.append(f"row {i}: {dict(zip(EXACT_FIELDS, g))} != reference "
                          f"{dict(zip(EXACT_FIELDS, r))}")
        for name, a, b in zip(FLOAT_FIELDS, g[n_exact:], r[n_exact:]):
            if not _same_db(a, b):
                errors.append(f"row {i}: {name} {a!r} != reference {b!r}")
        if len(errors) > 10:
            break
    return errors


def check(workload, out_dir) -> list:
    """All errors in the report a run left in `out_dir`."""
    with open(Path(out_dir) / workload.report, encoding="utf-8") as fh:
        report = json.load(fh)
    errors = check_invariants(workload, report)
    ref = load_reference(workload)
    if ref is not None and not errors:
        errors = compare(fingerprint(workload, report), ref)
    return errors
