"""County-level base-station projections and satellite-footprint counts.

Subscriber demand per county converts to a BS count sized for the peak
per-user demand; uniform BS density within the county then gives the
expected number of stations inside a satellite footprint placed fully
inside the county (worst case).
"""

import csv
import io
from dataclasses import dataclass, field
from importlib import resources
from math import ceil, floor

from ._fields import bounded, check_fields

__all__ = [
    "CountyRecord",
    "RowDiagnostic",
    "CountyIngest",
    "IngestError",
    "ingest_counties",
    "load_bundled_counties",
    "bs_count",
    "build_snapshot",
    "worst_case_footprint",
]

METRO_RUCC_CODES = {1, 2, 3}


class IngestError(ValueError):
    """Raised when a county source is structurally unusable."""


@dataclass(frozen=True)
class CountyRecord:
    fips: str
    name: str
    state: str
    rucc_code: int = bounded(ge=1, le=9)
    population: int = bounded(ge=0)
    land_area_km2: float = bounded(gt=0)

    def __post_init__(self):
        check_fields(self)
        if len(self.fips) != 5 or not self.fips.isdigit():
            raise ValueError(f"FIPS must be a 5-digit code, got {self.fips!r}")

    def __hash__(self):
        # Hashed by FIPS alone, as `SensorSpec` is by its id; equality still
        # compares every field.
        return hash(self.fips)


@dataclass(frozen=True)
class RowDiagnostic:
    line: int
    reason: str


@dataclass
class CountyIngest:
    records: list
    rejected: list = field(default_factory=list)


def _read_csv(path, columns) -> list:
    """(line, {column: field}) of each row of the UTF-8 CSV file `path`, a
    leading byte-order mark dropped; text that is not UTF-8, a header without
    every name in `columns`, a row with more or fewer fields than the header
    or that the csv module cannot read (a field past its size limit) raises
    an IngestError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, [])
        if not set(columns).issubset(header):
            raise IngestError(f"{path}: header must contain {sorted(columns)}")
        rows = []
        for fields in reader:
            if not fields:  # a blank line
                continue
            if len(fields) != len(header):
                raise IngestError(f"{path}: field count {len(fields)} at line "
                                  f"{reader.line_num}, header has {len(header)}")
            rows.append((reader.line_num, dict(zip(header, fields))))
    except csv.Error as exc:
        raise IngestError(f"{path}: {exc} at line {reader.line_num}") from None
    return rows


def _fips(field):
    """The 5-digit FIPS code a CSV field writes, leading zeros restored (a
    spreadsheet drops them), or None if the stripped field is not 1 to 5
    ASCII digits."""
    code = field.strip()
    if 0 < len(code) <= 5 and code.isascii() and code.isdigit():
        return code.zfill(5)
    return None


def _read_gazetteer(path) -> dict:
    """FIPS -> land area of each row; a FIPS that is not a 5-digit code or is
    listed twice, or an area that is not a number, aborts, since which area
    is meant cannot be told."""
    areas = {}
    seen = {}
    for line, row in _read_csv(path, ("fips", "land_area_km2")):
        fips = _fips(row["fips"])
        if fips is None:
            raise IngestError(f"{path}: FIPS {row['fips']!r} at line {line} "
                              "is not a 5-digit code")
        try:
            area = float(row["land_area_km2"])
        except ValueError:
            raise IngestError(f"{path}: land area {row['land_area_km2']!r} at line {line} "
                              "is not a number") from None
        if fips in seen:
            raise IngestError(f"{path}: duplicate FIPS {fips} at line {line} "
                              f"(first seen at line {seen[fips]})")
        seen[fips] = line
        areas[fips] = area
    return areas


def ingest_counties(county_csv, gazetteer_csv) -> CountyIngest:
    """Parse the county and land-area sources into metro CountyRecords.

    Schema: county CSV fips,name,state,rucc_code,population; gazetteer
    CSV fips,land_area_km2.  Malformed rows, rows with a FIPS that is not
    a 5-digit code and rows without a gazetteer area are rejected with
    per-line diagnostics; non-metro rows (RUCC 4-9) are filtered.  A row
    whose field count differs from its header, a gazetteer FIPS that is not
    a 5-digit code or area that is not a number, or a FIPS that either file
    lists twice aborts the ingest.  A FIPS of fewer digits is read with its
    leading zeros restored.
    """
    areas = _read_gazetteer(gazetteer_csv)
    records = []
    rejected = []
    seen = {}
    for line, row in _read_csv(county_csv, ("fips", "name", "state", "rucc_code", "population")):
        fips = _fips(row["fips"])
        if fips is None:
            rejected.append(RowDiagnostic(line, f"FIPS {row['fips']!r}: not a 5-digit code"))
            continue
        try:
            rucc = int(row["rucc_code"])
            population = int(row["population"])
        except ValueError as exc:
            rejected.append(RowDiagnostic(line, f"malformed row: {exc}"))
            continue
        if fips in seen:
            raise IngestError(f"{county_csv}: duplicate FIPS {fips} at line {line} "
                              f"(first seen at line {seen[fips]})")
        seen[fips] = line
        if rucc not in METRO_RUCC_CODES:
            continue
        if fips not in areas:
            rejected.append(RowDiagnostic(line, f"FIPS {fips}: no land area in gazetteer"))
            continue
        try:
            record = CountyRecord(
                fips=fips,
                name=row["name"].strip(),
                state=row["state"].strip(),
                rucc_code=rucc,
                population=population,
                land_area_km2=areas[fips],
            )
        except ValueError as exc:
            rejected.append(RowDiagnostic(line, f"FIPS {fips}: {exc}"))
            continue
        records.append(record)
    records.sort(key=lambda r: r.fips)
    return CountyIngest(records=records, rejected=rejected)


def load_bundled_counties() -> CountyIngest:
    """The bundled sample county and gazetteer CSVs, ingested."""
    data = resources.files("eesscoex.data")
    return ingest_counties(str(data.joinpath("counties_metro_sample.csv")),
                           str(data.joinpath("county_land_area_km2.csv")))


def bs_count(county: CountyRecord, penetration_per_100: float, rate_bps: float,
             eta_bps_per_hz: float, bandwidth_hz: float) -> int:
    """Base stations needed to serve the county's subscribers at `rate_bps` each.

    Ceiling rounding so provisioned capacity always covers demand.
    """
    if penetration_per_100 < 0:
        raise ValueError(f"penetration must be >= 0, got {penetration_per_100}")
    if rate_bps < 0:
        raise ValueError(f"rate must be >= 0, got {rate_bps}")
    if eta_bps_per_hz <= 0 or bandwidth_hz <= 0:
        raise ValueError("spectral efficiency and bandwidth must be positive")
    users = county.population * penetration_per_100 / 100.0
    demand = users * rate_bps
    return ceil(demand / (eta_bps_per_hz * bandwidth_hz))


def _footprint_count(n_bs, a_sat_km2, a_county_km2):
    """Stations from one county inside a satellite footprint.

    Uniform density with the footprint fully inside the county (worst
    case): floor(min(A_sat, A_county)/A_county * N_BS).
    """
    return floor(min(a_sat_km2, a_county_km2) / a_county_km2 * n_bs)


def build_snapshot(records, rate_bps: float, eta_bps_per_hz: float, bandwidth_hz: float,
                   penetration_per_100: float) -> tuple:
    """Deterministic (record, BS count) pairs for one configuration, in FIPS order."""
    return tuple((record, bs_count(record, penetration_per_100, rate_bps, eta_bps_per_hz,
                                   bandwidth_hz))
                 for record in sorted(records, key=lambda r: r.fips))


def worst_case_footprint(snapshot, sensor):
    """County maximizing the footprint BS count for a sensor; ties to lowest FIPS.

    `snapshot` holds `build_snapshot`'s FIPS-ordered pairs, so the first
    strict maximum is the lowest FIPS.  Record areas, the sensor's footprint
    area and the counts are checked where they are made, so the count is
    taken unchecked."""
    best = None
    a_sat = sensor.footprint_area_km2
    for record, n_bs in snapshot:
        count = _footprint_count(n_bs, a_sat, record.land_area_km2)
        if best is None or count > best[1]:
            best = (record, count)
    if best is None:
        raise ValueError("empty county record set")
    return best
