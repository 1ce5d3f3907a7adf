import csv
import re
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eesscoex.adoption import scenario_penetration
from eesscoex.deployment import (
    METRO_RUCC_CODES,
    CountyRecord,
    IngestError,
    _footprint_count,
    bs_count,
    build_snapshot,
    ingest_counties,
    load_bundled_counties,
    worst_case_footprint,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def sources(tmp_path):
    counties = _write(tmp_path / "c.csv",
                      "fips,name,state,rucc_code,population\n"
                      "06037,Los Angeles,CA,1,10000000\n"
                      "30111,Yellowstone,MT,3,167146\n"
                      "46013,Brown,SD,5,38301\n")
    gaz = _write(tmp_path / "g.csv",
                 "fips,land_area_km2\n06037,10510.0\n30111,6825.3\n46013,4438.5\n")
    return counties, gaz


def test_ingest_valid_rows(sources):
    result = ingest_counties(*sources)
    assert [r.fips for r in result.records] == ["06037", "30111"]
    assert not result.rejected
    la = result.records[0]
    assert (la.name, la.state, la.population) == ("Los Angeles", "CA", 10000000)
    assert la.land_area_km2 == 10510.0


def test_ingest_filters_nonmetro(tmp_path):
    counties = _write(tmp_path / "c.csv",
                      "fips,name,state,rucc_code,population\n01001,Autauga,AL,4,58805\n")
    gaz = _write(tmp_path / "g.csv", "fips,land_area_km2\n01001,1539.6\n")
    result = ingest_counties(counties, gaz)
    assert result.records == []
    assert not result.rejected


def test_ingest_duplicate_fips_raises(tmp_path):
    counties = _write(tmp_path / "c.csv",
                      "fips,name,state,rucc_code,population\n"
                      "06037,Los Angeles,CA,1,10000000\n"
                      "06037,Los Angeles,CA,1,10000000\n")
    gaz = _write(tmp_path / "g.csv", "fips,land_area_km2\n06037,10510.0\n")
    with pytest.raises(IngestError, match="06037"):
        ingest_counties(counties, gaz)


@pytest.mark.parametrize("areas", [("10510.0", "10"), ("10", "10510.0")])
def test_ingest_duplicate_gazetteer_fips_raises(tmp_path, areas):
    counties = _write(tmp_path / "c.csv",
                      "fips,name,state,rucc_code,population\n06037,Los Angeles,CA,1,10000000\n")
    gaz = _write(tmp_path / "g.csv", "fips,land_area_km2\n" + "".join(
        f"06037,{area}\n" for area in areas))
    with pytest.raises(IngestError) as info:
        ingest_counties(counties, gaz)
    assert str(info.value) == f"{gaz}: duplicate FIPS 06037 at line 3 (first seen at line 2)"


def test_ingest_malformed_row_diagnostic(tmp_path):
    counties = _write(tmp_path / "c.csv",
                      "fips,name,state,rucc_code,population\n"
                      "06037,Los Angeles,CA,1,ten million\n"
                      "53033,King,WA,1,2271380\n")
    gaz = _write(tmp_path / "g.csv", "fips,land_area_km2\n06037,10510.0\n53033,5478.6\n")
    result = ingest_counties(counties, gaz)
    assert [r.fips for r in result.records] == ["53033"]
    assert len(result.rejected) == 1
    assert result.rejected[0].line == 2


@pytest.mark.parametrize("fips", ["", "  ", "060370", "6037x", "0603\u0667"])
def test_ingest_rejects_a_county_fips_that_is_not_a_5_digit_code_as_written(tmp_path, fips):
    counties = _write(tmp_path / "c.csv", "fips,name,state,rucc_code,population\n"
                      f"{fips},San Diego,CA,1,3269973\n53033,King,WA,1,2271380\n")
    gaz = _write(tmp_path / "g.csv", "fips,land_area_km2\n06037,10510.0\n53033,5478.6\n")
    result = ingest_counties(counties, gaz)
    assert [r.fips for r in result.records] == ["53033"]
    assert [(d.line, d.reason) for d in result.rejected] == [
        (2, f"FIPS {fips!r}: not a 5-digit code")]


def test_ingest_restores_the_leading_zeros_of_a_short_fips(tmp_path):
    counties = _write(tmp_path / "c.csv", "fips,name,state,rucc_code,population\n"
                      "6037,Los Angeles,CA,1,10000000\n")
    gaz = _write(tmp_path / "g.csv", "fips,land_area_km2\n 6037 ,10510.0\n")
    assert [r.fips for r in ingest_counties(counties, gaz).records] == ["06037"]


def test_ingest_missing_area_rejected(tmp_path):
    counties = _write(tmp_path / "c.csv",
                      "fips,name,state,rucc_code,population\n06037,Los Angeles,CA,1,10000000\n")
    gaz = _write(tmp_path / "g.csv", "fips,land_area_km2\n")
    result = ingest_counties(counties, gaz)
    assert result.records == []
    assert "06037" in result.rejected[0].reason


def test_ingest_bad_header(tmp_path):
    counties = _write(tmp_path / "c.csv", "a,b\n1,2\n")
    gaz = _write(tmp_path / "g.csv", "fips,land_area_km2\n")
    with pytest.raises(IngestError):
        ingest_counties(counties, gaz)



COUNTY_HEADER = "fips,name,state,rucc_code,population\n"
GAZETTEER_HEADER = "fips,land_area_km2\n"
LA_ROW = "06037,Los Angeles,CA,1,10000000\n"
LA_AREA = "06037,10510.0\n"

# (county CSV, gazetteer CSV, the file at fault, the message after its path):
# text the ingest would otherwise misread, or could only blame on the other file.
UNREADABLE_SOURCES = [
    pytest.param(COUNTY_HEADER + "06037,Los Angeles,CA,1,10,000,000\n",
                 GAZETTEER_HEADER + LA_AREA, "c.csv", "field count 7 at line 2, header has 5",
                 id="county-thousands-separators"),
    pytest.param(COUNTY_HEADER + LA_ROW + "53033,King,WA,1\n",
                 GAZETTEER_HEADER + LA_AREA, "c.csv", "field count 4 at line 3, header has 5",
                 id="county-short-row"),
    pytest.param(COUNTY_HEADER + LA_ROW, GAZETTEER_HEADER + "06037,10,510\n", "g.csv",
                 "field count 3 at line 2, header has 2", id="gazetteer-thousands-separators"),
    pytest.param(COUNTY_HEADER + LA_ROW, GAZETTEER_HEADER + "06037\n", "g.csv",
                 "field count 1 at line 2, header has 2", id="gazetteer-short-row"),
    pytest.param(COUNTY_HEADER + LA_ROW, "fips,area\n06037,10510.0\n", "g.csv",
                 "header must contain ['fips', 'land_area_km2']",
                 id="gazetteer-without-area-column"),
    pytest.param(COUNTY_HEADER + LA_ROW, GAZETTEER_HEADER + "06037,10510 km2\n", "g.csv",
                 "land area '10510 km2' at line 2 is not a number", id="gazetteer-area-unit"),
    pytest.param(COUNTY_HEADER + LA_ROW + "53033,King,WA,1,2271380\n",
                 GAZETTEER_HEADER + LA_AREA + "5303x,5478.6\n", "g.csv",
                 "FIPS '5303x' at line 3 is not a 5-digit code", id="gazetteer-fips-not-digits"),
    pytest.param(COUNTY_HEADER + LA_ROW, GAZETTEER_HEADER + "060370,10510.0\n", "g.csv",
                 "FIPS '060370' at line 2 is not a 5-digit code", id="gazetteer-fips-six-digits"),
    pytest.param(COUNTY_HEADER + LA_ROW, GAZETTEER_HEADER + LA_AREA + ",10807.4\n", "g.csv",
                 "FIPS '' at line 3 is not a 5-digit code", id="gazetteer-fips-blank"),
    pytest.param(COUNTY_HEADER + LA_ROW, GAZETTEER_HEADER + " ,10807.4\n" + LA_AREA, "g.csv",
                 "FIPS ' ' at line 2 is not a 5-digit code", id="gazetteer-fips-spaces"),
    pytest.param(COUNTY_HEADER + LA_ROW, GAZETTEER_HEADER + "53033,5478.6\n06037,\n",
                 "g.csv", "land area '' at line 3 is not a number", id="gazetteer-empty-area"),
    pytest.param(COUNTY_HEADER + "06037," + "x" * 200_000 + ",CA,1,10000000\n",
                 GAZETTEER_HEADER + LA_AREA, "c.csv",
                 f"field larger than field limit ({csv.field_size_limit()}) at line 2",
                 id="county-field-past-csv-limit"),
    pytest.param(COUNTY_HEADER + LA_ROW, GAZETTEER_HEADER + "06037," + "1" * 200_000 + "\n",
                 "g.csv", f"field larger than field limit ({csv.field_size_limit()}) at line 2",
                 id="gazetteer-field-past-csv-limit"),
]


@pytest.mark.parametrize("county_text, gazetteer_text, at_fault, message", UNREADABLE_SOURCES)
def test_ingest_raises_naming_the_unreadable_file_and_line(tmp_path, county_text,
                                                           gazetteer_text, at_fault, message):
    counties = _write(tmp_path / "c.csv", county_text)
    gaz = _write(tmp_path / "g.csv", gazetteer_text)
    with pytest.raises(IngestError) as info:
        ingest_counties(counties, gaz)
    assert str(info.value) == f"{tmp_path / at_fault}: {message}"


def test_ingest_line_numbers_count_blank_lines(tmp_path):
    counties = _write(tmp_path / "c.csv",
                      COUNTY_HEADER + "\n06037,Los Angeles,CA,1,ten million\n")
    gaz = _write(tmp_path / "g.csv", GAZETTEER_HEADER + LA_AREA)
    assert [diag.line for diag in ingest_counties(counties, gaz).rejected] == [3]


REJECT, ABORT = "reject", "abort"


def _number_text(draw, value, unit, spoilt):
    """`value` written as a CSV field, and what the ingest must read: the value,
    REJECT (a rejected row) or ABORT (an IngestError).  An unquoted thousands
    separator splits the field and aborts; a quoted one or a stray `unit`
    spoils the number, which gives `spoilt`."""
    style = draw(st.sampled_from(["plain"] * 20 + ["padded", "thousands", "quoted-thousands",
                                                   "unit"]))
    if style == "plain":
        return str(value), value
    if style == "padded":
        return f" {value} ", value
    grouped = f"{value:,}"
    if style == "thousands":
        return grouped, value if "," not in grouped else ABORT
    if style == "quoted-thousands":
        return f'"{grouped}"', value if "," not in grouped else spoilt
    return f"{value} {unit}", spoilt


@st.composite
def county_sources(draw):
    """County and gazetteer CSV text, with a byte-order mark or not, blank
    lines, quoted commas, short rows, thousands separators, stray units and
    FIPS that are not 5-digit codes (blank ones among them);
    and what the ingest must make of them: {fips: (population, area)} of the
    accepted records, the lines of rejected county rows, and each file's
    lines that must abort the ingest."""
    county = ["fips,name,state,rucc_code,population"]
    gazetteer = ["fips,land_area_km2"]
    records, rejected, aborts = {}, set(), {"c.csv": set(), "g.csv": set()}
    for i in range(draw(st.integers(1, 6))):
        for lines in (county, gazetteer):
            if draw(st.integers(0, 4)) == 0:
                lines.append("")
        fips = f"{1001 + i:05d}"
        name = draw(st.sampled_from(["Autauga", '"King, WA"', '"Lewis and Clark, MT"']))
        rucc = draw(st.sampled_from([1, 2, 3, 1, 2, 3, 4, 9]))
        population, people = _number_text(draw, draw(st.integers(0, 10**7)), "people", REJECT)
        county_fips = draw(st.sampled_from([fips] * 17 + ["", " ", f"{fips[:4]}x"]))
        if draw(st.integers(0, 19)) == 0:  # a short row
            county.append(f"{county_fips},{name},CA,{rucc}")
            aborts["c.csv"].add(len(county))
        else:
            county.append(f"{county_fips},{name},CA,{rucc},{population}")
            if people == ABORT:
                aborts["c.csv"].add(len(county))
        area = None
        gazetteer_row = draw(st.sampled_from(["number"] * 16 + ["zero", "short", "none",
                                                                "spoilt-fips", "blank-fips"]))
        if gazetteer_row == "number":
            text, area = _number_text(draw, draw(st.floats(1.0, 1e5)), "km2", ABORT)
            gazetteer.append(f"{fips},{text}")
        elif gazetteer_row == "zero":
            gazetteer.append(f"{fips},0")
        elif gazetteer_row == "short":
            gazetteer.append(fips)
            area = ABORT
        elif gazetteer_row == "spoilt-fips":
            gazetteer.append(f"{fips[:4]}x,1.0")
            area = ABORT
        elif gazetteer_row == "blank-fips":
            gazetteer.append(draw(st.sampled_from(["", " "])) + ",1.0")
            area = ABORT
        if area == ABORT:
            aborts["g.csv"].add(len(gazetteer))
        line = len(county)
        if line in aborts["c.csv"]:
            continue
        if people == REJECT or county_fips != fips:
            rejected.add(line)
        elif rucc not in METRO_RUCC_CODES:
            continue
        elif area is None:  # no area, or an area of 0
            rejected.add(line)
        elif area != ABORT:
            records[fips] = (people, area)
    texts = ["\n".join(lines) + "\n" for lines in (county, gazetteer)]
    boms = [draw(st.sampled_from(["", "\ufeff"])) for _ in texts]
    return [bom + text for bom, text in zip(boms, texts)], records, rejected, aborts


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=county_sources())
def test_ingest_reads_each_row_as_written_or_names_it(case):
    texts, records, rejected, aborts = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("c.csv", "g.csv")]
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="utf-8")
        try:
            result = ingest_counties(*map(str, paths))
        except IngestError as exc:
            # The gazetteer is read first, so its faults abort before the county CSV's.
            at_fault = "g.csv" if aborts["g.csv"] else "c.csv"
            match = re.fullmatch(rf"{re.escape(tmp)}/{at_fault}: .* at line (\d+)\b.*", str(exc))
            assert match and int(match.group(1)) in aborts[at_fault], str(exc)
            return
    assert not aborts["c.csv"] and not aborts["g.csv"]
    assert {r.fips: (r.population, r.land_area_km2) for r in result.records} == records
    assert {diag.line for diag in result.rejected} == rejected


LA = CountyRecord(fips="06037", name="Los Angeles", state="CA", rucc_code=1,
                  population=10_000_000, land_area_km2=10510.0)


def test_bs_count_example():
    assert bs_count(LA, 1.0, 100e6, 50.0, 250e6) == 800


def test_bs_count_zero_penetration():
    assert bs_count(LA, 0.0, 100e6, 50.0, 250e6) == 0


def test_bs_count_rate_linearity():
    assert bs_count(LA, 1.0, 500e6, 50.0, 250e6) == 4000


def test_bs_count_ceil():
    county = CountyRecord(fips="99999", name="X", state="XX", rucc_code=1,
                          population=1001, land_area_km2=10.0)
    # 10.01 users * 1e8 / 1.25e10 = 0.08008 -> 1 BS
    assert bs_count(county, 1.0, 100e6, 50.0, 250e6) == 1


def test_footprint_count_examples():
    assert _footprint_count(100, 209.0, 1000.0) == 20
    assert _footprint_count(100, 2000.0, 1000.0) == 100  # footprint covers county
    assert _footprint_count(4000, 209.0, 10510.0) == 79


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=10**6),
       a_sat=st.floats(min_value=1.0, max_value=5e4),
       a_county=st.floats(min_value=1.0, max_value=5e4))
def test_footprint_never_exceeds_bs_count(n, a_sat, a_county):
    assert 0 <= _footprint_count(n, a_sat, a_county) <= n


def test_snapshot_deterministic(counties):
    a = build_snapshot(counties, 500e6, 50.0, 250e6, 10.0)
    b = build_snapshot(counties, 500e6, 50.0, 250e6, 10.0)
    assert a == b
    assert [record.fips for record, _ in a] == sorted(record.fips for record in counties)


def test_snapshot_monotone_in_year_rate_penetration(counties):
    base = build_snapshot(counties, 100e6, 50.0, 250e6, 1.0)
    later = build_snapshot(counties, 100e6, 50.0, 250e6, 10.0)
    faster = build_snapshot(counties, 500e6, 50.0, 250e6, 1.0)
    for (county, n), (_, n_later), (_, n_faster) in zip(base, later, faster):
        assert n_later >= n and n_faster >= n, county.fips


def test_worst_case_footprint_is_la(counties, catalog):
    for year in (2030, 2035, 2040):
        for rate in (100e6, 200e6, 300e6, 400e6, 500e6):
            snapshot = build_snapshot(counties, rate, 50.0, 250e6,
                                      scenario_penetration(year, 1.0))
            for sid in catalog:
                county, count = worst_case_footprint(snapshot, catalog[sid])
                assert county.fips == "06037", (year, rate, sid)
                assert count > 0


def test_worst_case_footprint_matches_argmax_oracle(counties, catalog):
    snapshot = build_snapshot(counties, 500e6, 50.0, 250e6, 10.0)
    sensor = catalog["B5"]
    county, count = worst_case_footprint(snapshot, sensor)
    counts = {record.fips: n for record, n in snapshot}
    best = max(
        counties,
        key=lambda r: (_footprint_count(counts[r.fips],
                                        sensor.footprint_area_km2,
                                        r.land_area_km2), -int(r.fips)),
    )
    assert county.fips == best.fips
    assert count == _footprint_count(counts[best.fips],
                                     sensor.footprint_area_km2, best.land_area_km2)


def _worst_case_footprint_by_sorted_fips(records, snapshot, sensor):
    # The checked, sorted-FIPS scan worst_case_footprint replaced, kept as its reference.
    by_fips = {r.fips: r for r in records}
    counts = {record.fips: n for record, n in snapshot}
    best = None
    for fips in sorted(by_fips):
        count = _footprint_count(counts[fips], sensor.footprint_area_km2,
                                 by_fips[fips].land_area_km2)
        if best is None or count > best[1]:
            best = (by_fips[fips], count)
    return best


def test_worst_case_footprint_matches_sorted_scan_on_bundled_counties(counties, catalog):
    for year in (2030, 2035, 2040):
        for factor in (0.5, 1.0, 1.5):
            for rate in (100e6, 200e6, 300e6, 400e6, 500e6):
                penetration = scenario_penetration(year, factor)
                snapshot = build_snapshot(counties, rate, 50.0, 250e6, penetration)
                for sensor in catalog.values():
                    expected = _worst_case_footprint_by_sorted_fips(counties, snapshot, sensor)
                    for records in (counties, counties[::-1]):
                        got = worst_case_footprint(
                            build_snapshot(records, rate, 50.0, 250e6, penetration), sensor)
                        assert got == expected and got[0] is expected[0], (year, rate, sensor)


def test_worst_case_single_county(catalog):
    records = [LA]
    snapshot = build_snapshot(records, 100e6, 50.0, 250e6, 1.0)
    county, _ = worst_case_footprint(snapshot, catalog["B5"])
    assert county.fips == "06037"


def test_worst_case_tie_breaks_to_lower_fips(catalog):
    a = CountyRecord(fips="20001", name="A", state="KS", rucc_code=1,
                     population=500_000, land_area_km2=1000.0)
    b = CountyRecord(fips="10001", name="B", state="DE", rucc_code=1,
                     population=500_000, land_area_km2=1000.0)
    records = [a, b]
    snapshot = build_snapshot(records, 100e6, 50.0, 250e6, 1.0)
    county, _ = worst_case_footprint(snapshot, catalog["B1"])
    assert county.fips == "10001"


def test_worst_case_empty_records(catalog):
    snapshot = build_snapshot([], 100e6, 50.0, 250e6, 1.0)
    with pytest.raises(ValueError, match="^empty county record set$"):
        worst_case_footprint(snapshot, catalog["B5"])


def test_bundled_sample_sane():
    result = load_bundled_counties()
    assert all(r.rucc_code in METRO_RUCC_CODES for r in result.records)
    assert "06037" in {r.fips for r in result.records}
    assert len(result.records) >= 20
    with resources.files("eesscoex.data").joinpath("counties_metro_sample.csv").open() as fh:
        nonmetro = {row["fips"] for row in csv.DictReader(fh)
                    if int(row["rucc_code"]) not in METRO_RUCC_CODES}
    assert nonmetro  # sample carries non-metro rows to exercise the filter
    assert not nonmetro & {r.fips for r in result.records}


def test_record_validation():
    with pytest.raises(ValueError):
        CountyRecord(fips="123", name="X", state="XX", rucc_code=1,
                     population=1, land_area_km2=1.0)
    with pytest.raises(ValueError):
        CountyRecord(fips="12345", name="X", state="XX", rucc_code=1,
                     population=-1, land_area_km2=1.0)
    with pytest.raises(ValueError):
        CountyRecord(fips="12345", name="X", state="XX", rucc_code=0,
                     population=1, land_area_km2=1.0)
