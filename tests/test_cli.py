import argparse
import concurrent.futures
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eesscoex
from eesscoex import scenario
from eesscoex.adoption import scenario_penetration
from eesscoex.cli import build_parser, main
from eesscoex.deployment import bs_count, load_bundled_counties

from test_deployment import UNREADABLE_SOURCES

UNKNOWN_SENSOR = "error: unknown sensor 'B9'; have ['B1', 'B3', 'B4', 'B5', 'B7']"


def test_link_budget_command(capsys):
    assert main(["link-budget", "--sensor", "B5", "--freq", "6.925"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sensor_id"] == "B5"
    assert payload["slant_km"] == pytest.approx(1292.9, rel=0.002)
    assert payload["published_net_gain_db"] == -133.79
    assert payload["discrepancy_db"] == pytest.approx(-5.0, abs=0.02)


def test_link_budget_unknown_sensor(capsys):
    assert main(["link-budget", "--sensor", "B9"]) == 2
    assert capsys.readouterr().err.splitlines() == [UNKNOWN_SENSOR]


def test_leakage_command(tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "leakage",
                 "--orders", "7", "--guards", "25", "--sensors", "B5"])
    assert code == 0
    paths = json.loads(capsys.readouterr().out)
    lines = open(paths["csv"]).read().strip().splitlines()
    assert lines[-1].startswith("B5,7,25.0,")


def test_leakage_stdout(capsys):
    assert main(["leakage", "--orders", "7", "--guards", "25", "--sensors", "B5"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("B5,7,25.0,")


def test_adoption_command(capsys):
    assert main(["adoption", "--scenario", "150", "--year", "2040"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["penetration_per_100"] == 30.0
    assert payload["curve_per_100"] == pytest.approx(30.47, abs=0.01)


def test_deploy_command(tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "deploy", "--year", "2040",
                 "--rate", "500e6", "--scenario", "100"])
    assert code == 0
    paths = json.loads(capsys.readouterr().out)
    lines = open(paths["csv"]).read().strip().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("penetration_per_100=22.5" in l for l in header)
    rows = [l for l in lines if l.startswith("06037")]
    assert len(rows) == 1


def test_simulate_command(tmp_path, capsys):
    code = main(["--seed", "4", "--out-dir", str(tmp_path), "simulate",
                 "--year", "2030", "--rate", "100e6", "--trials", "5"])
    assert code == 0
    paths = json.loads(capsys.readouterr().out)
    payload = json.loads(open(paths["json"]).read())
    assert len(payload["rows"]) == 5
    assert payload["config"]["seed"] == 4


def test_simulate_stdout(capsys):
    assert main(["simulate", "--year", "2030", "--rate", "1e8", "--trials", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["worst_sensor"] == "B5"


def test_sweep_guard_command(capsys):
    code = main(["sweep-guard", "--years", "2030", "--guards", "20:25:5",
                 "--trials", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("2030,20.0,")
    assert lines[1].startswith("2030,25.0,")


def test_sweep_guard_header_keeps_only_keys_shared_by_every_guard(tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "sweep-guard", "--years", "2030",
                 "--guards", "20:25:5", "--trials", "2"])
    assert code == 0
    paths = json.loads(capsys.readouterr().out)
    config = json.loads(open(paths["json"]).read())["config"]
    at_20, at_25 = (scenario.ScenarioConfig(trials=2, guard_mhz=g).header(scenario.CellConfig())
                    for g in (20.0, 25.0))
    shared = {key for key in at_20 if at_20[key] == at_25[key]} - {"year", "rate_bps"}
    assert set(config) == shared
    assert not {"guard_mhz", "bandwidth_hz", "tn_band_ghz"} & set(config)
    csv_keys = {line[2:].split("=")[0] for line in open(paths["csv"]) if line.startswith("#")}
    assert csv_keys == shared


def test_leakage_header_and_config_carry_no_grid_step(tmp_path, capsys):
    # The trapezoid grid is fixed, so no header states it and no config sets it.
    assert main(["--out-dir", str(tmp_path), "leakage", "--orders", "7", "--guards", "25",
                 "--sensors", "B5"]) == 0
    paths = json.loads(capsys.readouterr().out)
    config = json.loads(open(paths["json"]).read())["config"]
    assert config == {"ripple_db": 0.2, "ref_bandwidth_mhz": 200.0}
    path = _write_config(tmp_path, {"scenario": {"grid_step_mhz": 0.05}})
    code, out, err = _run(capsys, ["--config", path, "leakage", "--sensors", "B5"])
    assert (code, out) == (2, "")
    assert err == "error: config section 'scenario': unknown key 'grid_step_mhz'\n"


def test_compliance_command(capsys):
    assert main(["compliance", "--ptx", "-5", "--guard", "25", "--order", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["leaked_psd_dbm_per_mhz"] == pytest.approx(-18.3, abs=0.1)
    assert payload["margin_db"] == pytest.approx(5.3, abs=0.1)
    assert payload["compliant"]


def test_compliance_noncompliant_exit(capsys):
    assert main(["compliance", "--ptx", "20", "--guard", "0", "--order", "3"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert not payload["compliant"]


def test_compliance_in_the_passband_exits_2(capsys):
    code, out, err = _run(capsys, ["compliance", "--guard", "25", "--eval-freq", "7.2"])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: evaluation frequency 7.2 GHz lies in the passband [7.15, 7.4] GHz; "
        "the emission limit applies outside it"]


def test_config_file_roundtrip(tmp_path, capsys):
    config = {"scenario": {"trials": 3, "seed": 11, "guard_mhz": 25.0},
              "cell": {"n_users": 4}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "simulate", "--year", "2030",
                 "--rate", "1e8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["trials"] == 3
    assert payload["config"]["seed"] == 11
    assert payload["config"]["n_users"] == 4


def test_custom_counties(tmp_path, capsys):
    counties = tmp_path / "c.csv"
    counties.write_text("fips,name,state,rucc_code,population\n"
                        "06037,Los Angeles,CA,1,10000000\n")
    gaz = tmp_path / "g.csv"
    gaz.write_text("fips,land_area_km2\n06037,10510.0\n")
    assert main(["deploy", "--year", "2030", "--rate", "5e8",
                 "--counties", str(counties), "--gazetteer", str(gaz)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["n_bs"] == 4000


def test_invalid_config_errors(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    assert main(["--config", str(path), "simulate", "--year", "2030"]) == 2
    assert "error" in capsys.readouterr().err


def _write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("config, section, key", [
    ({"scenario": {"yeer": 2040}}, "scenario", "yeer"),
    ({"cell": {"bandwidth_hz": 1e6}}, "cell", "bandwidth_hz"),
    ({"scenario": {"trials": "5"}}, "scenario", "trials"),
    ({"cell": {"noise_temp_k": float("nan")}}, "cell", "noise_temp_k"),
    ({"scenario": {"seed": -1}}, "scenario", "seed"),
    ({"scenario": {"adoption_factor": 0}}, "scenario", "adoption_factor"),
    ({"scenario": {"ref_bandwidth_mhz": 0}}, "scenario", "ref_bandwidth_mhz"),
    ({"scenario": {"ref_bandwidth_mhz": 10**400}}, "scenario", "ref_bandwidth_mhz"),
    ({"scenario": {"sensor_ids": [["B5"]]}}, "scenario", "sensor_ids"),
    ({"scenario": {"trials": 5, "guard_mhz": 60}}, "scenario", "guard_mhz"),
    ({"scenario": {"sensor_ids": ["B5", "B5"]}}, "scenario", "sensor_ids"),
])
def test_config_key_errors(tmp_path, capsys, config, section, key):
    path = _write_config(tmp_path, config)
    assert main(["--config", path, "simulate", "--year", "2030", "--trials", "2"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"'{section}'" in err[0] and f"'{key}'" in err[0]


def test_deploy_follows_config_penetration_flag(tmp_path, capsys):
    path = _write_config(tmp_path, {"scenario": {"use_published_penetration": False}})
    assert main(["--config", path, "deploy", "--year", "2035"]) == 0
    deployed = json.loads(capsys.readouterr().out)["config"]["penetration_per_100"]
    assert main(["--config", path, "simulate", "--year", "2035", "--trials", "2"]) == 0
    simulated = json.loads(capsys.readouterr().out)["config"]["penetration_per_100"]
    assert main(["--config", path, "adoption", "--year", "2035"]) == 0
    adopted = json.loads(capsys.readouterr().out)["penetration_per_100"]
    assert deployed == simulated == adopted == pytest.approx(9.0608, abs=1e-4)


def test_deploy_report_is_the_config_and_each_county_count(tmp_path, capsys):
    path = _write_config(tmp_path, {"scenario": {"use_published_penetration": False,
                                                 "eta_bps_per_hz": 20}})
    argv = ["--config", path, "deploy", "--year", "2037", "--guard", "40"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    cfg = scenario.ScenarioConfig(year=2037, guard_mhz=40.0, eta_bps_per_hz=20.0,
                                  use_published_penetration=False)
    penetration = scenario_penetration(2037, cfg.adoption_factor, use_published=False)
    assert payload["config"] == {
        "year": 2037, "adoption_factor": cfg.adoption_factor,
        "penetration_per_100": penetration, "rate_bps": cfg.max_demand_bps,
        "eta_bps_per_hz": 20.0, "bandwidth_hz": cfg.bandwidth_hz}
    records = sorted(load_bundled_counties().records, key=lambda r: r.fips)
    assert payload["rows"] == [
        {"fips": r.fips, "name": r.name, "state": r.state, "population": r.population,
         "land_area_km2": r.land_area_km2,
         "n_bs": bs_count(r, penetration, cfg.max_demand_bps, 20.0, cfg.bandwidth_hz)}
        for r in records]
    assert main(["--out-dir", str(tmp_path)] + argv) == 0
    paths = json.loads(capsys.readouterr().out)
    assert json.loads(open(paths["json"]).read()) == payload


@pytest.mark.parametrize("argv", [
    ["sweep-guard", "--guards", "0:50:0", "--trials", "2"],
    ["sweep-guard", "--guards", "0:50:-5", "--trials", "2"],
    ["simulate", "--rate", "nan", "--trials", "2"],
    ["simulate", "--rate", "inf", "--trials", "2"],
    ["leakage", "--guards", "60"],
    ["simulate", "--jobs", str((os.cpu_count() or 1) + 1), "--trials", "2"],
    ["simulate", "--jobs", "0", "--trials", "2"],
    ["sweep-guard", "--jobs", "2", "--trials", "2"],
    ["deploy", "--year", "2040", "--rate", "0"],
    ["leakage", "--orders", "100000000000000000000", "--guards", "25", "--sensors", "B5"],
    ["compliance", "--order", "100000000000000000000"],
    ["--seed", "-1", "deploy", "--year", "2030"],
    ["--seed", "-1", "simulate", "--trials", "2"],
    ["adoption", "--year", "2030", "--scenario", "0"],
    ["simulate", "--scenario", "-50", "--trials", "2"],
    ["simulate", "--year", "-5000", "--trials", "2"],
    ["adoption", "--year", "2101"],
    ["deploy", "--year", "1000"],
    ["sweep-guard", "--years", "2030,2024", "--trials", "2"],
])
def test_out_of_range_numbers_exit_2(capsys, monkeypatch, argv):
    def no_pool(*args, **kwargs):
        raise AssertionError("worker pool started for rejected input")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("argv, field", [
    (["leakage", "--orders", "100000000000000000000", "--guards", "25", "--sensors", "B5"],
     "order"),
    (["compliance", "--order", "51"], "order"),
    (["--seed", "-1", "deploy", "--year", "2030"], "seed"),
    (["--seed", "-1", "simulate", "--trials", "2"], "seed"),
    (["adoption", "--year", "2030", "--scenario", "0"], "adoption_factor"),
    (["simulate", "--guard", "60", "--trials", "2"], "guard_mhz"),
])
def test_out_of_range_field_is_named(capsys, argv, field):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: '{field}' must be ")


@pytest.mark.parametrize("message", [
    "Unable to allocate 954. GiB for an array with shape (1000000000, 8, 8) and data type "
    "complex128",
    "",
])
def test_memory_error_exits_2_with_one_line(capsys, monkeypatch, message):
    # The failing draw is faked: a real one would first try to fill the memory.
    def no_memory(cell, seed, trials):
        raise MemoryError(message)

    monkeypatch.setattr(scenario, "draw_channels", no_memory)
    code, out, err = _run(capsys, ["simulate", "--trials", "2"])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: out of memory: {message or 'allocation failed'}"]


def test_config_file_value_is_checked_under_an_overriding_flag(tmp_path, capsys):
    path = _write_config(tmp_path, {"scenario": {"guard_mhz": 60}})
    code, out, err = _run(capsys, ["--config", path, "simulate", "--guard", "25",
                                   "--trials", "2"])
    assert code == 2 and out == ""
    assert err == "error: config section 'scenario': 'guard_mhz' must be <= 50, got 60.0\n"


def _write_counties(tmp_path, areas):
    """County and gazetteer CSVs of two metro counties with the given land areas."""
    counties = tmp_path / "c.csv"
    counties.write_text("fips,name,state,rucc_code,population\n"
                        "06037,Los Angeles,CA,1,10000000\n53033,King,WA,1,2271380\n")
    gaz = tmp_path / "g.csv"
    gaz.write_text("fips,land_area_km2\n" + "".join(
        f"{fips},{area}\n" for fips, area in zip(("06037", "53033"), areas)))
    return ["--counties", str(counties), "--gazetteer", str(gaz)]


def test_duplicate_gazetteer_fips_exits_2_naming_the_gazetteer(tmp_path, capsys):
    argv = ["deploy", "--year", "2030"] + _write_counties(tmp_path, ["10510.0", "5478.6"])
    gaz = tmp_path / "g.csv"
    gaz.write_text(gaz.read_text() + "06037,10\n")
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: {gaz}: duplicate FIPS 06037 at line 4 (first seen at line 2)"]


@pytest.mark.parametrize("county_text, gazetteer_text, at_fault, message", UNREADABLE_SOURCES)
def test_unreadable_county_source_exits_2_naming_its_file_and_line(
        tmp_path, capsys, county_text, gazetteer_text, at_fault, message):
    (tmp_path / "c.csv").write_text(county_text)
    (tmp_path / "g.csv").write_text(gazetteer_text)
    code, out, err = _run(capsys, ["deploy", "--year", "2030",
                                   "--counties", str(tmp_path / "c.csv"),
                                   "--gazetteer", str(tmp_path / "g.csv")])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {tmp_path / at_fault}: {message}"]


@pytest.mark.parametrize("area", ["inf", "nan", "-inf", "0"])
def test_non_finite_gazetteer_area_is_a_rejected_row(tmp_path, capsys, area):
    argv = ["simulate", "--year", "2030", "--trials", "2"] + _write_counties(
        tmp_path, [area, "5478.6"])
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert err.startswith("warning: line 2: FIPS 06037: 'land_area_km2' must be ")
    assert len(err.splitlines()) == 1
    rows = json.loads(out)["rows"]
    assert {row["worst_county_fips"] for row in rows} == {"53033"}
    assert all(row["n_footprint"] > 0 and row["rfi_dbw"] != "-inf" for row in rows)


def test_blank_county_fips_is_a_rejected_row_named_as_written(tmp_path, capsys):
    argv = ["deploy", "--year", "2030"] + _write_counties(tmp_path, ["10510.0", "5478.6"])
    counties = tmp_path / "c.csv"
    counties.write_text(counties.read_text() + ",San Diego,CA,1,3269973\n")
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert err.splitlines() == ["warning: line 4: FIPS '': not a 5-digit code"]
    assert {row["fips"] for row in json.loads(out)["rows"]} == {"06037", "53033"}


@pytest.mark.parametrize("command", ["deploy --year 2030", "simulate --trials 2",
                                     "sweep-guard --years 2030 --guards 25:25:1 --trials 2"])
def test_no_surviving_county_is_one_error_line(tmp_path, capsys, command):
    argv = command.split() + _write_counties(tmp_path, ["inf", "nan"])
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: {tmp_path / 'c.csv'}: no metro county with a land area; 2 rows rejected, "
        f"the first at line 2: FIPS 06037: 'land_area_km2' must be a finite number, got inf"]


@pytest.mark.parametrize("catalog, reason", [
    ({"sensors": 5}, "catalog must be a JSON object with a 'sensors' list"),
    ({"sensors": [5]}, "sensors[0] must be a JSON object, got 5"),
    ("{", "Expecting property name enclosed in double quotes"),
])
def test_malformed_catalog_exits_2_naming_the_file(tmp_path, capsys, catalog, reason):
    path = tmp_path / "cat.json"
    path.write_text(catalog if isinstance(catalog, str) else json.dumps(catalog))
    code, out, err = _run(capsys, ["link-budget", "--sensor", "B5", "--catalog", str(path)])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: {reason}")


@pytest.mark.parametrize("text, key", [
    ('{"scenario": {"guard_mhz": 10}, "scenario": {"max_demand_bps": 1e8}}', "scenario"),
    ('{"scenario": {"guard_mhz": 10, "guard_mhz": 40}}', "guard_mhz"),
])
def test_config_file_duplicate_key_exits_2(tmp_path, capsys, text, key):
    path = tmp_path / "config.json"
    path.write_text(text)
    code, out, err = _run(capsys, ["--config", str(path), "deploy", "--year", "2030"])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {path}: duplicate key '{key}'"]


def test_catalog_duplicate_key_exits_2(tmp_path, capsys):
    row = json.dumps(BUNDLED_SENSORS[0])[:-1] + ', "sensor_id": "B9"}'
    path = tmp_path / "cat.json"
    path.write_text('{"sensors": [%s]}' % row)
    code, out, err = _run(capsys, ["link-budget", "--sensor", "B5", "--catalog", str(path)])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {path}: duplicate key 'sensor_id'"]


NOT_UTF8 = (b"fips\xff\n", "'utf-8' codec can't decode byte 0xff in position 4")


@pytest.mark.parametrize("flag, body, reason", [
    ("--config", b'{"scenario":\n', "Expecting value: line 2 column 1"),
    ("--config", *NOT_UTF8),
    ("--counties", *NOT_UTF8),
    ("--gazetteer", *NOT_UTF8),
    ("--catalog", *NOT_UTF8),
])
def test_unreadable_input_file_exits_2_naming_the_file(tmp_path, capsys, flag, body, reason):
    path = tmp_path / "bad"
    path.write_bytes(body)
    if flag == "--catalog":
        argv = ["link-budget", "--sensor", "B5", "--catalog", str(path)]
    else:
        argv = ["deploy", "--year", "2030"] + _write_counties(tmp_path, ["10510.0", "5478.6"])
        if flag == "--config":
            argv = ["--config", str(path)] + argv
        else:
            argv[argv.index(flag) + 1] = str(path)
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: {reason}")


@pytest.mark.parametrize("command", ["deploy --year 2030", "simulate --trials 2",
                                     "sweep-guard --years 2030 --guards 25:25:1 --trials 2"])
@pytest.mark.parametrize("given, missing", [("--counties", "--gazetteer"),
                                            ("--gazetteer", "--counties")])
def test_county_and_gazetteer_files_come_together(tmp_path, capsys, command, given, missing):
    argv = command.split() + [given, str(tmp_path / "nonexistent.csv")]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {given} requires {missing}"]


def test_simulate_stdout_is_strict_json(tmp_path, capsys):
    counties = tmp_path / "c.csv"
    counties.write_text("fips,name,state,rucc_code,population\n"
                        "06037,Tiny,CA,1,100\n")
    gaz = tmp_path / "g.csv"
    gaz.write_text("fips,land_area_km2\n06037,20000.0\n")
    assert main(["simulate", "--year", "2030", "--trials", "2",
                 "--counties", str(counties), "--gazetteer", str(gaz)]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert all(row["n_footprint"] == 0 for row in payload["rows"])
    assert all(row["rfi_dbw"] == "-inf" for row in payload["rows"])


FLOAT_FLAGS = [
    (["link-budget", "--sensor", "B5"], "--freq"),
    (["link-budget", "--sensor", "B5"], "--g-tx"),
    (["leakage", "--orders", "7", "--guards", "25", "--sensors", "B5"], "--ripple"),
    (["adoption", "--year", "2030"], "--scenario"),
    (["deploy", "--year", "2030"], "--rate"),
    (["deploy", "--year", "2030"], "--scenario"),
    (["deploy", "--year", "2030"], "--guard"),
    (["simulate", "--year", "2030", "--trials", "2"], "--rate"),
    (["simulate", "--year", "2030", "--trials", "2"], "--scenario"),
    (["simulate", "--year", "2030", "--trials", "2"], "--guard"),
    (["compliance"], "--ptx"),
    (["compliance"], "--guard"),
    (["compliance"], "--eval-freq"),
    (["compliance"], "--limit"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, flag", FLOAT_FLAGS)
def test_non_finite_float_flag_exits_2(capsys, argv, flag, value):
    assert main(argv + [f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert err == [f"error: argument {flag}: must be finite, got {float(value)}"]


def test_unknown_sensor_exits_2(tmp_path, capsys):
    assert main(["leakage", "--sensors", "B9"]) == 2
    path = _write_config(tmp_path, {"scenario": {"sensor_ids": ["B9"]}})
    assert main(["--config", path, "simulate", "--year", "2030", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [UNKNOWN_SENSOR] * 2


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (command line, config key, value in the file, the flag setting that value,
# a different flag value): the file must act as the flag would, and an
# explicit flag must win over the file.
CONFIG_FLAGS = [
    (["link-budget", "--sensor", "B5"], "g_tx_db", -3.0, "--g-tx=-3", "--g-tx=-7"),
    (["leakage", "--orders", "7", "--guards", "25", "--sensors", "B5"],
     "ripple_db", 0.5, "--ripple=0.5", "--ripple=0.1"),
    (["leakage", "--orders", "7", "--guards", "25"],
     "sensor_ids", ["B5"], "--sensors=B5", "--sensors=B1"),
    (["adoption", "--year", "2035"], "adoption_factor", 1.5, "--scenario=150", "--scenario=50"),
    (["deploy", "--year", "2035"], "adoption_factor", 1.5, "--scenario=150", "--scenario=50"),
    (["deploy", "--year", "2035"], "max_demand_bps", 1e8, "--rate=1e8", "--rate=3e8"),
    (["deploy", "--year", "2035"], "guard_mhz", 10.0, "--guard=10", "--guard=40"),
    (["simulate", "--year", "2030", "--trials", "2"], "guard_mhz", 10.0,
     "--guard=10", "--guard=40"),
    (["compliance"], "guard_mhz", 10, "--guard=10", "--guard=40"),
    (["compliance"], "p_bs_dbw", 0.0, "--ptx=0", "--ptx=-10"),
    (["compliance"], "filter_order", 5, "--order=5", "--order=9"),
]


@pytest.mark.parametrize("argv, key, value, same_flag, other_flag", CONFIG_FLAGS)
def test_flags_override_the_config_file(tmp_path, capsys, argv, key, value, same_flag,
                                        other_flag):
    path = _write_config(tmp_path, {"scenario": {key: value}})
    from_file = _run(capsys, ["--config", path] + argv)
    assert from_file == _run(capsys, argv + [same_flag])
    overridden = _run(capsys, ["--config", path] + argv + [other_flag])
    assert overridden == _run(capsys, argv + [other_flag])
    assert overridden != from_file


def _parser_actions():
    """(command prog, action) for every argument of the parser and its commands."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in [parser] + [command.complete() for command in commands.choices.values()]:
        for action in command._actions:
            yield command.prog, action


def test_no_flag_shadows_a_config_field():
    fields = {f.name for cls in (scenario.ScenarioConfig, scenario.CellConfig)
              for f in dataclasses.fields(cls)}
    flag_fields = {"--year": "year", "--rate": "rate_bps", "--scenario": "adoption_factor",
                   "--guard": "guard_mhz", "--trials": "trials", "--seed": "seed",
                   "--g-tx": "g_tx_db", "--ripple": "ripple_db", "--sensors": "sensor_ids",
                   "--ptx": "p_bs_dbw", "--order": "filter_order"}
    checked = set()
    for prog, action in _parser_actions():
        names = set(action.option_strings) & set(flag_fields)
        if names or action.dest in fields:
            assert action.default is None, (prog, action.option_strings)
            checked |= names
    assert checked == set(flag_fields)


def test_every_flag_value_is_parsed_where_the_flag_is_declared():
    # A bare float type would let nan and inf through, and a string default
    # would leave its parsing to the command.
    for prog, action in _parser_actions():
        assert action.type is not float, (prog, action.option_strings)
        assert not isinstance(action.default, str) or action.default == argparse.SUPPRESS, (
            prog, action.option_strings)


@pytest.mark.parametrize("argv", [
    ["simulate", "--trials", "abc"],
    ["compliance", "--eval-freq", "-inf"],
    ["bogus"],
    ["link-budget"],
    ["deploy", "--year", "2040", "--out-dir", "out/"],
    ["leakage", "--orders", "3,x"],
    ["leakage", "--guards", "25,,30"],
    ["sweep-guard", "--years", "2030,x"],
    ["sweep-guard", "--years", ","],
    ["sweep-guard", "--guards", "0:60:5"],
    ["sweep-guard", "--guards", "0:50:inf"],
    ["simulate", "--jobs", "0"],
    ["sweep-guard", "--jobs", "2"],
    ["leakage", "--sensors", "B5,B5"],
    ["leakage", "--orders", "7,7"],
    ["leakage", "--guards", "25,25.0"],
    ["sweep-guard", "--years", "2030,2030"],
])
def test_argparse_errors_print_one_line(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if len(argv) == 3:  # a command, one flag and its value: the error names the flag
        assert err.startswith(f"error: argument {argv[1]}: ")


@pytest.mark.parametrize("argv", [
    ["link-budget", "--sensor", "B5"],
    ["adoption", "--year", "2030"],
    ["compliance"],
])
def test_out_dir_on_print_only_command_exits_2(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, ["--out-dir", str(out_dir)] + argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --out-dir: {argv[0]} writes no files"]
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["leakage"],
    ["sweep-guard", "--years", "2040", "--guards", "0:50:25", "--trials", "2"],
])
def test_stdout_rows_are_the_csv_body_rows(tmp_path, capsys, argv):
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert main(["--out-dir", str(tmp_path)] + argv) == 0
    with open(json.loads(capsys.readouterr().out)["csv"], newline="") as fh:
        body = [line.rstrip("\r\n") for line in fh if not line.startswith("#")][1:]
    assert printed == body and len(body) > 1


def test_every_cell_field_is_in_the_header():
    base = scenario.ScenarioConfig(trials=2)
    cell = scenario.CellConfig()
    header = base.header(cell)
    changed = {"n_antennas": 64, "n_users": 4, "r_min_m": 20.0, "r_cell_m": 300.0,
               "carrier_ghz": 7.3, "bs_height_m": 25.0, "ut_height_m": 2.0,
               "tx_gain_users_db": 10.0, "noise_temp_k": 300.0,
               "distance_mode": "uniform-area", "shadowing": False, "los_mode": "los"}
    assert set(changed) == {f.name for f in dataclasses.fields(cell)}
    for key, value in changed.items():
        other = base.header(dataclasses.replace(cell, **{key: value}))
        assert other[key] == value and other != header, key


@pytest.mark.parametrize("command", ["link-budget --sensor B5", "leakage --sensors B5",
                                     "adoption --year 2030", "deploy --year 2030",
                                     "simulate --trials 2", "sweep-guard --trials 2",
                                     "compliance"])
# grid_step_mhz is no longer a setting: every command rejects the key itself.
@pytest.mark.parametrize("key, value", [("filter_order", 0), ("ripple_db", 1e6),
                                        ("grid_step_mhz", 1e-7)])
def test_bad_filter_config_exits_2_on_every_command(tmp_path, capsys, command, key, value):
    path = _write_config(tmp_path, {"scenario": {key: value}})
    code, out, err = _run(capsys, ["--config", path] + command.split())
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# Flag text and config values a user might give: out-of-range, non-finite, huge
# and tiny numbers, and the wrong type.
FLOAT_TEXT = st.one_of(st.floats().map(repr), st.sampled_from(
    ["nan", "inf", "-inf", "1e308", "-1e308", "1e-300", "5e-324", "0", "-1", "abc", ""]))
INT_TEXT = st.one_of(st.integers(-10**20, 10**20).map(str), st.sampled_from(
    ["2030", "2035", "2040", "0", "-1", "1.5", "x"]))
SMALL_INT_TEXT = st.sampled_from(["-1", "0", "1", "3", "2.5", "x"])
ID_TEXT = st.sampled_from(["B1", "B5", "B7", "B9", "", "B1,B5", "B5,B5", "B5,", ","])
FLAGS = {
    "link-budget": {"--sensor": ID_TEXT, "--freq": FLOAT_TEXT, "--g-tx": FLOAT_TEXT},
    "leakage": {"--orders": st.sampled_from(["7", "3,9", "0", "-2", "1000000", "x", "3,x",
                                             "", ","]),
                "--guards": st.sampled_from(["25", "0,50", "-5", "60", "nan", "x", "25,,30",
                                             "25,inf", ","]),
                "--sensors": ID_TEXT, "--ripple": FLOAT_TEXT},
    "adoption": {"--scenario": FLOAT_TEXT, "--year": INT_TEXT},
    "deploy": {"--year": INT_TEXT, "--rate": FLOAT_TEXT, "--scenario": FLOAT_TEXT,
               "--guard": FLOAT_TEXT},
    "simulate": {"--year": INT_TEXT, "--rate": FLOAT_TEXT, "--scenario": FLOAT_TEXT,
                 "--guard": FLOAT_TEXT, "--trials": SMALL_INT_TEXT,
                 "--jobs": st.sampled_from(["1", "0", "-1", "99999", "x"])},
    "sweep-guard": {"--years": st.one_of(INT_TEXT, st.sampled_from(
                        ["2030,2040", "2030,x", "2030,", ",", "2030;2040"])),
                    "--trials": SMALL_INT_TEXT,
                    "--guards": st.sampled_from(["20:30:10", "0:50:25", "30:20:5", "0:50:0",
                                                 "0:60:30", "nan:5:5", "1:2", "0:50:inf"]),
                    "--jobs": st.sampled_from(["1", "2", "x"])},
    "compliance": {"--ptx": FLOAT_TEXT, "--guard": FLOAT_TEXT, "--order": INT_TEXT,
                   "--eval-freq": FLOAT_TEXT, "--limit": FLOAT_TEXT},
}
# What each drawn command line starts with: its required flags, few trials and
# a short table.  Drawn flags come after and win.
REQUIRED = {"link-budget": ["--sensor", "B5"], "adoption": ["--year", "2030"],
            "deploy": ["--year", "2030"], "simulate": ["--trials", "2"],
            "leakage": ["--orders", "7", "--guards", "25", "--sensors", "B5"],
            "sweep-guard": ["--years", "2040", "--guards", "25:25:1", "--trials", "2"]}
JSON_VALUE = st.one_of(
    st.floats(), st.integers(-10**20, 10**20), st.booleans(), st.none(), st.text(max_size=3),
    st.sampled_from([1e308, -1e308, 1e-300, 5e-324, 1e6, 1e-7, 0, -1, 2030, "los",
                     "uniform-area", ["B5"], ["B9"], [], [1], {}]))
SMALL_JSON_INT = st.sampled_from([-1, 0, 1, 2, 4, 8, 16, 2.0, "2", None])
CONFIG_VALUES = {
    "scenario": {f.name: SMALL_JSON_INT if f.name == "trials" else JSON_VALUE
                 for f in dataclasses.fields(scenario.ScenarioConfig)},
    "cell": {f.name: SMALL_JSON_INT if f.name in ("n_users", "n_antennas") else JSON_VALUE
             for f in dataclasses.fields(scenario.CellConfig)},
}


# County, gazetteer and sensor-catalog files: non-finite, negative, huge and
# non-numeric fields, missing columns and keys, duplicate FIPS or sensor ids, and
# the wrong JSON structure.
# Good values are listed twice so that a fair share of files is usable.
FIPS_TEXT = st.sampled_from(["06037", "53033"] * 2 + ["6037", "123", "abcde", ""])
COUNTY_HEADER = "fips,name,state,rucc_code,population"
COUNTY_CSV = st.builds(
    lambda header, rows: "\n".join([header] + [",".join(row) for row in rows]) + "\n",
    st.sampled_from([COUNTY_HEADER] * 2 + ["fips,name,state,rucc_code",
                                           "fips,name,state,population,rucc_code", "a,b"]),
    st.lists(st.tuples(FIPS_TEXT, st.sampled_from(["LA", ""]), st.just("CA"),
                       st.sampled_from(["1", "2"] * 2 + ["7", "0", "10", "x", ""]),
                       st.sampled_from(["100", "10000000"] * 2 + ["0", "-5", "1e3", "x", "",
                                                                  "99999999999999999999"])),
             max_size=3))
GAZETTEER_CSV = st.builds(
    lambda header, rows: "\n".join([header] + [",".join(row) for row in rows]) + "\n",
    st.sampled_from(["fips,land_area_km2"] * 2 + ["fips,area", "land_area_km2"]),
    st.lists(st.tuples(FIPS_TEXT, st.sampled_from(
        ["10510.0", "5478.6"] * 2 + ["inf", "nan", "-inf", "-1", "0", "1e308", "5e-324", "abc",
                                     ""])), max_size=3))
BUNDLED_SENSORS = json.loads(
    resources.files("eesscoex.data").joinpath("sensors.json").read_text())["sensors"]


@st.composite
def catalogs(draw):
    """Catalog JSON text: the bundled rows with up to two keys deleted or set to
    a drawn value, perhaps a duplicate row, or a payload of the wrong shape."""
    rows = [dict(row) for row in BUNDLED_SENSORS]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        key = draw(st.sampled_from(sorted(row)))
        if draw(st.booleans()):
            del row[key]
        else:
            row[key] = draw(JSON_VALUE)
    if draw(st.booleans()):
        rows.append(rows[0])
    return json.dumps(draw(st.one_of(st.just({"sensors": rows}), st.sampled_from(
        [[], {}, {"sensors": 5}, {"sensors": [5]}, {"sensors": [[]]}]))))


@st.composite
def cli_cases(draw):
    """A command line, the --config payload it reads (None for no file), and the
    input files it names, as {file name: text}."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command] + REQUIRED.get(command, [])
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS[command])), max_size=3,
                              unique=True)):
        argv.append(f"{flag}={draw(FLAGS[command][flag])}")
    files = {}
    if command in ("deploy", "simulate", "sweep-guard") and draw(st.booleans()):
        files = {"counties.csv": draw(COUNTY_CSV), "gazetteer.csv": draw(GAZETTEER_CSV)}
        argv += ["--counties", "counties.csv", "--gazetteer", "gazetteer.csv"]
    if command == "link-budget" and draw(st.booleans()):
        files = {"catalog.json": draw(catalogs())}
        argv += ["--catalog", "catalog.json"]
    if draw(st.booleans()):
        argv = ["--seed", draw(INT_TEXT)] + argv
    if not draw(st.booleans()):
        return argv, None, files
    config = {}
    for section, values in CONFIG_VALUES.items():
        keys = draw(st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True))
        config[section] = {key: draw(values[key]) for key in keys}
    return argv, draw(st.one_of(st.just(config), st.sampled_from(
        [[], {"scenario": []}, {"other": {}}, {"cell": {"shadow": True}}]))), files


@settings(derandomize=True, deadline=None, max_examples=120)
@given(case=cli_cases(), out_dir=st.booleans())
@example(case=(REQUIRED["leakage"], {"scenario": {"ripple_db": 1e6}}, {}), out_dir=False)
@example(case=(["simulate", "--trials", "2"], {"scenario": {"ripple_db": 1e6}}, {}),
         out_dir=False)
def test_any_command_line_exits_0_2_or_3_without_a_traceback(tmp_path_factory, case, out_dir):
    argv, config, files = case
    tmp = tmp_path_factory.mktemp("cli")
    for name, text in files.items():
        (tmp / name).write_text(text)
    argv = [str(tmp / arg) if arg in files else arg for arg in argv]
    if config is not None:
        (tmp / "config.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp / "config.json")] + argv
    if out_dir:
        argv = ["--out-dir", str(tmp / "out")] + argv
    out, err = io.StringIO(), io.StringIO()

    def no_pool(*args, **kwargs):
        raise AssertionError("worker pool started")

    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", no_pool), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), argv
    if code == 2:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


# A few fields of each --config section, each value paired with whether the
# field's own check accepts it (a JSON integer is a valid float).  The cell's
# cross-field rules are restated in the test; sizes stay small.
CONFIG_FIELD_VALUES = {
    "scenario": {
        "year": [(2030, True), (2100, True), (2024, False), (2030.0, False), ("2030", False),
                 (True, False)],
        "guard_mhz": [(0, True), (12.5, True), (50, True), (-0.5, False), (51, False),
                      (None, False)],
        "adoption_factor": [(1, True), (2.5, True), (0, False), ("x", False)],
        "p_bs_dbw": [(-5, True), (10.5, True), (101, False), (math.nan, False),
                     (math.inf, False)],
        "calibration_db": [(0.9, True), (-2, True), (math.nan, False), ([], False)],
        "use_published_gain": [(False, True), (True, True), (0, False), ("true", False)],
        "sensor_ids": [(["B5"], True), (["B1", "B7"], True), ([], False), (["B5", "B5"], False),
                       ("B5", False), ([5], False)],
    },
    "cell": {
        "n_users": [(1, True), (4, True), (0, False), (2.0, False)],
        "n_antennas": [(4, True), (16, True), (2.5, False)],
        "r_min_m": [(5, True), (20.5, True), (0, False)],
        "r_cell_m": [(100, True), (5000, True), (5, True), (5001, False)],
        "distance_mode": [("uniform-area", True), ("disc", False)],
        "los_mode": [("nlos", True), ("x", False)],
        "noise_temp_k": [(300.5, True), (0, False), (1e6, False)],
    },
}
PRINTED_TYPES = {float: float, int: int, bool: bool, str: str, tuple[str, ...]: list}


@st.composite
def config_sections(draw):
    """A --config payload of up to three fields per section, and the first
    section a check must reject (None if both are valid)."""
    payload, bad = {}, None
    for section, fields in CONFIG_FIELD_VALUES.items():
        keys = draw(st.lists(st.sampled_from(sorted(fields)), max_size=3, unique=True))
        picks = {key: draw(st.sampled_from(fields[key])) for key in keys}
        payload[section] = {key: value for key, (value, _) in picks.items()}
        valid = all(ok for _, ok in picks.values())
        if section == "cell" and valid:
            cell = {**dataclasses.asdict(scenario.CellConfig()), **payload[section]}
            valid = cell["r_min_m"] < cell["r_cell_m"] and cell["n_antennas"] >= cell["n_users"]
        if not valid and bad is None:
            bad = section
    return payload, bad


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=config_sections())
def test_config_file_value_is_printed_as_written_or_exits_2_naming_its_section(
        tmp_path_factory, case):
    payload, bad = case
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "simulate", "--trials", "1"])
    if bad is not None:
        assert code == 2 and out.getvalue() == "", payload
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: config section '{bad}': "), (
            payload, lines)
        return
    assert code == 0, (payload, err.getvalue())
    printed = json.loads(out.getvalue())["config"]
    for section, values in payload.items():
        types = {f.name: f.type for f in dataclasses.fields(
            scenario.ScenarioConfig if section == "scenario" else scenario.CellConfig)}
        for key, value in values.items():
            assert printed[key] == value, (section, key)
            assert type(printed[key]) is PRINTED_TYPES[types[key]], (section, key)


def test_a_command_runs_without_importing_scipy(tmp_path):
    # scipy is imported only by adoption.fit_gompertz, which no command calls,
    # and the process pool only by a batch split over several workers; a fresh
    # interpreter shows what importing the CLI and running it pulls in.
    script = (
        "import sys\n"
        "from eesscoex.cli import main\n"
        f"code = main(['--seed', '0', '--out-dir', {str(tmp_path)!r}, 'simulate',\n"
        "             '--trials', '2', '--year', '2040', '--rate', '500e6', '--jobs', '1'])\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if m.split('.')[0] in ('scipy', 'multiprocessing')))\n"
    )
    src = os.path.dirname(os.path.dirname(eesscoex.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
