import json
import os

import pytest

from eesscoex import scenario
from eesscoex.cli import main

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
    assert deployed == simulated == pytest.approx(9.0608, abs=1e-4)


@pytest.mark.parametrize("argv", [
    ["sweep-guard", "--guards", "0:50:0", "--trials", "2"],
    ["sweep-guard", "--guards", "0:50:-5", "--trials", "2"],
    ["simulate", "--rate", "nan", "--trials", "2"],
    ["simulate", "--rate", "inf", "--trials", "2"],
    ["leakage", "--guards", "60"],
    ["simulate", "--jobs", str((os.cpu_count() or 1) + 1), "--trials", "2"],
    ["simulate", "--jobs", "0", "--trials", "2"],
    ["sweep-guard", "--jobs", "2", "--trials", "2"],
])
def test_out_of_range_numbers_exit_2(capsys, monkeypatch, argv):
    def no_pool(*args, **kwargs):
        raise AssertionError("worker pool started for rejected input")

    monkeypatch.setattr(scenario, "ProcessPoolExecutor", no_pool)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


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
    assert err == [f"error: {flag} must be finite, got {float(value)}"]


def test_unknown_sensor_exits_2(tmp_path, capsys):
    assert main(["leakage", "--sensors", "B9"]) == 2
    path = _write_config(tmp_path, {"scenario": {"sensor_ids": ["B9"]}})
    assert main(["--config", path, "simulate", "--year", "2030", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [UNKNOWN_SENSOR] * 2
