import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from eesscoex.linkbudget import (
    L_ATM_DB,
    L_CLUT_DB,
    L_POL_DB,
    build_link_budget,
    free_space_path_loss,
    load_sensor_catalog,
    net_gain_db,
    slant_range,
)

PUBLISHED_SLANT = {"B1": 1124.2, "B3": 1610.3, "B4": 1116.2, "B5": 1292.9, "B7": 1066.2}


@pytest.mark.parametrize("sid", sorted(PUBLISHED_SLANT))
def test_slant_ranges_match_published(catalog, sid):
    sensor = catalog[sid]
    d = slant_range(sensor.altitude_km, sensor.incidence_deg)
    assert abs(d - PUBLISHED_SLANT[sid]) / PUBLISHED_SLANT[sid] < 0.002


def test_slant_range_examples():
    assert slant_range(705.0, 55.0) == pytest.approx(1124.2, rel=0.002)
    assert slant_range(820.0, 55.0) == pytest.approx(1292.9, rel=0.002)


def test_slant_range_nadir_limit():
    # i -> 0+ collapses the geometry to the straight-down range H.
    assert slant_range(705.0, 1e-4) == pytest.approx(705.0, rel=1e-6)


def test_slant_range_invalid():
    for bad_i in (0.0, 90.0, 120.0, -5.0):
        with pytest.raises(ValueError):
            slant_range(705.0, bad_i)
    with pytest.raises(ValueError):
        slant_range(0.0, 55.0)


@settings(max_examples=50, deadline=None)
@given(h=st.floats(min_value=300, max_value=1500),
       i=st.floats(min_value=5, max_value=85))
def test_slant_monotone_property(h, i):
    d = slant_range(h, i)
    assert slant_range(h + 10.0, i) > d
    assert slant_range(h, i + 1.0) > d


def test_fspl_values():
    assert free_space_path_loss(6.925, 1292.9) == pytest.approx(171.49, abs=0.01)
    assert free_space_path_loss(1.0, 1.0) == pytest.approx(92.45)
    base = free_space_path_loss(6.925, 700.0)
    assert free_space_path_loss(6.925, 1400.0) - base == pytest.approx(6.0206, abs=1e-4)


def test_total_loss_span(catalog):
    losses = {sid: build_link_budget(catalog[sid]).l_tot_db for sid in catalog}
    assert min(losses.values()) == pytest.approx(178.6, abs=0.05)
    assert max(losses.values()) == pytest.approx(182.2, abs=0.05)
    assert losses["B7"] == min(losses.values())
    assert losses["B3"] == max(losses.values())


def test_budget_component_identity(catalog):
    budget = build_link_budget(catalog["B5"])
    assert budget.l_tot_db == pytest.approx(
        budget.fspl_db + budget.l_pol_db + budget.l_atm_db + budget.l_clut_db)
    assert budget.net_gain_db == pytest.approx(
        budget.g_tx_db + budget.g_rx_db - budget.l_tot_db)


def test_recomputed_net_gain_discrepancy(catalog):
    # Component-wise recomputation with the sidelobe gain of -10 dB sits
    # exactly 5 dB below every published entry (the catalog values are
    # consistent with -5 dB); the discrepancy is surfaced, not hidden.
    budget = build_link_budget(catalog["B5"], g_tx_db=-10.0)
    assert budget.net_gain_db == pytest.approx(-138.79, abs=0.02)
    assert budget.discrepancy_db == pytest.approx(-5.0, abs=0.02)
    for sid in catalog:
        assert build_link_budget(catalog[sid], g_tx_db=-10.0).discrepancy_db == \
            pytest.approx(-5.0, abs=0.03)
        assert build_link_budget(catalog[sid], g_tx_db=-5.0).discrepancy_db == \
            pytest.approx(0.0, abs=0.03)


def test_published_passthrough(catalog):
    for sid, sensor in catalog.items():
        assert net_gain_db(sensor) == sensor.published_net_gain_db
        recomputed = net_gain_db(sensor, use_published=False, g_tx_db=-10.0)
        assert recomputed != sensor.published_net_gain_db


def test_catalog_contents(catalog):
    assert sorted(catalog) == ["B1", "B3", "B4", "B5", "B7"]
    b5 = catalog["B5"]
    assert b5.channel_span_ghz == (6.725, 7.125)
    assert b5.footprint_area_km2 == 209.0
    assert b5.rx_gain_dbi == 51.5
    assert b5.published_net_gain_db == -133.79


def test_catalog_roundtrip(tmp_path):
    import json
    from importlib import resources

    text = resources.files("eesscoex.data").joinpath("sensors.json").read_text()
    path = tmp_path / "sensors.json"
    path.write_text(text)
    assert load_sensor_catalog(path).keys() == load_sensor_catalog().keys()
    payload = json.loads(text)
    payload["sensors"].append(dict(payload["sensors"][0]))
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_sensor_catalog(path)


def _bundled_rows():
    from importlib import resources

    return json.loads(resources.files("eesscoex.data").joinpath("sensors.json").read_text())[
        "sensors"]


def _without(row, key):
    return {k: v for k, v in row.items() if k != key}


@pytest.mark.parametrize("payload, reason", [
    ({"sensors": 5}, "catalog must be a JSON object with a 'sensors' list"),
    ([], "catalog must be a JSON object with a 'sensors' list"),
    ({}, "catalog must be a JSON object with a 'sensors' list"),
    ({"sensors": [5]}, "sensors[0] must be a JSON object, got 5"),
    ({"sensors": [_without(_bundled_rows()[0], "altitude_km")]},
     "sensors[0] lacks key 'altitude_km'"),
    ({"sensors": _bundled_rows()[:1] + [{**_bundled_rows()[1], "rx_gain_dbi": "38.8"}]},
     "sensors[1]: 'rx_gain_dbi' must be a finite number, got '38.8'"),
    ({"sensors": [{**_bundled_rows()[0], "footprint_area_km2": -1}]},
     "sensors[0]: 'footprint_area_km2' must be > 0, got -1.0"),
    ({"sensors": [{**_bundled_rows()[0], "channel_high_ghz": None}]},
     "sensors[0]: 'channel_span_ghz' must be a list of two finite numbers, got (6.75, None)"),
    ({"sensors": [{**_bundled_rows()[0], "sensor_id": 1}]},
     "sensors[0]: 'sensor_id' must be a string, got 1"),
])
def test_malformed_catalog_names_the_file_and_entry(tmp_path, payload, reason):
    path = tmp_path / "sensors.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as info:
        load_sensor_catalog(path)
    assert str(info.value) == f"{path}: {reason}"


def test_catalog_integers_read_as_floats(tmp_path):
    rows = _bundled_rows()
    rows[0]["altitude_km"] = 705
    path = tmp_path / "sensors.json"
    path.write_text(json.dumps({"sensors": rows}))
    assert load_sensor_catalog(path) == load_sensor_catalog()
    assert isinstance(load_sensor_catalog(path)["B1"].altitude_km, float)


def test_extras_default_total():
    assert L_POL_DB + L_ATM_DB + L_CLUT_DB == pytest.approx(8.8)


def test_b5_has_largest_net_gain(catalog):
    gains = {sid: catalog[sid].published_net_gain_db for sid in catalog}
    assert max(gains, key=gains.get) == "B5"
    assert math.isfinite(gains["B5"])
