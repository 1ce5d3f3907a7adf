"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy Monte Carlo products (channel draws, power batches, the
year x rate x guard RFI grid) are shared across criteria through
module-scope fixtures, all at the full 1000-trial budget.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from eesscoex.adoption import (
    BASELINE_MODEL,
    SENSITIVITY_TABLE,
    AdoptionModel,
    PenetrationSeries,
    fit_gompertz,
    gompertz,
    scale_scenario,
)
from eesscoex.airlink import CellConfig
from eesscoex.filterbank import FilterSpec, edge_psd_margin, leaked_psd_dbm_per_mhz
from eesscoex.linkbudget import build_link_budget, load_sensor_catalog, slant_range
from eesscoex.precoder import SinrTargets, solve_power_min
from eesscoex.reports import emit_report
from eesscoex.scenario import (
    RATE_GRID_MBPS,
    CANONICAL_YEARS,
    ScenarioConfig,
    _compliant,
    draw_channels,
    max_feasible_rate,
    rfi_grid,
    simulate,
)
from oracles import min_power_bisection

TRIALS = 1000
SEED = 0
GUARD_GRID = tuple(float(g) for g in range(0, 55, 5))

# Published aggregate-RFI reference for the worst-case sensor (dBW/200 MHz).
PUBLISHED_B5 = {
    (2030, 100): -185.6, (2030, 200): -181.8, (2030, 300): -179.5,
    (2030, 400): -177.6, (2030, 500): -176.0,
    (2035, 100): -175.6, (2035, 200): -171.8, (2035, 300): -169.5,
    (2035, 400): -167.6, (2035, 500): -166.0,
    (2040, 100): -172.1, (2040, 200): -168.3, (2040, 300): -166.0,
    (2040, 400): -164.1, (2040, 500): -162.5,
}


@pytest.fixture
def announce(capsys):
    """Print a criterion verdict line past pytest's capture."""
    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)
    return _announce


@pytest.fixture(scope="module")
def base_cfg():
    return ScenarioConfig(trials=TRIALS, seed=SEED)


@pytest.fixture(scope="module")
def cell(base_cfg):
    return CellConfig()


@pytest.fixture(scope="module")
def channels(cell):
    return draw_channels(cell, SEED, TRIALS)


@pytest.fixture(scope="module")
def grid_reports(sweep_grid):
    """The year x rate reports at the 25 MHz guard."""
    table, _, _ = sweep_grid
    return [table[(year, 25.0, rate)] for year in CANONICAL_YEARS for rate in RATE_GRID_MBPS]


@pytest.fixture(scope="module")
def calibration_db(grid_reports):
    residuals = []
    for report in grid_reports:
        row = report.row("B5")
        residuals.append(PUBLISHED_B5[(row.year, int(row.rate_mbps))] - row.rfi_dbw)
    return float(np.mean(residuals))


@pytest.fixture(scope="module")
def sweep_grid(base_cfg, cell, channels, counties):
    """Worst-sensor and per-sensor RFI over the year x guard x rate grid,
    sharing one power batch per (guard, rate); returns (table, power_cache,
    elapsed_s)."""
    t0 = time.perf_counter()
    power_cache = {}
    table = rfi_grid(base_cfg, CANONICAL_YEARS, GUARD_GRID, RATE_GRID_MBPS, cell=cell,
                     counties=counties, channels=channels, power_cache=power_cache)
    return table, power_cache, time.perf_counter() - t0


def test_criterion_1_geometry(catalog, announce):
    t0 = time.perf_counter()
    for sensor in catalog.values():
        computed = slant_range(sensor.altitude_km, sensor.incidence_deg)
        rel = abs(computed - sensor.published_slant_km) / sensor.published_slant_km
        assert rel < 0.002, (sensor.sensor_id, computed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(f"[criterion 1] geometry: all 5 slant ranges within 0.2% "
            f"({elapsed * 1e3:.1f} ms): PASS")


def test_criterion_2_losses(catalog, announce):
    losses = {}
    for sid, sensor in catalog.items():
        budget = build_link_budget(sensor, f_ghz=6.925)
        # independent recomputation straight from the defining formulas
        d = slant_range(sensor.altitude_km, sensor.incidence_deg)
        ref = 92.45 + 20 * math.log10(6.925) + 20 * math.log10(d) + 3.0 + 0.3 + 5.5
        assert abs(budget.l_tot_db - ref) <= 0.05, sid
        losses[sid] = budget.l_tot_db
    assert round(min(losses.values()), 1) == 178.6
    assert round(max(losses.values()), 1) == 182.2
    announce(f"[criterion 2] losses: span [{min(losses.values()):.2f}, "
            f"{max(losses.values()):.2f}] dB == [178.6, 182.2]: PASS")


def test_criterion_3_emission_mask(announce):
    t0 = time.perf_counter()
    spec = FilterSpec(order=7, ripple_db=0.2, passband_low_ghz=7.15,
                      passband_high_ghz=7.40)
    psd = leaked_psd_dbm_per_mhz(spec, -5.0, 7.1245)
    margin = edge_psd_margin(spec, -5.0, 7.1245, limit_dbm_mhz=-13.0)
    assert abs(psd - (-18.3)) <= 0.5
    assert abs(margin - 5.3) <= 0.5
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(f"[criterion 3] emission mask: edge PSD {psd:.2f} dBm/MHz, "
            f"margin {margin:.2f} dB: PASS")


def test_criterion_4_adoption(announce):
    worst = 0.0
    for factor, by_year in SENSITIVITY_TABLE.items():
        model = scale_scenario(BASELINE_MODEL, factor)
        for year, published in by_year.items():
            # compared at the table's 0.1 per-100 printing precision
            err = abs(round(float(gompertz(model, year)), 1) - published)
            worst = max(worst, err)
            assert err <= 1.5, (factor, year)
    years = np.arange(1998, 2024)
    truth = 38.100 * np.exp(-3.272 * np.exp(-0.186 * (years - years[0])))
    series = PenetrationSeries(years=tuple(years), values=tuple(truth))
    fit = fit_gompertz(series, AdoptionModel(b1=30.0, b2=2.0, b3=0.1))
    assert fit.success
    for got, want in ((fit.model.b1, 38.100), (fit.model.b2, 3.272),
                      (fit.model.b3, 0.186)):
        assert abs(got - want) / want < 1e-4
    announce(f"[criterion 4] adoption: 9/9 sensitivity entries within +/-1.5 "
            f"(worst {worst:.2f}); noiseless fit recovered to 1e-4: PASS")


def test_criterion_5_precoder_oracle(announce):
    t0 = time.perf_counter()
    worst_power = 0.0
    worst_tight = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(n, 3) + 1))
        h = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
        g = 10.0 ** rng.uniform(-10, -8, k)
        gammas = tuple(10.0 ** rng.uniform(-0.5, 0.7, k))
        sol = solve_power_min(h, g, SinrTargets(gammas=gammas), 1e-11)
        assert sol.converged and sol.feasible
        worst_tight = max(worst_tight, float(np.max(np.abs(
            sol.sinr / np.asarray(gammas) - 1.0))))
        ref = min_power_bisection(h, g, gammas, 1e-11)
        worst_power = max(worst_power, abs(sol.p_tx_w - ref) / ref)
    assert worst_power < 1e-4
    assert worst_tight < 1e-6

    rng = np.random.default_rng(1234)
    h = (rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))) / np.sqrt(2)
    g = np.array([2.5e-10])
    sol = solve_power_min(h, g, SinrTargets.uniform(3.0, 1), 1e-12)
    closed = 3.0 * 1e-12 / (g[0] * np.linalg.norm(h[0]) ** 2)
    assert abs(sol.p_tx_w - closed) / closed < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(f"[criterion 5] precoder: 100-seed oracle max err {worst_power:.2e}, "
            f"tightness {worst_tight:.2e}, closed form exact ({elapsed:.1f} s): PASS")


def test_criterion_6_relative_structure(grid_reports, sweep_grid, base_cfg, cell,
                                        channels, counties, announce):
    table, power_cache, sweep_elapsed = sweep_grid
    assert sweep_elapsed < 600.0, f"sweep took {sweep_elapsed:.0f} s"

    # B5 column slope, 2.45 +/- 0.5 dB per 100 Mbps at 25 MHz guard
    for year in CANONICAL_YEARS:
        rfi = [table[(year, 25.0, r)].row("B5").rfi_dbw for r in RATE_GRID_MBPS]
        slope = (rfi[-1] - rfi[0]) / 4.0
        assert abs(slope - 2.45) <= 0.5, (year, slope)

    # Year offsets +10.0 / +13.5 +/- 0.3 dB at every rate
    for rate in RATE_GRID_MBPS:
        base = table[(2030, 25.0, rate)].row("B5").rfi_dbw
        off35 = table[(2035, 25.0, rate)].row("B5").rfi_dbw - base
        off40 = table[(2040, 25.0, rate)].row("B5").rfi_dbw - base
        assert abs(off35 - 10.0) <= 0.3, (rate, off35)
        assert abs(off40 - 13.5) <= 0.3, (rate, off40)

    # B5 worst sensor and monotonicity over the full sweep grid
    for (year, guard, rate), report in table.items():
        assert report.worst_sensor_id == "B5", (year, guard, rate)
    for guard in GUARD_GRID:
        for rate in RATE_GRID_MBPS:
            seq = [table[(y, guard, rate)].row("B5").rfi_dbw for y in CANONICAL_YEARS]
            assert seq[0] < seq[1] < seq[2], ("year", guard, rate, seq)
    for year in CANONICAL_YEARS:
        for guard in GUARD_GRID:
            seq = [table[(year, guard, r)].row("B5").rfi_dbw for r in RATE_GRID_MBPS]
            assert all(a < b for a, b in zip(seq, seq[1:])), ("rate", year, guard)
        for rate in RATE_GRID_MBPS:
            seq = [table[(year, g, rate)].row("B5").rfi_dbw for g in GUARD_GRID]
            assert all(a > b for a, b in zip(seq, seq[1:])), ("guard", year, rate)

    # RFI non-decreasing in the adoption factor (equal at the 2030 anchor)
    for year in CANONICAL_YEARS:
        rfi_by_factor = []
        for factor in (0.5, 1.0, 1.5):
            cfg = replace(base_cfg, year=year, adoption_factor=factor,
                          rate_bps=500e6)
            rep = simulate(cfg, cell=cell, counties=counties,
                           power=power_cache[(25.0, 500)])
            rfi_by_factor.append(rep.row("B5").rfi_dbw)
        assert rfi_by_factor[0] <= rfi_by_factor[1] <= rfi_by_factor[2], year

    slope_all = np.mean([
        (table[(y, 25.0, 500)].row("B5").rfi_dbw
         - table[(y, 25.0, 100)].row("B5").rfi_dbw) / 4.0
        for y in CANONICAL_YEARS])
    announce(f"[criterion 6] relative structure: slope {slope_all:.2f} dB/100Mbps, "
            f"offsets +10.0/+13.5 held, B5 worst on all {len(table)} grid points, "
            f"monotone (sweep {sweep_elapsed:.0f} s @ {TRIALS} trials): PASS")


def test_criterion_7_absolute_calibration(grid_reports, calibration_db, announce):
    residuals = {}
    for report in grid_reports:
        row = report.row("B5")
        residuals[(row.year, int(row.rate_mbps))] = (
            PUBLISHED_B5[(row.year, int(row.rate_mbps))] - row.rfi_dbw)
    values = np.array(list(residuals.values()))
    assert np.max(np.abs(values)) <= 3.0, residuals
    spread = np.max(np.abs(values - calibration_db))
    assert spread <= 1.0, residuals
    announce(f"[criterion 7] absolute calibration: all 15 B5 entries within "
            f"{np.max(np.abs(values)):.2f} dB of the published values; offset "
            f"{calibration_db:+.2f} dB uniform to +/-{spread:.2f} dB: PASS")


def test_criterion_8_headline_decisions(base_cfg, cell, channels, counties,
                                        calibration_db, sweep_grid, announce):
    _, power_cache, _ = sweep_grid
    calibrated = replace(base_cfg, calibration_db=calibration_db)
    catalog = load_sensor_catalog()

    rate_2030 = max_feasible_rate(replace(calibrated, year=2030), cell=cell,
                                  counties=counties, channels=channels,
                                  catalog=catalog, power_cache=power_cache)
    rate_2040 = max_feasible_rate(replace(calibrated, year=2040), cell=cell,
                                  counties=counties, channels=channels,
                                  catalog=catalog, power_cache=power_cache)
    assert rate_2030 == 500, rate_2030
    assert rate_2040 == 300, rate_2040

    for guard in (35.0, 40.0, 45.0, 50.0):
        cfg = replace(calibrated, year=2040, guard_mhz=guard, rate_bps=500e6)
        rep = simulate(cfg, cell=cell, counties=counties,
                       power=power_cache[(guard, 500)])
        assert _compliant(rep.row(rep.worst_sensor_id).rfi_dbw,
                          cfg.threshold_dbw), guard
    announce(f"[criterion 8] headline decisions: 2030@25MHz -> {rate_2030} Mbps, "
            f"2040@25MHz -> {rate_2040} Mbps, 2040/500Mbps compliant for "
            f"guard >= 35 MHz (calibration {calibration_db:+.2f} dB): PASS")


def test_criterion_9_determinism(tmp_path, counties, announce):
    cfg = ScenarioConfig(trials=50, seed=31, rate_bps=500e6)
    cell = CellConfig()
    serial = simulate(cfg, cell=cell, counties=counties, n_jobs=1)
    parallel = simulate(cfg, cell=cell, counties=counties, n_jobs=3)
    rerun = simulate(cfg, cell=cell, counties=counties, n_jobs=1)
    paths = [emit_report(rep, tmp_path / sub)
             for rep, sub in ((serial, "a"), (parallel, "b"), (rerun, "c"))]
    for fmt in ("csv", "json"):
        bodies = [open(p[fmt], "rb").read() for p in paths]
        assert bodies[0] == bodies[1] == bodies[2]
    announce("[criterion 9] determinism: byte-identical reports across "
            "parallelism levels and reruns: PASS")
