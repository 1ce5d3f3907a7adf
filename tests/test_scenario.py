import json
import math
from dataclasses import replace

import numpy as np
import pytest

from eesscoex import scenario
from eesscoex.airlink import CellConfig, generate_channel, noise_power_w, trial_rng
from eesscoex.precoder import RfiBudget, SinrTargets, solve_power_min
from eesscoex.reports import emit_guard_sweep, emit_leakage_table, emit_report
from eesscoex.scenario import (
    GuardSweepRow,
    ScenarioConfig,
    _compliant,
    aggregate_rfi_dbw,
    draw_channels,
    leakage_table,
    max_feasible_rate,
    mean_bs_power,
    rfi_grid,
    simulate,
    sweep_guard_bands,
)


def test_config_band_invariants():
    cfg = ScenarioConfig(guard_mhz=25.0)
    assert cfg.tn_band_ghz == (7.15, 7.40)
    assert cfg.bandwidth_hz == pytest.approx(250e6)
    cfg0 = ScenarioConfig(guard_mhz=0.0)
    assert cfg0.tn_band_ghz == (7.125, 7.40)
    assert cfg0.bandwidth_hz == pytest.approx(275e6)
    assert ScenarioConfig(guard_mhz=35.0).bandwidth_hz == pytest.approx(240e6)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(guard_mhz=60.0)
    with pytest.raises(ValueError):
        ScenarioConfig(trials=0)
    with pytest.raises(ValueError):
        ScenarioConfig(sensor_ids=())
    with pytest.raises(ValueError):
        ScenarioConfig(rate_bps=float("inf"))
    with pytest.raises(ValueError):
        ScenarioConfig(threshold_dbw=float("nan"))


def test_mean_power_single_user_closed_form():
    cfg = ScenarioConfig(trials=10, seed=7, rate_bps=100e6)
    cell = CellConfig(n_users=1, n_antennas=16, shadowing=False, los_mode="los")
    channels = [generate_channel(cell, trial_rng(cfg.seed, t)) for t in range(cfg.trials)]
    gamma = 2 ** (cfg.rate_bps / cfg.bandwidth_hz) - 1
    noise = noise_power_w(cell.noise_temp_k, cfg.bandwidth_hz)
    expected = np.mean([
        gamma * noise / (c.g[0] * np.linalg.norm(c.h[0]) ** 2) for c in channels
    ])
    result = mean_bs_power(cfg, cell)
    assert result.mean_p_w == pytest.approx(expected, rel=1e-9)
    assert result.infeasibility_rate == 0.0
    assert result.n_feasible == 10


def test_draw_channels_is_gram_stack():
    cell = CellConfig(n_users=4, n_antennas=32)
    grams = draw_channels(cell, 3, 6)
    assert grams.shape == (6, 4, 4)
    assert np.array_equal(grams, np.conj(np.swapaxes(grams, 1, 2)))
    for t, gram in enumerate(grams):
        c = generate_channel(cell, trial_rng(3, t))
        np.testing.assert_allclose(np.real(np.diagonal(gram)),
                                   c.g * np.linalg.norm(c.h, axis=1) ** 2, rtol=1e-12)


@pytest.mark.parametrize("rate_bps, budget", [
    (100e6, None),
    (500e6, None),
    (500e6, RfiBudget(p_bs_w=1e-3)),  # tight: some trials infeasible
])
def test_mean_power_equals_per_trial_reference(rate_bps, budget):
    cfg = ScenarioConfig(trials=12, seed=0, rate_bps=rate_bps)
    cell = CellConfig()
    gamma = 2 ** (cfg.rate_bps / cfg.bandwidth_hz) - 1
    noise = noise_power_w(cell.noise_temp_k, cfg.bandwidth_hz)
    sols = []
    for t in range(cfg.trials):
        c = generate_channel(cell, trial_rng(cfg.seed, t))
        sols.append(solve_power_min(c.h, c.g, SinrTargets.uniform(gamma, cell.n_users),
                                    noise, budget=budget))
    usable = [s.p_tx_w for s in sols if s.feasible and s.converged]
    result = mean_bs_power(cfg, cell, budget=budget)
    assert result.mean_p_w == float(np.array(usable).sum() / len(usable))
    assert result.n_feasible == len(usable)
    assert result.n_unconverged == sum(not s.converged for s in sols)
    if budget is not None:
        assert 0 < len(usable) < cfg.trials


def test_zero_rate_reports_zero_power(monkeypatch, counties):
    def no_solve(*args, **kwargs):
        raise AssertionError("rate 0 needs no channel or solve")

    monkeypatch.setattr(scenario, "_solve_gram", no_solve)
    monkeypatch.setattr(scenario, "draw_channels", no_solve)
    cfg = ScenarioConfig(trials=4, seed=0, rate_bps=0.0)
    power = mean_bs_power(cfg, CellConfig())
    assert (power.mean_p_w, power.n_feasible, power.infeasibility_rate) == (0.0, 4, 0.0)
    report = simulate(cfg, counties=counties)
    for row in report.rows:
        assert row.mean_p_tx_dbw == float("-inf") and row.rfi_dbw == float("-inf")


def test_mean_power_same_seed_identical():
    cfg = ScenarioConfig(trials=5, seed=3)
    cell = CellConfig()
    a = mean_bs_power(cfg, cell)
    b = mean_bs_power(cfg, cell)
    assert a == b


def test_mean_power_strictly_increasing_in_rate():
    cell = CellConfig()
    channels = draw_channels(cell, 1, 20)
    means = []
    for rate in (100e6, 200e6, 400e6):
        cfg = ScenarioConfig(trials=20, seed=1, rate_bps=rate)
        means.append(mean_bs_power(cfg, cell, channels=channels).mean_p_w)
    assert means[0] < means[1] < means[2]


def test_mean_power_parallel_identical():
    cfg = ScenarioConfig(trials=8, seed=5)
    cell = CellConfig()
    serial = mean_bs_power(cfg, cell, n_jobs=1)
    parallel = mean_bs_power(cfg, cell, n_jobs=2)
    assert serial == parallel


def test_mean_power_workers_bounded_by_trials(monkeypatch):
    started = []

    class InlineExecutor:
        """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(scenario, "ProcessPoolExecutor", InlineExecutor)
    cfg = ScenarioConfig(trials=3, seed=5)
    cell = CellConfig()
    sharded = mean_bs_power(cfg, cell, n_jobs=10_000)
    assert started == [3]
    assert sharded == mean_bs_power(cfg, cell, n_jobs=1)
    assert started == [3]
    with pytest.raises(ValueError, match="n_jobs"):
        mean_bs_power(cfg, cell, n_jobs=0)


def test_aggregate_rfi_composition():
    p = 10 ** (-5 / 10)
    assert aggregate_rfi_dbw(p, 1.0, 0.0, 1) == pytest.approx(-5.0)
    one = aggregate_rfi_dbw(p, 1e-4, -133.79, 1)
    ten = aggregate_rfi_dbw(p, 1e-4, -133.79, 10)
    assert ten - one == pytest.approx(10.0)
    assert aggregate_rfi_dbw(p, 1e-4, -133.79, 0) == float("-inf")
    with pytest.raises(ValueError):
        aggregate_rfi_dbw(p, 1e-4, -133.79, -1)


def test_aggregate_year_offset_from_penetration_ratio():
    # Footprint counts scale with penetration, so the 2040-2030 offset is
    # 10 log10(22.5 / 1.0) = 13.52 dB up to floor rounding.
    assert 10 * np.log10(22.5) == pytest.approx(13.52, abs=5e-3)
    p = 1e-4
    low = aggregate_rfi_dbw(p, 1e-4, -133.79, 76)
    high = aggregate_rfi_dbw(p, 1e-4, -133.79, 1729)
    assert high - low == pytest.approx(13.57, abs=0.01)


def test_simulate_report_contents(counties):
    cfg = ScenarioConfig(trials=10, seed=2, rate_bps=500e6)
    report = simulate(cfg, counties=counties)
    assert {r.sensor_id for r in report.rows} == set(cfg.sensor_ids)
    assert report.worst_sensor_id == "B5"
    for row in report.rows:
        assert row.margin_db == pytest.approx(cfg.threshold_dbw - row.rfi_dbw)
        assert row.worst_county_fips == "06037"
        assert 0.0 <= row.infeasibility_rate <= 1.0
        assert row.n_footprint > 0
        assert row.delta_db == pytest.approx(10 * math.log10(row.delta))
    header = report.config
    assert header["seed"] == 2 and header["n_users"] == 8
    assert header["ripple_db"] == 0.2
    assert header["penetration_per_100"] == 1.0


def test_simulate_calibration_shift(counties):
    cell = CellConfig()
    raw = simulate(ScenarioConfig(trials=10, seed=2), cell=cell, counties=counties)
    shifted = simulate(ScenarioConfig(trials=10, seed=2, calibration_db=1.5),
                       cell=cell, counties=counties)
    assert shifted.row("B5").rfi_dbw - raw.row("B5").rfi_dbw == pytest.approx(1.5)


def _count_calls(monkeypatch, names):
    """Wrap scenario-level names with call counters; returns {name: count}."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(scenario, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scenario, name, counted)
    return counts


GRID_YEARS = (2030, 2040)
GRID_GUARDS = (10.0, 25.0, 40.0)
GRID_RATES = (100, 500)


def test_rfi_grid_computes_once_per_dependency(monkeypatch, counties):
    cfg = ScenarioConfig(trials=5, seed=1)
    counts = _count_calls(monkeypatch, ("leakage_fraction", "build_snapshot",
                                        "mean_bs_power"))
    grid = rfi_grid(cfg, GRID_YEARS, GRID_GUARDS, GRID_RATES, counties=counties)
    assert counts == {"leakage_fraction": 3 * 5, "build_snapshot": 2 * 3,
                      "mean_bs_power": 3 * 2}
    assert list(grid) == [(y, g, r) for g in GRID_GUARDS for y in GRID_YEARS
                          for r in GRID_RATES]
    for (year, guard, rate), report in grid.items():
        assert {(row.year, row.guard_mhz, row.rate_mbps) for row in report.rows} == {
            (year, guard, float(rate))}


def test_rfi_grid_reads_and_fills_power_cache(monkeypatch, counties):
    cfg = ScenarioConfig(trials=5, seed=1)
    cache = {}
    first = rfi_grid(cfg, GRID_YEARS, GRID_GUARDS, GRID_RATES, counties=counties,
                     power_cache=cache)
    assert set(cache) == {(g, r) for g in GRID_GUARDS for r in GRID_RATES}

    def no_solve(*args, **kwargs):
        raise AssertionError("power batch solved despite a filled cache")

    monkeypatch.setattr(scenario, "_solve_gram", no_solve)
    monkeypatch.setattr(scenario, "draw_channels", no_solve)
    again = rfi_grid(cfg, GRID_YEARS, GRID_GUARDS, GRID_RATES, counties=counties,
                     power_cache=cache)
    assert again == first


def test_rfi_grid_matches_simulate(counties):
    cfg = ScenarioConfig(trials=5, seed=1)
    cache = {}
    grid = rfi_grid(cfg, GRID_YEARS, GRID_GUARDS, GRID_RATES, counties=counties,
                    power_cache=cache)
    for (year, guard, rate), report in grid.items():
        point = replace(cfg, year=year, guard_mhz=guard, rate_bps=rate * 1e6)
        assert report == simulate(point, counties=counties, power=cache[(guard, rate)])
    # Without a given power batch, simulate draws the same channels from the seed.
    point = replace(cfg, year=2040, guard_mhz=25.0, rate_bps=500e6)
    assert grid[(2040, 25.0, 500)] == simulate(point, counties=counties)


def test_sweep_rows_match_max_feasible_rate(counties):
    cfg = ScenarioConfig(trials=5, seed=1)
    rows = sweep_guard_bands(cfg, years=GRID_YEARS, guards_mhz=GRID_GUARDS,
                             counties=counties)
    assert [(r.year, r.guard_mhz) for r in rows] == [
        (y, g) for y in GRID_YEARS for g in GRID_GUARDS]
    for row in rows:
        point = replace(cfg, year=row.year, guard_mhz=row.guard_mhz)
        assert row.max_rate_mbps == max_feasible_rate(point, counties=counties)


def test_compliance_rounding_semantics():
    assert _compliant(-165.96, -166.0)       # rounds to -166.0
    assert not _compliant(-165.94, -166.0)   # rounds to -165.9
    assert _compliant(-170.0, -166.0)
    assert _compliant(float("-inf"), -166.0)


def test_max_feasible_rate_cap_with_infinite_threshold(counties):
    cfg = ScenarioConfig(trials=5, seed=1, threshold_dbw=1e9)
    assert max_feasible_rate(cfg, counties=counties) == 500


def test_max_feasible_rate_zero_when_hopeless(counties):
    cfg = ScenarioConfig(trials=5, seed=1, threshold_dbw=-400.0)
    assert max_feasible_rate(cfg, counties=counties) == 0


def test_leakage_table_rows():
    rows = leakage_table(orders=(5, 7), guards_mhz=(0, 25), sensor_ids=("B5",))
    assert len(rows) == 4
    by_key = {(r["order"], r["guard_mhz"]): r["delta"] for r in rows}
    assert by_key[(7, 25.0)] < by_key[(7, 0.0)]
    assert by_key[(7, 25.0)] < by_key[(5, 25.0)]
    assert by_key[(7, 25.0)] == pytest.approx(3.397e-4, rel=2e-3)


def test_emit_report_deterministic(tmp_path, counties):
    cfg = ScenarioConfig(trials=6, seed=9)
    cell = CellConfig()
    rep1 = simulate(cfg, cell=cell, counties=counties, n_jobs=1)
    rep2 = simulate(cfg, cell=cell, counties=counties, n_jobs=2)
    paths1 = emit_report(rep1, tmp_path / "a")
    paths2 = emit_report(rep2, tmp_path / "b")
    for fmt in ("csv", "json"):
        body1 = open(paths1[fmt], "rb").read()
        body2 = open(paths2[fmt], "rb").read()
        assert body1 == body2


def test_emit_report_parses_and_errors(tmp_path, counties):
    report = simulate(ScenarioConfig(trials=4, seed=0), counties=counties)
    paths = emit_report(report, tmp_path)
    payload = json.loads(open(paths["json"]).read())
    assert len(payload["rows"]) == 5
    assert payload["config"]["trials"] == 4
    with pytest.raises(ValueError):
        emit_report([], tmp_path)
    with pytest.raises(OSError):
        emit_report(report, "/proc/nonexistent/subdir")


def test_emit_guard_sweep(tmp_path):
    rows = [GuardSweepRow(2030, 25.0, 500), GuardSweepRow(2040, 25.0, 300)]
    paths = emit_guard_sweep(rows, tmp_path, header={"trials": 10})
    lines = open(paths["csv"]).read().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "year,guard_mhz,max_rate_mbps"
    assert lines[2] == "2030,25.0,500"


def test_emit_leakage_table(tmp_path):
    rows = leakage_table(orders=(7,), guards_mhz=(25,), sensor_ids=("B5", "B1"))
    paths = emit_leakage_table(rows, tmp_path)
    lines = open(paths["csv"]).read().strip().splitlines()
    assert lines[0] == "sensor_id,order,guard_mhz,delta,delta_db"
    assert len(lines) == 3
