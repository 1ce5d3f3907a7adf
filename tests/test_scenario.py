import collections
import concurrent.futures
import dataclasses
import json
import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from eesscoex import cli, filterbank, precoder, scenario
from eesscoex.adoption import scenario_penetration
from eesscoex.airlink import CellConfig, _draw_buffers, _draw_trials, noise_power_w, trial_rng
from eesscoex.deployment import CountyRecord, build_snapshot, worst_case_footprint
from eesscoex.filterbank import worst_victim_window
from eesscoex.linkbudget import net_gain_db
from eesscoex.precoder import SinrTargets, sinr_target, solve_power_min
from eesscoex.reports import emit_guard_sweep, emit_report, emit_rows
from eesscoex.scenario import (
    GuardSweepRow,
    ScenarioConfig,
    _compliant,
    draw_channels,
    leakage_table,
    max_feasible_rate,
    mean_bs_power,
    rfi_grid,
    simulate,
    sweep_guard_bands,
)

UNCAPPED = math.inf


def _draw(cell, seed, trials):
    """The (h, g) of trials 0 to `trials` - 1, drawn by `_draw_trials`."""
    u, z, h = _draw_buffers(cell, trials)
    g, _ = _draw_trials(cell, [trial_rng(seed, t) for t in range(trials)], u, z, h)
    return h, g


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


@pytest.mark.parametrize("fields, p_max_w, rfi_cap_w", [
    ({}, 0.316, 1.77),                           # the hardware cap binds
    ({"guard_mhz": 0.0}, 0.0209, 0.0209),        # the RFI cap binds
    ({"threshold_dbw": 4000.0}, 0.316, math.inf),  # a threshold past float range: no RFI cap
])
def test_power_cap_is_the_lower_of_hardware_and_rfi_caps(catalog, fields, p_max_w, rfi_cap_w):
    cfg = ScenarioConfig(**fields)
    sensors = tuple(catalog[sid] for sid in cfg.sensor_ids)
    cap = scenario._sensor_geometries(sensors, scenario._geometry_key(cfg)).p_max_w
    *_, rfi_cap, restated_cap = _restated_geometry(cfg, catalog)
    assert cap == restated_cap
    assert cap == pytest.approx(p_max_w, rel=2e-3)
    assert rfi_cap == pytest.approx(rfi_cap_w, rel=2e-3)


def _restated_geometry(cfg: ScenarioConfig, catalog) -> tuple:
    """Each sensor's leakage fraction into its worst victim window and net
    gain, by sensor id; the RFI cap, the threshold over the largest linear net
    gain times leakage fraction; and the power cap, the lower of it and the
    hardware cap."""
    deltas, gains = {}, {}
    for sid in cfg.sensor_ids:
        sensor = catalog[sid]
        window = worst_victim_window(sensor.channel_span_ghz, cfg.ref_bandwidth_mhz,
                                     cfg.tn_band_ghz)
        deltas[sid] = filterbank.leakage_fraction(cfg.filter_spec, window, cfg.bandwidth_hz / 1e6)
        gains[sid] = net_gain_db(sensor, use_published=cfg.use_published_gain,
                                 g_tx_db=cfg.g_tx_db)
    coupling = max(10.0 ** (gains[sid] / 10.0) * deltas[sid] for sid in cfg.sensor_ids)
    try:
        rfi_cap = 10.0 ** (cfg.threshold_dbw / 10.0) / coupling
    except OverflowError:
        rfi_cap = math.inf
    return deltas, gains, rfi_cap, min(10.0 ** (cfg.p_bs_dbw / 10.0), rfi_cap)


# A legal value other than the default for every ScenarioConfig field.
OTHER_FIELD_VALUES = {
    "year": 2035, "adoption_factor": 1.5, "guard_mhz": 30.0, "rate_bps": 200e6, "trials": 5,
    "seed": 1, "sensor_ids": tuple(reversed(scenario.SENSOR_IDS)), "threshold_dbw": -160.0,
    "ref_bandwidth_mhz": 100.0, "eta_bps_per_hz": 20.0, "max_demand_bps": 300e6,
    "filter_order": 5, "ripple_db": 0.5, "p_bs_dbw": 0.0, "g_tx_db": 10.0,
    "use_published_gain": False, "use_published_penetration": False, "calibration_db": 1.0,
}


@pytest.mark.parametrize("name", sorted(OTHER_FIELD_VALUES))
def test_geometry_key_holds_every_field_the_geometry_reads(catalog, name):
    # The sensor specs reach the geometry as their own argument, so a field
    # outside the key must leave each sensor's fraction, gain and the caps
    # alone, with the gains published and recomputed (where g_tx_db counts).
    assert set(OTHER_FIELD_VALUES) == {f.name for f in dataclasses.fields(ScenarioConfig)}
    base = ScenarioConfig()
    other = replace(base, **{name: OTHER_FIELD_VALUES[name]})
    assert getattr(other, name) != getattr(base, name)
    in_key = name in scenario._GEOMETRY_FIELDS
    assert (scenario._geometry_key(other) != scenario._geometry_key(base)) == in_key
    if not in_key:
        for published in (True, False):
            assert (_restated_geometry(replace(other, use_published_gain=published), catalog)
                    == _restated_geometry(replace(base, use_published_gain=published), catalog))


def test_mean_power_single_user_closed_form():
    cfg = ScenarioConfig(trials=10, seed=7, rate_bps=100e6)
    cell = CellConfig(n_users=1, n_antennas=16, shadowing=False, los_mode="los")
    h, g = _draw(cell, cfg.seed, cfg.trials)
    gamma = 2 ** (cfg.rate_bps / cfg.bandwidth_hz) - 1
    noise = noise_power_w(cell.noise_temp_k, cfg.bandwidth_hz)
    expected = np.mean([gamma * noise / (g_t[0] * np.linalg.norm(h_t[0]) ** 2)
                        for h_t, g_t in zip(h, g)])
    result = mean_bs_power(cfg, cell, UNCAPPED)
    assert result.mean_p_w == pytest.approx(expected, rel=1e-9)
    assert result.infeasibility_rate == 0.0
    assert result.n_feasible == 10


@pytest.mark.parametrize("rate_bps, p_max_w", [
    (100e6, None),
    (500e6, None),
    pytest.param(500e6, 1e-3, id="500000000.0-budget2"),  # tight: some trials infeasible
])
def test_mean_power_equals_per_trial_reference(rate_bps, p_max_w):
    # A None cap is no cap.
    p_max_w = UNCAPPED if p_max_w is None else p_max_w
    cfg = ScenarioConfig(trials=12, seed=0, rate_bps=rate_bps)
    cell = CellConfig()
    gamma = 2 ** (cfg.rate_bps / cfg.bandwidth_hz) - 1
    noise = noise_power_w(cell.noise_temp_k, cfg.bandwidth_hz)
    sols = [solve_power_min(h_t, g_t, SinrTargets.uniform(gamma, cell.n_users), noise)
            for h_t, g_t in zip(*_draw(cell, cfg.seed, cfg.trials))]
    # The kernel's cap rule, on the uncapped solutions.
    usable = [s.p_tx_w for s in sols
              if s.converged and s.p_tx_w <= p_max_w * (1 + 1e-9)]
    result = mean_bs_power(cfg, cell, p_max_w)
    assert result.mean_p_w == float(np.array(usable).sum() / len(usable))
    assert result.n_feasible == len(usable)
    assert result.n_unconverged == sum(not s.converged for s in sols)
    if p_max_w != UNCAPPED:
        assert 0 < len(usable) < cfg.trials


def _kernel_inputs(rate_bps, trials=12, seed=0, guard_mhz=25.0):
    """A seed's Gram stack with the uniform targets and noise of `rate_bps`."""
    cfg = ScenarioConfig(trials=trials, seed=seed, rate_bps=rate_bps, guard_mhz=guard_mhz)
    cell = CellConfig()
    gam = np.full(cell.n_users, sinr_target(cfg.rate_bps, cfg.bandwidth_hz))
    return (draw_channels(cell, seed, trials), gam,
            noise_power_w(cell.noise_temp_k, cfg.bandwidth_hz))


def _solve(grams, gam, noise, p_max_w):
    """The kernel on the inverse of a Gram stack."""
    return precoder._solve_grams(np.linalg.inv(grams), gam, noise, p_max_w)


def _assert_trials_solve_alone_bitwise(batch, grams, gam, noise, p_max_w):
    """Each problem of a kernel call over `grams`, with per-problem or shared
    targets, noise and cap, is bitwise that problem solved alone with its
    own scalars."""
    n = len(grams)
    gam = np.broadcast_to(gam, (n, grams.shape[1]))
    noise, p_max_w = np.broadcast_to(noise, (n,)), np.broadcast_to(p_max_w, (n,))
    for t in range(n):
        alone = _solve(grams[t:t + 1], gam[t], float(noise[t]), float(p_max_w[t]))
        for whole, single in zip(batch, alone):
            assert whole.dtype == single.dtype
            assert whole[t:t + 1].tobytes() == single.tobytes()


@pytest.mark.parametrize("rate_bps, p_max_w", [
    (100e6, math.inf),
    (500e6, math.inf),
    (500e6, 1e-3),  # tight: some trials infeasible
])
def test_kernel_batch_equals_each_trial_alone(rate_bps, p_max_w):
    grams, gam, noise = _kernel_inputs(rate_bps)
    batch = _solve(grams, gam, noise, p_max_w)
    p_tx, feasible, converged, iterations = batch[:4]
    assert p_tx.shape == feasible.shape == iterations.shape == (len(grams),)
    assert converged.all()
    if math.isfinite(p_max_w):
        assert 0 < feasible.sum() < len(grams)
    _assert_trials_solve_alone_bitwise(batch, grams, gam, noise, p_max_w)


def test_kernel_call_mixing_targets_noise_and_caps_equals_each_problem_alone():
    # Three batches of one Gram stack, as a grid packs them: each with its own
    # guard's noise and rate's targets, one with per-user targets, one capped.
    batches = [_kernel_inputs(rate, guard_mhz=guard) for rate, guard in
               [(100e6, 0.0), (500e6, 25.0), (300e6, 50.0)]]
    grams = np.concatenate([grams for grams, _, _ in batches])
    trials = len(batches[0][0])
    gam = np.concatenate([np.broadcast_to(gam, (trials, len(gam))) for _, gam, _ in batches])
    gam[2 * trials:] *= np.linspace(0.5, 2.0, gam.shape[1])
    noise = np.repeat([noise for _, _, noise in batches], trials)
    p_max_w = np.repeat([math.inf, 1e-3, 1.0], trials)
    call = _solve(grams, gam, noise, p_max_w)
    feasible, converged = call[1:3]
    assert converged.all()
    assert feasible[:trials].all() and 0 < feasible[trials:2 * trials].sum() < trials
    _assert_trials_solve_alone_bitwise(call, grams, gam, noise, p_max_w)


def test_kernel_freezes_converged_trials_under_an_iteration_cap(monkeypatch):
    grams, gam, noise = _kernel_inputs(500e6, trials=20)
    # Diagonal Gram matrices first: zero-forcing is exact there, so they
    # converge at iteration 1 and the seed's trials do not.
    diagonal = np.array([np.diag(np.diagonal(gram)) for gram in grams[:4]])
    grams = np.concatenate([diagonal, grams])
    uncapped = _solve(grams, gam, noise, math.inf)
    cap = 2
    monkeypatch.setattr(precoder, "_MAX_ITERATIONS", cap)
    capped = _solve(grams, gam, noise, math.inf)
    converged, iterations = capped[2], capped[3]
    assert 0 < converged.sum() < len(grams)
    assert not capped[1][~converged].any()
    assert (iterations[~converged] == cap).all()
    # A trial that converged under the cap stopped where it stops uncapped.
    for whole, reference in zip(capped, uncapped):
        assert whole[converged].tobytes() == reference[converged].tobytes()
    _assert_trials_solve_alone_bitwise(capped, grams, gam, noise, math.inf)


@pytest.mark.parametrize("guard_mhz", [0.0, 25.0, 50.0])
@pytest.mark.parametrize("rate_bps", [100e6, 300e6, 500e6])
def test_kernel_converges_in_a_few_newton_steps(rate_bps, guard_mhz):
    grams, gam, noise = _kernel_inputs(rate_bps, trials=20, guard_mhz=guard_mhz)
    converged, iterations = _solve(grams, gam, noise, math.inf)[2:4]
    assert converged.all()
    assert iterations.max() <= 4


@pytest.mark.parametrize("seed", range(4))
def test_min_power_is_at_most_the_zero_forcing_power(seed):
    # Zero-forcing meets every target, so no trial's minimum power exceeds
    # sigma^2 gamma tr(G^-1) on its Gram matrix; at N/K = 32 it is only a
    # little lower.  The band holds the mean ratios measured at seeds 0-3,
    # 200 trials, guards 0/25/50 and 100/300/500 Mbps: 0.978-0.994.
    cell = CellConfig()
    grams = draw_channels(cell, seed, 200)
    trace = np.real(np.trace(np.linalg.inv(grams), axis1=1, axis2=2))
    for guard_mhz in (0.0, 25.0, 50.0):
        for rate_bps in (100e6, 300e6, 500e6):
            cfg = ScenarioConfig(trials=200, seed=seed, guard_mhz=guard_mhz, rate_bps=rate_bps)
            gam = sinr_target(cfg.rate_bps, cfg.bandwidth_hz)
            noise = noise_power_w(cell.noise_temp_k, cfg.bandwidth_hz)
            zf_w = noise * gam * trace
            p_tx, feasible = _solve(grams, gam, noise, math.inf)[:2]
            assert feasible.all()
            assert (p_tx <= zf_w * (1 + 1e-12)).all()
            mean = mean_bs_power(cfg, cell, UNCAPPED)
            assert mean.n_feasible == cfg.trials
            assert 0.975 <= mean.mean_p_w / zf_w.mean() <= 0.996


def test_mc_rate_slope_matches_the_closed_form():
    # With the power near the zero-forcing power, the rate enters only through
    # gamma = 2^(R/B) - 1, so the local slope of the mean power in dB is
    # (10 / ln 10)(ln 2 / B) 2^(R/B) / gamma per bps.  The Monte Carlo slope,
    # by central differences at +-1 Mbps, guard 25 and no cap, sits above it
    # by the MMSE correction: the band holds the excess measured at seeds 0-3,
    # 200 trials and 100/300/500 Mbps, 0.00492-0.00694.
    cell = CellConfig()
    rates_bps = (100e6, 300e6, 500e6)
    for seed in range(4):
        cfg = ScenarioConfig(trials=200, seed=seed, guard_mhz=25.0)
        b_hz = cfg.bandwidth_hz
        batches = [scenario._power_batch(rate + step, b_hz, cell, UNCAPPED)
                   for rate in rates_bps for step in (-1e6, 1e6)]
        powers = scenario._mean_powers(cfg, cell, batches)
        for rate, low, high in zip(rates_bps, powers[::2], powers[1::2]):
            assert low.n_feasible == high.n_feasible == cfg.trials
            mc = 10.0 * (math.log10(high.mean_p_w) - math.log10(low.mean_p_w)) / 2e6
            closed = (10.0 / math.log(10.0) * math.log(2.0) / b_hz * 2.0 ** (rate / b_hz)
                      / (2.0 ** (rate / b_hz) - 1.0))
            assert 0.0049 <= mc / closed - 1.0 <= 0.0070, (seed, rate)


def _uplink_x(grams, q, noise):
    """x_k(q) = [G (sigma^2 I + diag(q) G)^-1]_kk = [(sigma^2 I + G diag(q))^-1 G]_kk."""
    m = noise * np.eye(grams.shape[1]) + grams * q[:, None, :]
    return np.real(np.diagonal(np.linalg.solve(m, grams), axis1=1, axis2=2))


@pytest.mark.parametrize("rate_bps", [100e6, 300e6, 500e6])
def test_kernel_q_is_the_uplink_fixed_point(rate_bps):
    grams, gam, noise = _kernel_inputs(rate_bps)
    q = _solve(grams, gam, noise, math.inf)[4]
    np.testing.assert_allclose(q * _uplink_x(grams, q, noise),
                               np.broadcast_to(gam / (1 + gam), q.shape), rtol=1e-12)


@pytest.mark.parametrize("rate_bps", [100e6, 300e6, 500e6])
def test_kernel_power_matches_a_plain_fixed_point_loop(rate_bps):
    grams, gam, noise = _kernel_inputs(rate_bps)
    p_tx = _solve(grams, gam, noise, math.inf)[0]
    # Picard iteration from zero, run past the kernel's tolerance; by
    # uplink-downlink duality the downlink total power is sum(q).
    q = np.zeros(grams.shape[:2])
    for _ in range(2000):
        q_new = gam / (1 + gam) / _uplink_x(grams, q, noise)
        if np.all(np.abs(q_new - q) <= 1e-14 * q_new):
            break
        q = q_new
    np.testing.assert_allclose(p_tx, q_new.sum(axis=1), rtol=1e-12)


def _newton_power_after(steps, grams, gam, noise):
    """Total downlink power after `steps` Newton steps from the zero-forcing
    powers on every trial, with no stop test: the kernel's update and downlink
    solve, restated in Gram form, A = G (sigma^2 I + diag(q) G)^-1, with the
    directions taken at the final powers."""
    eye, diag = np.eye(grams.shape[1]), np.arange(grams.shape[1])
    q = gam * noise * np.real(np.diagonal(np.linalg.inv(grams), axis1=1, axis2=2))
    scale = gam / (1 + gam)
    for _ in range(steps):
        a = grams @ np.linalg.inv(noise * eye + q[:, :, None] * grams)
        x = np.real(np.diagonal(a, axis1=1, axis2=2))
        jac = eye - (scale / x ** 2)[:, :, None] * np.abs(a) ** 2
        q = q - np.linalg.solve(jac, (q - scale / x)[:, :, None])[:, :, 0]
    b = np.linalg.inv(noise * eye + q[:, :, None] * grams)
    b = b / np.sqrt(np.real(np.einsum("tik,tij,tjk->tk", b.conj(), grams, b)))[:, None, :]
    c2 = np.abs(grams @ b) ** 2
    tight = -c2
    tight[:, diag, diag] = c2[:, diag, diag] / gam
    return np.linalg.solve(tight, np.full(q.shape + (1,), noise))[:, :, 0].sum(axis=1)


def test_kernel_stops_at_the_rounding_floor_of_a_high_target():
    # At 5 Gbps (gamma about 1e6) rounding keeps most trials' steps above
    # _TOL; each must stop once its step no longer shrinks.
    cell = CellConfig(los_mode="nlos", noise_temp_k=1e5)
    cfg = ScenarioConfig(trials=40, seed=0, rate_bps=5e9)
    grams = draw_channels(cell, cfg.seed, cfg.trials)
    gam = np.full(cell.n_users, sinr_target(cfg.rate_bps, cfg.bandwidth_hz))
    noise = noise_power_w(cell.noise_temp_k, cfg.bandwidth_hz)
    p_tx, _, converged, iterations = _solve(grams, gam, noise, math.inf)[:4]
    assert converged.all() and iterations.max() <= 10
    np.testing.assert_allclose(p_tx, _newton_power_after(1000, grams, gam, noise), rtol=1e-12)


def test_zero_rate_reports_zero_power(monkeypatch, counties):
    def no_solve(*args, **kwargs):
        raise AssertionError("rate 0 needs no channel or solve")

    monkeypatch.setattr(scenario, "_solve_grams", no_solve)
    monkeypatch.setattr(scenario, "draw_channels", no_solve)
    cfg = ScenarioConfig(trials=4, seed=0, rate_bps=0.0)
    power = mean_bs_power(cfg, CellConfig(), UNCAPPED)
    assert (power.mean_p_w, power.n_feasible, power.infeasibility_rate) == (0.0, 4, 0.0)
    report = simulate(cfg, counties=counties)
    for row in report.rows:
        assert row.mean_p_tx_dbw == float("-inf") and row.rfi_dbw == float("-inf")
    cache = {}
    rfi_grid(cfg, GRID_YEARS, GRID_GUARDS, (0,), counties=counties, power_cache=cache)
    assert cache == {(guard, 0): power for guard in GRID_GUARDS}


def test_mean_power_same_seed_identical():
    cfg = ScenarioConfig(trials=5, seed=3)
    cell = CellConfig()
    a = mean_bs_power(cfg, cell, UNCAPPED)
    b = mean_bs_power(cfg, cell, UNCAPPED)
    assert a == b


def test_mean_power_strictly_increasing_in_rate():
    cell = CellConfig()
    means = []
    for rate in (100e6, 200e6, 400e6):
        cfg = ScenarioConfig(trials=20, seed=1, rate_bps=rate)
        means.append(mean_bs_power(cfg, cell, UNCAPPED).mean_p_w)
    assert means[0] < means[1] < means[2]


def test_mean_power_parallel_identical():
    cfg = ScenarioConfig(trials=8, seed=5)
    cell = CellConfig()
    serial = mean_bs_power(cfg, cell, UNCAPPED, n_jobs=1)
    parallel = mean_bs_power(cfg, cell, UNCAPPED, n_jobs=2)
    assert serial == parallel


def _inline_executor(monkeypatch):
    """Replaces the ProcessPoolExecutor with an in-process stand-in;
    returns the list of max_workers it was started with."""
    started = []

    class InlineExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    return started


def test_mean_power_workers_bounded_by_trials(monkeypatch):
    started = _inline_executor(monkeypatch)
    cfg = ScenarioConfig(trials=3, seed=5)
    cell = CellConfig()
    sharded = mean_bs_power(cfg, cell, UNCAPPED, n_jobs=10_000)
    assert started == [3]
    assert sharded == mean_bs_power(cfg, cell, UNCAPPED, n_jobs=1)
    assert started == [3]
    with pytest.raises(ValueError, match="n_jobs"):
        mean_bs_power(cfg, cell, UNCAPPED, n_jobs=0)


def _check_blocks_reduce_in_trial_order(monkeypatch, trials, n_jobs):
    started = _inline_executor(monkeypatch)
    calls = _record_kernel_calls(monkeypatch)
    cfg = ScenarioConfig(trials=trials, seed=0, rate_bps=500e6)
    cell = CellConfig()
    p_max_w = 1e-3  # tight: infeasible trials fall in several blocks
    serial = mean_bs_power(cfg, cell, p_max_w, n_jobs=1)
    calls.clear()
    sharded = mean_bs_power(cfg, cell, p_max_w, n_jobs=n_jobs)
    assert started == ([min(n_jobs, trials)] if trials > 1 else [])
    # Blocks of ceil(trials / n_jobs) trials: 10 trials on 4 workers run as 3, 3, 3 and 1.
    size = math.ceil(trials / n_jobs)
    assert [len(call[0]) for call in calls] == [
        min(size, trials - first) for first in range(0, trials, size)]
    assert len(calls) <= min(n_jobs, trials)
    # Every trial is solved exactly once: the calls' inverses are the stack's, in order.
    inverses = np.linalg.inv(draw_channels(cell, cfg.seed, trials))
    assert np.array_equal(np.concatenate([call[0] for call in calls]), inverses)
    assert trials == 1 or 0 < serial.n_feasible < trials
    assert repr(sharded) == repr(serial)


def test_mean_power_blocks_reduce_in_trial_order(monkeypatch):
    _check_blocks_reduce_in_trial_order(monkeypatch, trials=20, n_jobs=3)


@pytest.mark.parametrize("trials, n_jobs", [(1, 2), (9, 4), (10, 4), (129, 2)])
def test_mean_power_blocks_are_equal_spans(monkeypatch, trials, n_jobs):
    _check_blocks_reduce_in_trial_order(monkeypatch, trials, n_jobs)


def _aggregate(p_w, delta, net_gain_db, n_footprint, calibration_db=0.0):
    """The composition at one point, from linear power, fraction and count."""
    return scenario._rfi_dbw(scenario._db(p_w), scenario._db(delta), net_gain_db,
                             scenario._db(n_footprint), calibration_db)


def test_aggregate_rfi_composition():
    p = 10 ** (-5 / 10)
    assert _aggregate(p, 1.0, 0.0, 1) == pytest.approx(-5.0)
    one = _aggregate(p, 1e-4, -133.79, 1)
    ten = _aggregate(p, 1e-4, -133.79, 10)
    assert ten - one == pytest.approx(10.0)
    assert _aggregate(p, 1e-4, -133.79, 0) == float("-inf")


def test_aggregate_year_offset_from_penetration_ratio():
    # Footprint counts scale with penetration, so the 2040-2030 offset is
    # 10 log10(22.5 / 1.0) = 13.52 dB up to floor rounding.
    assert 10 * np.log10(22.5) == pytest.approx(13.52, abs=5e-3)
    p = 1e-4
    low = _aggregate(p, 1e-4, -133.79, 76)
    high = _aggregate(p, 1e-4, -133.79, 1729)
    assert high - low == pytest.approx(13.57, abs=0.01)


def test_simulate_report_contents(counties, catalog):
    # At guard 0 and 1.5 Gbps the power cap leaves 3 of 10 trials infeasible,
    # and the adoption factor is not 1, so no two number columns agree.
    cfg = ScenarioConfig(trials=10, seed=2, year=2035, adoption_factor=0.5, guard_mhz=0.0,
                         rate_bps=1.5e9)
    report = simulate(cfg, counties=counties)
    sensors = [catalog[sid] for sid in cfg.sensor_ids]
    p_max_w = scenario._sensor_geometries(tuple(sensors), scenario._geometry_key(cfg)).p_max_w
    power = mean_bs_power(cfg, CellConfig(), p_max_w)
    assert power.infeasibility_rate == pytest.approx(0.3)
    penetration = scenario_penetration(cfg.year, cfg.adoption_factor)
    snapshot = build_snapshot(counties, cfg.max_demand_bps, cfg.eta_bps_per_hz,
                              cfg.bandwidth_hz, penetration_per_100=penetration)
    assert [row.sensor_id for row in report.rows] == list(cfg.sensor_ids)
    for row, sensor in zip(report.rows, sensors):
        county, n_fp = worst_case_footprint(snapshot, sensor)
        delta = filterbank.leakage_fraction(cfg.filter_spec, worst_victim_window(
            sensor.channel_span_ghz, cfg.ref_bandwidth_mhz, cfg.tn_band_ghz),
            cfg.bandwidth_hz / 1e6)
        rfi = pytest.approx(10 * math.log10(power.mean_p_w) + 10 * math.log10(delta)
                            + sensor.published_net_gain_db + 10 * math.log10(n_fp))
        assert vars(row) == {
            "sensor_id": sensor.sensor_id,
            "year": cfg.year,
            "rate_mbps": cfg.rate_bps / 1e6,
            "guard_mhz": cfg.guard_mhz,
            "adoption_factor": cfg.adoption_factor,
            "n_footprint": n_fp,
            "delta": delta,
            "delta_db": scenario._db(delta),
            "net_gain_db": sensor.published_net_gain_db,
            "mean_p_tx_dbw": scenario._db(power.mean_p_w),
            "rfi_dbw": rfi,
            "margin_db": cfg.threshold_dbw - row.rfi_dbw,
            "infeasibility_rate": power.infeasibility_rate,
            "worst_county_fips": county.fips,
            "worst_county_name": county.name,
        }
        assert row.worst_county_fips == "06037" and row.n_footprint > 0
    assert report.worst_sensor_id == max(report.rows, key=lambda r: r.rfi_dbw).sensor_id == "B5"
    header = report.config
    assert header["seed"] == 2 and header["n_users"] == 8
    assert header["ripple_db"] == 0.2
    assert header["penetration_per_100"] == penetration == 5.0


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
GRID_FACTORS = (1.0, 1.5)


def _record_kernel_calls(monkeypatch) -> list:
    """Wraps the scenario's kernel; returns the list of its calls' arguments,
    with targets, noise and cap broadcast to one row or value per problem."""
    calls = []
    original = scenario._solve_grams

    def recorded(inv_grams, gam, noise_w, p_max_w):
        n, k = inv_grams.shape[:2]
        calls.append((inv_grams, np.broadcast_to(gam, (n, k)), np.broadcast_to(noise_w, (n,)),
                      np.broadcast_to(p_max_w, (n,))))
        return original(inv_grams, gam, noise_w, p_max_w)

    monkeypatch.setattr(scenario, "_solve_grams", recorded)
    return calls


def _record_inverted_matrices(monkeypatch) -> list:
    """Wraps numpy's matrix inverse; returns the list of every matrix it inverts."""
    inverted = []
    original = np.linalg.inv

    def recorded(a):
        inverted.extend(np.reshape(a, (-1,) + np.shape(a)[-2:]))
        return original(a)

    monkeypatch.setattr(np.linalg, "inv", recorded)
    return inverted


def test_rfi_grid_computes_once_per_dependency(monkeypatch, counties):
    cfg = ScenarioConfig(trials=5, seed=1)
    grams = draw_channels(CellConfig(), cfg.seed, cfg.trials)
    counts = _count_calls(monkeypatch, ("leakage_fraction", "build_snapshot"))
    calls = _record_kernel_calls(monkeypatch)
    inverted = _record_inverted_matrices(monkeypatch)
    grid = rfi_grid(cfg, GRID_YEARS, GRID_GUARDS, GRID_RATES, counties=counties)
    # B1, B3, B4 and B7 share one victim window, so each guard has 2 distinct fractions.
    assert counts == {"leakage_fraction": 3 * 2, "build_snapshot": 2 * 3}
    # Each (guard, rate) batch is solved once: its target and noise reach the
    # kernel as `trials` problems, and nothing else does.
    problems = collections.Counter(
        (gam[0], noise) for _, gams, noises, _ in calls for gam, noise in zip(gams, noises))
    assert sum(problems.values()) == cfg.trials * len(GRID_GUARDS) * len(GRID_RATES)
    assert set(problems.values()) == {cfg.trials}
    assert len(problems) == len(GRID_GUARDS) * len(GRID_RATES)
    # The Gram stack is inverted once, not once per batch or per call.
    assert sum(any(np.array_equal(matrix, gram) for gram in grams)
               for matrix in inverted) == cfg.trials
    assert list(grid) == [(y, g, r) for g in GRID_GUARDS for y in GRID_YEARS
                          for r in GRID_RATES]
    for (year, guard, rate), report in grid.items():
        assert {(row.year, row.guard_mhz, row.rate_mbps) for row in report.rows} == {
            (year, guard, float(rate))}


@pytest.mark.parametrize("trials", [5, 50, scenario._CALL_PROBLEMS])
def test_rfi_grid_power_equals_mean_bs_power_of_each_point(monkeypatch, counties, catalog,
                                                           trials):
    # A 1 mW hardware cap leaves some trials infeasible at 100 and 500 Mbps,
    # and the low threshold sets a tighter RFI cap at the 10 MHz guard.
    cfg = ScenarioConfig(trials=trials, seed=1, p_bs_dbw=-30.0, threshold_dbw=-190.0)
    cell = CellConfig()
    channels = draw_channels(cell, cfg.seed, trials)
    rates = (0,) + GRID_RATES
    calls = _record_kernel_calls(monkeypatch)
    cache = {}
    rfi_grid(cfg, GRID_YEARS[:1], GRID_GUARDS, rates, counties=counties, channels=channels,
             power_cache=cache)
    # Whole batches share calls up to the cap; a batch as large keeps its own.
    per_call = max(1, scenario._CALL_PROBLEMS // trials)
    solved = len(GRID_GUARDS) * len(GRID_RATES)
    assert [len(call[0]) for call in calls] == [
        trials * min(per_call, solved - first) for first in range(0, solved, per_call)]
    assert len({float(cap) for call in calls for cap in call[3]}) == 2
    assert any(0 < power.n_feasible < trials for power in cache.values())
    sensors = tuple(catalog[sid] for sid in cfg.sensor_ids)
    for (guard, rate), power in cache.items():
        point = replace(cfg, guard_mhz=float(guard), rate_bps=rate * 1e6)
        p_max_w = scenario._sensor_geometries(sensors, scenario._geometry_key(point)).p_max_w
        assert power == mean_bs_power(point, cell, p_max_w)


@pytest.mark.parametrize("call", [
    lambda cfg, channels: rfi_grid(cfg, GRID_YEARS, GRID_GUARDS, GRID_RATES,
                                   channels=channels),
], ids=["rfi_grid"])
def test_short_channel_stack_raises_before_any_solve(monkeypatch, call):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved with too few channels")

    monkeypatch.setattr(scenario, "_solve_grams", no_solve)
    monkeypatch.setattr(np.linalg, "inv", no_solve)
    cfg = ScenarioConfig(trials=5, seed=1)
    with pytest.raises(ValueError, match="^need 5 precomputed channels, got 4$"):
        call(cfg, draw_channels(CellConfig(), cfg.seed, 4))


def _grid_points(cfg: ScenarioConfig) -> list:
    return [replace(cfg, year=y, adoption_factor=f, guard_mhz=g, rate_bps=r * 1e6)
            for y in GRID_YEARS for f in GRID_FACTORS for g in GRID_GUARDS for r in GRID_RATES]


def _power_table(cfg: ScenarioConfig, counties) -> dict:
    table = {}
    rfi_grid(cfg, GRID_YEARS[:1], GRID_GUARDS, GRID_RATES, counties=counties,
             power_cache=table)
    return table


def test_simulate_warm_caches_give_the_cold_answer(counties, clear_scenario_caches):
    cfg = ScenarioConfig(trials=5, seed=1)
    table = _power_table(cfg, counties)
    points = _grid_points(cfg)
    warm = [simulate(p, counties=counties, power=table[(p.guard_mhz, p.rate_bps / 1e6)])
            for p in points]
    for point, report in zip(points, warm):
        clear_scenario_caches()
        power = table[(point.guard_mhz, point.rate_bps / 1e6)]
        assert simulate(point, counties=counties, power=power) == report


def test_simulate_computes_once_per_dependency(monkeypatch, counties, clear_scenario_caches):
    cfg = ScenarioConfig(trials=5, seed=1)
    table = _power_table(cfg, counties)
    clear_scenario_caches()
    counts = _count_calls(monkeypatch, ("build_snapshot", "leakage_fraction", "net_gain_db"))
    points = _grid_points(cfg)
    for point in points:
        simulate(point, counties=counties, power=table[(point.guard_mhz, point.rate_bps / 1e6)])
    penetrations = {p.penetration_per_100 for p in points}
    assert len(penetrations) == 3  # 2030's penetration does not depend on the factor
    assert counts == {"build_snapshot": 3 * len(GRID_GUARDS),
                      "leakage_fraction": 2 * len(GRID_GUARDS),
                      "net_gain_db": len(cfg.sensor_ids) * len(GRID_GUARDS)}


def test_simulate_cache_keys_are_values(counties, catalog, clear_scenario_caches):
    cfg = ScenarioConfig(trials=5, seed=1, year=2040)
    power = mean_bs_power(cfg, CellConfig(), UNCAPPED)
    base = simulate(cfg, counties=counties, power=power)

    # A county list edited in place: its worst county for B5 grows tenfold.
    edited = list(counties)
    worst = next(i for i, r in enumerate(edited) if r.fips == base.row("B5").worst_county_fips)
    simulate(cfg, counties=edited, power=power)
    edited[worst] = replace(edited[worst], population=10 * edited[worst].population)
    warm = simulate(cfg, counties=edited, power=power)
    clear_scenario_caches()
    assert simulate(cfg, counties=edited, power=power) == warm
    assert warm.row("B5").n_footprint > base.row("B5").n_footprint

    # Another catalog whose B5 sees a larger footprint area and another gain.
    b5 = catalog["B5"]
    other = {**catalog, "B5": replace(b5, footprint_area_km2=4 * b5.footprint_area_km2,
                                      published_net_gain_db=b5.published_net_gain_db - 3)}
    simulate(cfg, counties=counties, catalog=catalog, power=power)
    warm = simulate(cfg, counties=counties, catalog=other, power=power)
    clear_scenario_caches()
    assert simulate(cfg, counties=counties, catalog=other, power=power) == warm
    assert warm.row("B5").n_footprint != base.row("B5").n_footprint
    assert warm.row("B5").net_gain_db == base.row("B5").net_gain_db - 3

    # The same sensors in another order.
    reordered = replace(cfg, sensor_ids=tuple(reversed(cfg.sensor_ids)))
    simulate(cfg, counties=counties, power=power)
    warm = simulate(reordered, counties=counties, power=power)
    clear_scenario_caches()
    assert simulate(reordered, counties=counties, power=power) == warm
    assert [r.sensor_id for r in warm.rows] == list(reordered.sensor_ids)
    for row in warm.rows:
        assert row == base.row(row.sensor_id)


def test_simulate_bad_inputs_raise_before_any_cache_entry(counties, scenario_caches):
    cfg = ScenarioConfig(trials=5, seed=1)
    power = mean_bs_power(cfg, CellConfig(), UNCAPPED)
    with pytest.raises(ValueError, match=r"^unknown sensor 'B9'; have \['B1', 'B3'"):
        simulate(replace(cfg, sensor_ids=("B5", "B9")), counties=counties, power=power)
    with pytest.raises(ValueError, match="^empty county record set$"):
        simulate(cfg, counties=[], power=power)
    assert scenario_caches
    assert all(cache.cache_info().currsize == 0 for cache in scenario_caches)


_GRID = (GRID_YEARS, GRID_GUARDS, GRID_RATES)
_CALLS = {
    "simulate": lambda cfg, axes, **kw: simulate(cfg, **kw),
    "rfi_grid": lambda cfg, axes, **kw: rfi_grid(cfg, *axes, **kw),
    "max_feasible_rate": lambda cfg, axes, **kw: max_feasible_rate(cfg, axes[2], **kw),
    "sweep_guard_bands": lambda cfg, axes, **kw: sweep_guard_bands(cfg, *axes[:2], **kw),
}
# (id, sensor ids, no counties, grid axes, message, the calls that take the bad value)
_BAD_INPUTS = [
    ("no-counties", scenario.SENSOR_IDS, True, _GRID, "^empty county record set$", _CALLS),
    ("unknown-sensor", ("B5", "B9"), False, _GRID, "^unknown sensor 'B9'", _CALLS),
    ("guard-60", scenario.SENSOR_IDS, False, (GRID_YEARS, (*GRID_GUARDS, 60.0), GRID_RATES),
     r"^'guard_mhz' must be <= 50, got 60\.0$", ("rfi_grid", "sweep_guard_bands")),
    ("year-2200", scenario.SENSOR_IDS, False, ((*GRID_YEARS, 2200), GRID_GUARDS, GRID_RATES),
     r"^'year' must be <= 2100, got 2200$", ("rfi_grid", "sweep_guard_bands")),
    ("rate-minus-1", scenario.SENSOR_IDS, False, (GRID_YEARS, GRID_GUARDS, (*GRID_RATES, -1)),
     r"^'rate_bps' must be >= 0, got -1000000\.0$", ("rfi_grid", "max_feasible_rate")),
]


@pytest.mark.parametrize("call, sensor_ids, no_counties, axes, message", [
    pytest.param(_CALLS[name], sensor_ids, no_counties, axes, message, id=f"{case}-{name}")
    for case, sensor_ids, no_counties, axes, message, names in _BAD_INPUTS for name in names])
def test_bad_inputs_raise_before_any_draw_or_power_batch(monkeypatch, counties, scenario_caches,
                                                         call, sensor_ids, no_counties, axes,
                                                         message):
    counts = _count_calls(monkeypatch, ("draw_channels", "mean_bs_power", "_solve_grams"))
    cfg = ScenarioConfig(trials=5, seed=1, sensor_ids=sensor_ids)
    with pytest.raises(ValueError, match=message):
        call(cfg, axes, counties=[] if no_counties else counties)
    assert counts == {"draw_channels": 0, "mean_bs_power": 0, "_solve_grams": 0}
    assert all(cache.cache_info().currsize == 0 for cache in scenario_caches)


def test_rfi_grid_reads_and_fills_power_cache(monkeypatch, counties):
    cfg = ScenarioConfig(trials=5, seed=1)
    cache = {}
    first = rfi_grid(cfg, GRID_YEARS, GRID_GUARDS, GRID_RATES, counties=counties,
                     power_cache=cache)
    assert set(cache) == {(g, r) for g in GRID_GUARDS for r in GRID_RATES}

    def no_solve(*args, **kwargs):
        raise AssertionError("power batch solved despite a filled cache")

    monkeypatch.setattr(scenario, "_solve_grams", no_solve)
    monkeypatch.setattr(scenario, "draw_channels", no_solve)
    again = rfi_grid(cfg, GRID_YEARS, GRID_GUARDS, GRID_RATES, counties=counties,
                     power_cache=cache)
    assert again == first


def test_rfi_grid_matches_simulate(counties):
    cfg = ScenarioConfig(trials=5, seed=1, adoption_factor=1.5, filter_order=5)
    before = replace(cfg)
    cache = {}
    grid = rfi_grid(cfg, GRID_YEARS, GRID_GUARDS, GRID_RATES, counties=counties,
                    power_cache=cache)
    assert cfg == before
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


def _scalar_rfi(power, delta, net_gain_db, n_footprint, calibration_db):
    """One sensor's RFI as one point's scalar expression, restated."""
    if power.degenerate:
        return float("nan")
    if n_footprint == 0 or power.mean_p_w <= 0 or delta <= 0:
        rfi = float("-inf")
    else:
        rfi = float(10.0 * np.log10(power.mean_p_w) + 10.0 * np.log10(delta)
                    + net_gain_db + 10.0 * np.log10(n_footprint))
    return rfi + calibration_db


def _bits(values) -> list:
    # Each float's bytes; every NaN reads alike, since its payload is never reported.
    return ["nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


def _branch(power, delta, n_footprint) -> str:
    if power.degenerate:
        return "degenerate"
    if power.mean_p_w == 0:
        return "no power"
    if delta == 0:
        return "no leakage"
    return "no emitters" if n_footprint == 0 else "finite"


def test_composed_rfi_is_the_scalar_sum_bitwise_in_every_branch(monkeypatch, counties,
                                                                 catalog):
    # Land areas 100 times the bundled ones leave B5's 2030 footprints empty.
    sparse = [replace(county, land_area_km2=100 * county.land_area_km2) for county in counties]
    cfg = ScenarioConfig(trials=5, seed=1, calibration_db=0.9)
    years, guards, rates = (2030, 2040), (10.0, 25.0, 40.0), (0, 100, 500)
    # No leakage reaches B5's window at the 40 MHz guard.
    band = replace(cfg, guard_mhz=40.0).tn_band_ghz
    b5_window = worst_victim_window(catalog["B5"].channel_span_ghz, cfg.ref_bandwidth_mhz, band)
    integrate = scenario.leakage_fraction
    monkeypatch.setattr(scenario, "leakage_fraction", lambda spec, window, bw: (
        0.0 if (spec.passband_low_ghz, window) == (band[0], b5_window)
        else integrate(spec, window, bw)))
    cache = {(25.0, 500): scenario.MeanPowerResult(mean_p_w=float("nan"), infeasibility_rate=1.0,
                                                   n_feasible=0, n_unconverged=0)}
    grid = scenario._grid(cfg, years, guards, rates, counties=sparse, catalog=catalog,
                          power_cache=cache)
    reports = rfi_grid(cfg, years, guards, rates, counties=sparse, power_cache=cache)
    branches = collections.Counter()
    for g, (guard, geometry) in enumerate(zip(guards, grid.geometries)):
        for y, (year, footprints) in enumerate(zip(years, grid.footprints[g])):
            for r, rate in enumerate(rates):
                power = cache[(guard, rate)]
                inputs = list(zip(geometry.delta, list(geometry.net_gain_db),
                                  (n_fp for _, n_fp in footprints.worst)))
                expected = [_scalar_rfi(power, delta, gain, n_fp, cfg.calibration_db)
                            for delta, gain, n_fp in inputs]
                branches.update(_branch(power, delta, n_fp) for delta, _, n_fp in inputs)
                assert _bits(grid.rfi[g, y, r].tolist()) == _bits(expected)
                point = replace(cfg, year=year, guard_mhz=guard, rate_bps=rate * 1e6)
                one = simulate(point, counties=sparse, catalog=catalog, power=power)
                for report in (reports[(year, guard, rate)], one):
                    assert _bits(row.rfi_dbw for row in report.rows) == _bits(expected)
                    assert _bits(row.margin_db for row in report.rows) == _bits(
                        cfg.threshold_dbw - rfi for rfi in expected)
                    worst = max(report.rows, key=lambda row: (
                        row.rfi_dbw if not math.isnan(row.rfi_dbw) else -math.inf))
                    assert report.worst_sensor_id == worst.sensor_id
    assert set(branches) == {"degenerate", "no power", "no leakage", "no emitters", "finite"}
    assert scenario._max_rates(grid, cfg.threshold_dbw) == _max_rates_of_reports(
        reports, cfg.threshold_dbw)


def test_composed_rfi_of_many_terms_is_the_scalar_sum_bitwise():
    # Seeded powers, fractions, gains and counts over their ranges in the
    # sweeps, as (point, sensor) arrays like the grid's.
    rng = np.random.default_rng(0)
    powers = 10.0 ** rng.uniform(-6, 0, 400)
    deltas = 10.0 ** rng.uniform(-12, -1, (400, 5))
    gains = rng.uniform(-140, -120, (400, 5))
    counts = rng.integers(1, 100000, (400, 5))
    composed = scenario._rfi_dbw(
        np.array([scenario._db(p) for p in powers])[:, None],
        np.array([[scenario._db(d) for d in row] for row in deltas]), gains,
        np.array([[scenario._db(n) for n in row] for row in counts]), 0.9)
    power = [scenario.MeanPowerResult(float(p), 0.0, 1, 0) for p in powers]
    expected = [[_scalar_rfi(power[i], float(deltas[i, s]), float(gains[i, s]), int(counts[i, s]),
                             0.9) for s in range(5)] for i in range(400)]
    assert _bits(composed.ravel().tolist()) == _bits(np.ravel(expected).tolist())
    # math.log10 differs from numpy's log10 in the last bit of some of these values.
    values = [*powers.tolist(), *deltas.ravel().tolist(), *counts.ravel().tolist()]
    assert any(10.0 * math.log10(v) != scenario._db(v) for v in values)


def _assert_rows_print_the_terms_their_rfi_sums(reports):
    """Each row's `rfi_dbw` is, bit for bit, its printed dB terms and the
    calibration summed left to right, as the composition sums them, and its
    `delta_db` is `_db` of its `delta`."""
    for report in reports:
        calibration_db = report.config["calibration_db"]
        assert _bits(row.rfi_dbw for row in report.rows) == _bits(
            (((row.mean_p_tx_dbw + row.delta_db) + row.net_gain_db)
             + scenario._db(row.n_footprint)) + calibration_db for row in report.rows)
        assert _bits(row.delta_db for row in report.rows) == _bits(
            scenario._db(row.delta) for row in report.rows)


def test_compose_grid_rows_print_the_terms_their_rfi_sums(counties):
    # The benchmark's compose-grid points at seed 7: 495 simulate points over
    # a 4-trial power table of 11 guards x 5 rates, and the rfi_grid reports
    # over the same table.  Three of its batches have a mean power whose
    # math.log10 is one ulp off numpy's log10.
    cfg = ScenarioConfig(seed=7, trials=4)
    guards, rates = scenario.GUARD_GRID_MHZ, scenario.RATE_GRID_MBPS
    table = {}
    grid = rfi_grid(cfg, scenario.CANONICAL_YEARS, guards, rates, counties=counties,
                    power_cache=table)
    points = [simulate(replace(cfg, year=year, adoption_factor=factor, guard_mhz=float(guard),
                               rate_bps=rate * 1e6), counties=counties, power=table[(guard, rate)])
              for year in scenario.CANONICAL_YEARS for factor in (0.5, 1.0, 1.5)
              for guard in guards for rate in rates]
    assert len(points) == 495
    _assert_rows_print_the_terms_their_rfi_sums([*grid.values(), *points])


def test_simulate_rows_print_the_terms_their_rfi_sums(counties):
    point = ScenarioConfig(year=2040, rate_bps=500e6, trials=200)
    degenerate = scenario.MeanPowerResult(mean_p_w=math.nan, infeasibility_rate=1.0,
                                          n_feasible=0, n_unconverged=0)
    reports = [simulate(replace(point, seed=seed), counties=counties) for seed in (0, 7)]
    # B5's δ at order 5 and guard 10 is where math.log10 and numpy's log10
    # differ in the last bit; the calibration is the sum's last term.
    reports.append(simulate(replace(point, trials=4, filter_order=5, guard_mhz=10.0,
                                    calibration_db=0.9), counties=counties))
    zero = simulate(replace(point, trials=4, rate_bps=0.0), counties=counties)
    nan = simulate(point, counties=counties, power=degenerate)
    assert all(row.mean_p_tx_dbw == row.rfi_dbw == -math.inf for row in zero.rows)
    assert all(math.isnan(row.mean_p_tx_dbw) and math.isnan(row.rfi_dbw) for row in nan.rows)
    _assert_rows_print_the_terms_their_rfi_sums([*reports, zero, nan])


@pytest.mark.parametrize("row", [
    [-170.0, -165.0, -165.0, -168.0],
    [float("nan"), float("nan"), float("nan")],
    [float("-inf"), float("-inf")],
    [float("nan"), float("-inf"), float("nan")],
    [float("-inf"), float("nan"), -171.0, -171.0],
    [float("nan"), -170.0, float("nan"), -170.0],
])
def test_worst_sensor_is_the_first_maximum_with_nan_as_minus_inf(row):
    def first_max(values):
        return max(range(len(values)),
                   key=lambda i: -math.inf if math.isnan(values[i]) else values[i])

    assert scenario._worst(np.array(row)) == first_max(row)
    stack = np.array([row, row[::-1]])
    assert scenario._worst(stack).tolist() == [first_max(row), first_max(row[::-1])]


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("mean_p_w, delta_db, count_db", [
    (1.0, (-170.0, -165.0, -165.0, -168.0), (0.0, 0.0, 0.0, 0.0)),  # a tie: the first wins
    (1.0, (_NAN, -170.0, _NAN, -169.0), (0.0, 0.0, 0.0, 0.0)),      # NaN among finite values
    (_NAN, (-170.0, -165.0, -168.0), (0.0, 0.0, 0.0)),             # all NaN: a degenerate batch
    (1.0, (-170.0, -165.0, -168.0), (-_INF, -_INF, -_INF)),        # all -inf: no emitters
])
def test_report_worst_sensor_is_the_worst_of_its_rfi_array(mean_p_w, delta_db, count_db):
    n = len(delta_db)
    ids = tuple(f"S{i}" for i in range(n))
    geometry = scenario._Geometry(sensor_ids=ids, delta=(1e-9,) * n, delta_db=delta_db,
                                  net_gain_db=(-140.0,) * n, p_max_w=1.0)
    county = CountyRecord(fips="02020", name="Anchorage", state="AK", rucc_code=1,
                          population=1, land_area_km2=1.0)
    footprints = scenario._Footprints(worst=((county, 1),) * n, count_db=count_db)
    power = scenario.MeanPowerResult(mean_p_w=mean_p_w, infeasibility_rate=0.0,
                                     n_feasible=0 if math.isnan(mean_p_w) else 1,
                                     n_unconverged=0)
    header = {**vars(ScenarioConfig(calibration_db=0.9)), "penetration_per_100": 1.0}
    report = scenario._report(header, geometry, footprints, power)
    rfi = scenario._rfi_dbw(power.mean_p_tx_dbw, np.array(delta_db), np.array((-140.0,) * n),
                            np.array(count_db), 0.9)
    assert _bits(row.rfi_dbw for row in report.rows) == _bits(rfi.tolist())
    assert _bits(row.margin_db for row in report.rows) == _bits((-166.0 - rfi).tolist())
    assert report.worst_sensor_id == ids[scenario._worst(rfi)]


def test_cached_db_terms_and_report_figures_are_builtin_floats(counties):
    # A numpy scalar among the cached terms would put numpy calls back on
    # every report row; both gain paths are checked.
    cfg = ScenarioConfig(trials=2)
    for point in (cfg, replace(cfg, use_published_gain=False, guard_mhz=10.0)):
        grid = scenario._grid(point, [2030, 2040], [point.guard_mhz], [0, 100],
                              counties=counties)
        terms = [*grid.geometries[0].delta_db, *grid.geometries[0].net_gain_db,
                 *(term for entry in grid.footprints[0] for term in entry.count_db)]
        assert terms and all(type(term) is float for term in terms)
        assert all(type(power.mean_p_tx_dbw) is float for power in grid.powers[0])
        report = simulate(point, counties=counties, power=grid.powers[0][1])
        assert all(type(getattr(row, name)) is float for row in report.rows
                   for name in ("delta_db", "net_gain_db", "mean_p_tx_dbw", "rfi_dbw",
                                "margin_db"))


def _max_rates_of_reports(grid: dict, threshold_dbw: float) -> dict:
    """Largest rate per (year, guard) at which a report's worst sensor complies; 0 if none."""
    best = {}
    for (year, guard, rate), report in grid.items():
        complies = _compliant(report.row(report.worst_sensor_id).rfi_dbw, threshold_dbw)
        best[(year, guard)] = max(best.get((year, guard), 0), rate if complies else 0)
    return best


@pytest.mark.parametrize("seed, years, guards", [
    *((seed, scenario.CANONICAL_YEARS, scenario.GUARD_GRID_MHZ) for seed in range(6)),
    (0, (2030, 2040), cli._guard_grid("10:30:2.5")),
])
def test_sweep_is_the_max_rate_of_the_grid_reports(counties, seed, years, guards):
    cfg = ScenarioConfig(trials=20, seed=seed)
    reports = rfi_grid(cfg, years, guards, scenario.RATE_GRID_MBPS, counties=counties)
    best = _max_rates_of_reports(reports, cfg.threshold_dbw)
    rows = sweep_guard_bands(cfg, years=years, guards_mhz=guards, counties=counties)
    assert rows == [GuardSweepRow(year=year, guard_mhz=float(guard),
                                  max_rate_mbps=best[(year, guard)])
                    for year in years for guard in guards]


def test_sweep_builds_no_report_and_no_config_per_point(monkeypatch, counties):
    counts = _count_calls(monkeypatch, ("simulate", "RfiReport", "replace"))
    sweep_guard_bands(ScenarioConfig(trials=5, seed=1), years=GRID_YEARS,
                      guards_mhz=GRID_GUARDS, counties=counties)
    # One checked config per distinct year, guard and rate.
    assert counts == {"simulate": 0, "RfiReport": 0,
                      "replace": len(GRID_YEARS) + len(GRID_GUARDS) + len(scenario.RATE_GRID_MBPS)}


def test_warm_footprint_lookup_hashes_two_county_records(monkeypatch, counties):
    cfg = ScenarioConfig(trials=5, seed=1)
    power = mean_bs_power(cfg, CellConfig(), UNCAPPED)
    simulate(cfg, counties=counties, power=power)
    hashed = []
    record_hash = CountyRecord.__hash__
    monkeypatch.setattr(CountyRecord, "__hash__",
                        lambda record: hashed.append(record) or record_hash(record))
    simulate(cfg, counties=counties, power=power)
    assert len(counties) > 2 and len(hashed) == 2


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


def test_leakage_table_integrates_each_distinct_window_once(monkeypatch, catalog):
    # B1, B3, B4 and B7 share one victim window, so 2 x 4 orders x 11 guards.
    counts = _count_calls(monkeypatch, ("leakage_fraction",))
    cfg = ScenarioConfig()
    rows = leakage_table(cfg, scenario.LEAKAGE_ORDERS, scenario.GUARD_GRID_MHZ)
    assert counts == {"leakage_fraction": 2 * 4 * 11}
    assert len(rows) == 5 * 4 * 11
    deltas = {(order, float(guard)): _restated_geometry(
                  replace(cfg, guard_mhz=float(guard), filter_order=order), catalog)[0]
              for order in scenario.LEAKAGE_ORDERS for guard in scenario.GUARD_GRID_MHZ}
    for row in rows:
        assert row["delta"] == deltas[(row["order"], row["guard_mhz"])][row["sensor_id"]], row


def test_leakage_table_rows_carry_the_delta_of_every_rfi_report(counties, clear_scenario_caches):
    cfg = ScenarioConfig(trials=4)
    rows = leakage_table(cfg, scenario.LEAKAGE_ORDERS, scenario.GUARD_GRID_MHZ)
    clear_scenario_caches()
    power = scenario.MeanPowerResult(mean_p_w=1.0, infeasibility_rate=0.0,
                                     n_feasible=4, n_unconverged=0)
    reports = {(order, float(guard)): simulate(replace(cfg, guard_mhz=float(guard),
                                                       filter_order=order),
                                               counties=counties, power=power)
               for order in scenario.LEAKAGE_ORDERS for guard in scenario.GUARD_GRID_MHZ}
    for row in rows:
        reported = reports[(row["order"], row["guard_mhz"])].row(row["sensor_id"])
        assert struct.pack("<d", row["delta"]) == struct.pack("<d", reported.delta), row
        assert row["delta_db"] == scenario._db(reported.delta), row
        assert struct.pack("<d", row["delta_db"]) == struct.pack("<d", reported.delta_db), row


def test_leakage_table_rows():
    rows = leakage_table(ScenarioConfig(sensor_ids=("B5",)), (5, 7), (0, 25))
    assert len(rows) == 4
    by_key = {(r["order"], r["guard_mhz"]): r["delta"] for r in rows}
    assert by_key[(7, 25.0)] < by_key[(7, 0.0)]
    assert by_key[(7, 25.0)] < by_key[(5, 25.0)]
    assert by_key[(7, 25.0)] == pytest.approx(3.397e-4, rel=2e-3)


def test_leakage_table_delta_db_is_numpy_log10_bitwise():
    # math.log10 differs from numpy's log10 in the last bit for some values,
    # which would move the table's full-precision JSON digits.
    rows = leakage_table(ScenarioConfig(), scenario.LEAKAGE_ORDERS, scenario.GUARD_GRID_MHZ)
    for row in rows:
        assert row["delta_db"] == float(10.0 * np.log10(row["delta"])), row


def test_leakage_table_zero_fraction_is_minus_inf_without_a_warning(monkeypatch):
    monkeypatch.setattr(scenario, "leakage_fraction", lambda *args: 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = leakage_table(ScenarioConfig(sensor_ids=("B5",)), (7,), (25,))
    assert rows[0]["delta"] == 0.0 and rows[0]["delta_db"] == float("-inf")


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


def test_emit_report_header_keeps_only_shared_keys(tmp_path, counties):
    power = scenario.MeanPowerResult(mean_p_w=1.0, infeasibility_rate=0.0,
                                     n_feasible=4, n_unconverged=0)
    reports = [simulate(ScenarioConfig(trials=4, guard_mhz=guard), counties=counties,
                        power=power) for guard in (0.0, 25.0)]
    header = json.loads(open(emit_report(reports, tmp_path)["json"]).read())["config"]
    for key in ("guard_mhz", "bandwidth_hz", "tn_band_ghz", "year", "rate_bps",
                "penetration_per_100"):
        assert key not in header
    assert header["trials"] == 4 and header["sensor_ids"] == list(scenario.SENSOR_IDS)
    single = json.loads(open(emit_report(reports[1], tmp_path / "one")["json"]).read())
    assert single["config"]["guard_mhz"] == 25.0


def test_emit_guard_sweep(tmp_path):
    rows = [GuardSweepRow(2030, 25.0, 500), GuardSweepRow(2040, 25.0, 300)]
    paths = emit_guard_sweep(rows, tmp_path, header={"trials": 10})
    lines = open(paths["csv"]).read().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "year,guard_mhz,max_rate_mbps"
    assert lines[2] == "2030,25.0,500"


def test_emit_leakage_table(tmp_path):
    rows = leakage_table(ScenarioConfig(sensor_ids=("B5", "B1")), (7,), (25,))
    paths = emit_rows(rows, tmp_path, "leakage")
    lines = open(paths["csv"]).read().strip().splitlines()
    assert lines[0] == "sensor_id,order,guard_mhz,delta,delta_db"
    assert len(lines) == 3
