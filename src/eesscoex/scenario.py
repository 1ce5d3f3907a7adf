"""End-to-end aggregate-RFI scenarios: Monte Carlo per-BS power, footprint
scaling, guard-band and rate sweeps.

One scenario evaluation composes, per sensor,

    RFI [dBW/ref-bw] = mean P_tx [dBW] + 10 log10(delta)
                       + net link gain [dB] + 10 log10(N_footprint)

with the mean transmit power taken over feasible Monte Carlo trials of
the minimum-power precoder, the leakage fraction from the filter design
at the configured guard band, the cataloged net link gain, and the
worst-case county footprint count.

Channel realizations depend only on the cell geometry, so sweeps share
one set of draws across rates, guards and years (common random numbers);
per-trial substreams come from (master seed, trial index), which keeps
serial and parallel runs byte-identical.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from .adoption import BASELINE_MODEL, scenario_penetration
from .airlink import CellConfig, generate_channel, noise_power_w, trial_rng
from .deployment import build_snapshot, load_bundled_counties, worst_case_footprint
from .filterbank import FilterSpec, leakage_fraction, worst_victim_window
from .linkbudget import load_sensor_catalog, net_gain_db
from .precoder import RfiBudget, SinrTargets, sinr_target, solve_power_min

__all__ = [
    "ALLOCATION_EDGE_GHZ",
    "BAND_TOP_GHZ",
    "RATE_GRID_MBPS",
    "CANONICAL_YEARS",
    "ScenarioConfig",
    "MeanPowerResult",
    "SensorRow",
    "RfiReport",
    "GuardSweepRow",
    "draw_channels",
    "mean_bs_power",
    "aggregate_rfi_dbw",
    "simulate",
    "simulate_grid",
    "max_feasible_rate",
    "sweep_guard_bands",
    "leakage_table",
]

ALLOCATION_EDGE_GHZ = 7.125
BAND_TOP_GHZ = 7.400
RATE_GRID_MBPS = (100, 200, 300, 400, 500)
CANONICAL_YEARS = (2030, 2035, 2040)
SENSOR_IDS = ("B1", "B3", "B4", "B5", "B7")


@dataclass(frozen=True)
class ScenarioConfig:
    """One grid point of the coexistence study plus shared model knobs."""

    year: int = 2030
    adoption_factor: float = 1.0
    guard_mhz: float = 25.0
    rate_bps: float = 100e6
    trials: int = 1000
    seed: int = 0
    sensor_ids: tuple = SENSOR_IDS
    threshold_dbw: float = -166.0       # per reference bandwidth
    ref_bandwidth_mhz: float = 200.0
    eta_bps_per_hz: float = 50.0
    max_demand_bps: float = 500e6       # peak per-user demand sizing the deployment
    filter_order: int = 7
    ripple_db: float = 0.2
    grid_step_mhz: float = 0.01
    p_bs_dbw: float = -5.0
    g_tx_db: float = -10.0
    use_published_gain: bool = True
    use_published_penetration: bool = True
    calibration_db: float = 0.0         # additive alignment of reported RFI

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not 0 <= self.guard_mhz <= 50:
            raise ValueError(f"guard band must lie in [0, 50] MHz, got {self.guard_mhz}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.rate_bps < 0 or self.max_demand_bps <= 0:
            raise ValueError("rates must be positive")
        if not self.sensor_ids:
            raise ValueError("empty sensor set")

    @property
    def tn_band_ghz(self) -> tuple:
        return (ALLOCATION_EDGE_GHZ + self.guard_mhz / 1e3, BAND_TOP_GHZ)

    @property
    def bandwidth_hz(self) -> float:
        return (BAND_TOP_GHZ - ALLOCATION_EDGE_GHZ) * 1e9 - self.guard_mhz * 1e6

    @property
    def filter_spec(self) -> FilterSpec:
        lo, hi = self.tn_band_ghz
        return FilterSpec(order=self.filter_order, ripple_db=self.ripple_db,
                          passband_low_ghz=lo, passband_high_ghz=hi,
                          grid_step_mhz=self.grid_step_mhz)

    @property
    def p_bs_w(self) -> float:
        return 10.0 ** (self.p_bs_dbw / 10.0)

    @property
    def i_sat_max_w(self) -> float:
        try:
            return 10.0 ** (self.threshold_dbw / 10.0)
        except OverflowError:
            return float("inf")

    def header(self, cell: CellConfig) -> dict:
        """Reproducibility header echoed into every report."""
        out = {k: v for k, v in asdict(self).items()}
        out["sensor_ids"] = list(self.sensor_ids)
        out["bandwidth_hz"] = self.bandwidth_hz
        out["tn_band_ghz"] = list(self.tn_band_ghz)
        out["n_antennas"] = cell.n_antennas
        out["n_users"] = cell.n_users
        out["noise_temp_k"] = cell.noise_temp_k
        out["carrier_ghz"] = cell.carrier_ghz
        out["distance_mode"] = cell.distance_mode
        out["adoption_b"] = [BASELINE_MODEL.b1, BASELINE_MODEL.b2, BASELINE_MODEL.b3]
        out["adoption_anchor"] = [BASELINE_MODEL.anchor_year,
                                  BASELINE_MODEL.anchor_penetration]
        return out


@dataclass(frozen=True)
class MeanPowerResult:
    mean_p_w: float
    infeasibility_rate: float
    n_feasible: int
    n_unconverged: int

    @property
    def degenerate(self) -> bool:
        return self.n_feasible == 0


@dataclass(frozen=True)
class SensorRow:
    sensor_id: str
    year: int
    rate_mbps: float
    guard_mhz: float
    adoption_factor: float
    n_footprint: int
    delta: float
    delta_db: float
    net_gain_db: float
    mean_p_tx_dbw: float
    rfi_dbw: float
    margin_db: float
    infeasibility_rate: float
    worst_county_fips: str
    worst_county_name: str


@dataclass
class RfiReport:
    config: dict
    rows: list
    worst_sensor_id: str = ""

    def row(self, sensor_id: str) -> SensorRow:
        for r in self.rows:
            if r.sensor_id == sensor_id:
                return r
        raise KeyError(sensor_id)


@dataclass(frozen=True)
class GuardSweepRow:
    year: int
    guard_mhz: float
    max_rate_mbps: int


def draw_channels(cell: CellConfig, seed: int, trials: int) -> list:
    """Per-trial channel realizations from deterministic substreams."""
    return [generate_channel(cell, trial_rng(seed, t)) for t in range(trials)]


def _solve_trial(channel, gammas: tuple, noise_w: float, budget: RfiBudget):
    targets = SinrTargets(gammas=gammas)
    sol = solve_power_min(channel.h, channel.g, targets, noise_w, budget=budget)
    return sol.p_tx_w, sol.feasible, sol.converged


def _solve_trial_range(args):
    cell, seed, lo, hi, gammas, noise_w, budget = args
    out = []
    for t in range(lo, hi):
        channel = generate_channel(cell, trial_rng(seed, t))
        out.append(_solve_trial(channel, gammas, noise_w, budget))
    return out


def mean_bs_power(cfg: ScenarioConfig, cell: CellConfig, budget: RfiBudget = None,
                  channels: list = None, n_jobs: int = 1) -> MeanPowerResult:
    """Mean minimum transmit power over feasible Monte Carlo trials.

    Deterministic given (seed, trials, cell): trial t always uses the
    substream (seed, t) and results are reduced in trial order, so the
    outcome is independent of `n_jobs`.  Precomputed `channels` (shared
    across sweep points) short-circuit the parallel path.
    """
    gamma = sinr_target(cfg.rate_bps, cfg.bandwidth_hz)
    gammas = (gamma,) * cell.n_users
    noise_w = noise_power_w(cell.noise_temp_k, cfg.bandwidth_hz)
    if channels is not None:
        if len(channels) < cfg.trials:
            raise ValueError(f"need {cfg.trials} precomputed channels, got {len(channels)}")
        results = [_solve_trial(channels[t], gammas, noise_w, budget)
                   for t in range(cfg.trials)]
    elif n_jobs <= 1:
        results = _solve_trial_range((cell, cfg.seed, 0, cfg.trials, gammas, noise_w, budget))
    else:
        bounds = np.linspace(0, cfg.trials, n_jobs + 1).astype(int)
        chunks = [(cell, cfg.seed, int(lo), int(hi), gammas, noise_w, budget)
                  for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = [item for chunk in pool.map(_solve_trial_range, chunks)
                       for item in chunk]

    powers = np.array([r[0] for r in results])
    feasible = np.array([r[1] for r in results], dtype=bool)
    converged = np.array([r[2] for r in results], dtype=bool)
    usable = feasible & converged
    n_feasible = int(np.count_nonzero(usable))
    mean_p = float(powers[usable].sum() / n_feasible) if n_feasible else float("nan")
    return MeanPowerResult(
        mean_p_w=mean_p,
        infeasibility_rate=1.0 - n_feasible / cfg.trials,
        n_feasible=n_feasible,
        n_unconverged=int(np.count_nonzero(~converged)),
    )


def aggregate_rfi_dbw(mean_p_tx_w: float, delta: float, net_gain_db: float,
                      n_footprint: int) -> float:
    """Aggregate received RFI in dBW per reference bandwidth.

    Returns -inf for an empty footprint ("no emitters").
    """
    if n_footprint < 0:
        raise ValueError("footprint count must be >= 0")
    if n_footprint == 0 or mean_p_tx_w <= 0 or delta <= 0:
        return float("-inf")
    return float(10.0 * np.log10(mean_p_tx_w) + 10.0 * np.log10(delta)
                 + net_gain_db + 10.0 * np.log10(n_footprint))


@dataclass(frozen=True)
class _SensorGeometry:
    """Per-sensor quantities that do not depend on rate or year."""

    sensor_id: str
    delta: float
    net_gain_db: float
    g_sat_linear: float
    footprint_area_km2: float


def _sensor_geometries(cfg: ScenarioConfig, catalog: dict) -> list:
    spec = cfg.filter_spec
    out = []
    for sid in cfg.sensor_ids:
        sensor = catalog[sid]
        window = worst_victim_window(sensor.channel_span_ghz, cfg.ref_bandwidth_mhz,
                                     cfg.tn_band_ghz)
        profile = leakage_fraction(spec, window, cfg.bandwidth_hz / 1e6)
        gain_db = net_gain_db(sensor, use_published=cfg.use_published_gain,
                              g_tx_db=cfg.g_tx_db)
        out.append(_SensorGeometry(
            sensor_id=sid,
            delta=profile.delta,
            net_gain_db=gain_db,
            g_sat_linear=10.0 ** (gain_db / 10.0),
            footprint_area_km2=sensor.footprint_area_km2,
        ))
    return out


def _budget_from_geometries(cfg: ScenarioConfig, geometries: list) -> RfiBudget:
    """Per-BS budget binding at the most tightly coupled sensor."""
    worst = max(geometries, key=lambda s: s.g_sat_linear * s.delta)
    return RfiBudget(p_bs_w=cfg.p_bs_w, i_sat_max_w=cfg.i_sat_max_w,
                     g_sat_linear=worst.g_sat_linear, delta=worst.delta)


def simulate(cfg: ScenarioConfig, cell: CellConfig = None, counties: list = None,
             channels: list = None, n_jobs: int = 1, catalog: dict = None,
             power: MeanPowerResult = None) -> RfiReport:
    """Aggregate RFI per sensor for one scenario grid point."""
    cell = cell if cell is not None else CellConfig()
    if counties is None:
        counties = load_bundled_counties().records
    if catalog is None:
        catalog = load_sensor_catalog()
    geometries = _sensor_geometries(cfg, catalog)
    if power is None:
        budget = _budget_from_geometries(cfg, geometries)
        power = mean_bs_power(cfg, cell, budget=budget, channels=channels, n_jobs=n_jobs)

    penetration = scenario_penetration(cfg.year, cfg.adoption_factor,
                                       use_published=cfg.use_published_penetration)
    snapshot = build_snapshot(counties, cfg.year, cfg.adoption_factor,
                              cfg.max_demand_bps, cfg.eta_bps_per_hz,
                              cfg.bandwidth_hz, penetration_per_100=penetration)

    rows = []
    for geom in geometries:
        sensor = catalog[geom.sensor_id]
        county, n_fp = worst_case_footprint(counties, snapshot, sensor)
        if power.degenerate:
            rfi = float("nan")
        else:
            rfi = aggregate_rfi_dbw(power.mean_p_w, geom.delta, geom.net_gain_db, n_fp)
            rfi += cfg.calibration_db
        rows.append(SensorRow(
            sensor_id=geom.sensor_id,
            year=cfg.year,
            rate_mbps=cfg.rate_bps / 1e6,
            guard_mhz=cfg.guard_mhz,
            adoption_factor=cfg.adoption_factor,
            n_footprint=n_fp,
            delta=geom.delta,
            delta_db=10.0 * math.log10(geom.delta) if geom.delta > 0 else float("-inf"),
            net_gain_db=geom.net_gain_db,
            mean_p_tx_dbw=(10.0 * math.log10(power.mean_p_w)
                           if power.mean_p_w and not math.isnan(power.mean_p_w)
                           else float("nan")),
            rfi_dbw=rfi,
            margin_db=cfg.threshold_dbw - rfi,
            infeasibility_rate=power.infeasibility_rate,
            worst_county_fips=county.fips,
            worst_county_name=county.name,
        ))
    worst = max(rows, key=lambda r: r.rfi_dbw if not math.isnan(r.rfi_dbw) else -math.inf)
    header = cfg.header(cell)
    header["penetration_per_100"] = penetration
    return RfiReport(config=header, rows=rows, worst_sensor_id=worst.sensor_id)


def simulate_grid(cfg: ScenarioConfig, years=CANONICAL_YEARS,
                  rates_mbps=RATE_GRID_MBPS, cell: CellConfig = None,
                  counties: list = None, channels: list = None,
                  n_jobs: int = 1) -> list:
    """Reports over a (year x rate) grid at fixed guard; shares channel draws."""
    cell = cell if cell is not None else CellConfig()
    if channels is None:
        channels = draw_channels(cell, cfg.seed, cfg.trials)
    catalog = load_sensor_catalog()
    if counties is None:
        counties = load_bundled_counties().records
    reports = []
    for year in years:
        for rate in rates_mbps:
            point = replace(cfg, year=year, rate_bps=rate * 1e6)
            reports.append(simulate(point, cell=cell, counties=counties,
                                    channels=channels, n_jobs=n_jobs, catalog=catalog))
    return reports


def _compliant(rfi_dbw: float, threshold_dbw: float) -> bool:
    # Compliance is decided at the 0.1 dB reporting precision of the
    # dBW-scale outputs; -inf (no emitters) is trivially compliant.
    if math.isinf(rfi_dbw) and rfi_dbw < 0:
        return True
    return round(rfi_dbw, 1) <= threshold_dbw + 1e-9


def max_feasible_rate(cfg: ScenarioConfig, rate_grid_mbps=RATE_GRID_MBPS,
                      cell: CellConfig = None, counties: list = None,
                      channels: list = None, n_jobs: int = 1,
                      catalog: dict = None, power_cache: dict = None) -> int:
    """Largest grid rate keeping the worst sensor at or under threshold; 0 if none.

    The Monte Carlo power batch depends on (guard, rate) only, so an
    optional `power_cache` shares batches across calls (e.g. across the
    years of a guard sweep).
    """
    cell = cell if cell is not None else CellConfig()
    if channels is None:
        channels = draw_channels(cell, cfg.seed, cfg.trials)
    if counties is None:
        counties = load_bundled_counties().records
    if catalog is None:
        catalog = load_sensor_catalog()
    best = 0
    for rate in sorted(rate_grid_mbps):
        point = replace(cfg, rate_bps=rate * 1e6)
        key = (point.guard_mhz, rate)
        power = power_cache.get(key) if power_cache is not None else None
        if power is None:
            budget = _budget_from_geometries(point, _sensor_geometries(point, catalog))
            power = mean_bs_power(point, cell, budget=budget, channels=channels,
                                  n_jobs=n_jobs)
            if power_cache is not None:
                power_cache[key] = power
        report = simulate(point, cell=cell, counties=counties, channels=channels,
                          n_jobs=n_jobs, catalog=catalog, power=power)
        worst_rfi = report.row(report.worst_sensor_id).rfi_dbw
        if _compliant(worst_rfi, cfg.threshold_dbw):
            best = rate
    return best


def sweep_guard_bands(cfg: ScenarioConfig, years=CANONICAL_YEARS,
                      guards_mhz=tuple(range(0, 55, 5)),
                      rate_grid_mbps=RATE_GRID_MBPS, cell: CellConfig = None,
                      counties: list = None, n_jobs: int = 1) -> list:
    """Max feasible rate per (year, guard); wider guards shrink both the
    leakage fraction and the usable bandwidth (raising BS counts)."""
    cell = cell if cell is not None else CellConfig()
    channels = draw_channels(cell, cfg.seed, cfg.trials)
    counties = counties if counties is not None else load_bundled_counties().records
    catalog = load_sensor_catalog()
    power_cache = {}
    rows = []
    for year in years:
        for guard in guards_mhz:
            point = replace(cfg, year=year, guard_mhz=float(guard))
            rate = max_feasible_rate(point, rate_grid_mbps=rate_grid_mbps, cell=cell,
                                     counties=counties, channels=channels,
                                     n_jobs=n_jobs, catalog=catalog,
                                     power_cache=power_cache)
            rows.append(GuardSweepRow(year=year, guard_mhz=float(guard),
                                      max_rate_mbps=rate))
    return rows


def leakage_table(orders=(3, 5, 7, 9), guards_mhz=tuple(range(0, 55, 5)),
                  sensor_ids=SENSOR_IDS, ripple_db: float = 0.2,
                  grid_step_mhz: float = 0.01, ref_bandwidth_mhz: float = 200.0) -> list:
    """Leakage fractions across filter orders and guard widths, per sensor.

    Each fraction is normalized by the passband width `spec.bandwidth_mhz`;
    `cfg.bandwidth_hz / 1e6` is the same width but differs in the last bits,
    which would change the table's digits.
    """
    catalog = load_sensor_catalog()
    rows = []
    for sid in sensor_ids:
        sensor = catalog[sid]
        for order in orders:
            for guard in guards_mhz:
                cfg = ScenarioConfig(guard_mhz=guard, filter_order=order, ripple_db=ripple_db,
                                     grid_step_mhz=grid_step_mhz,
                                     ref_bandwidth_mhz=ref_bandwidth_mhz)
                spec = cfg.filter_spec
                window = worst_victim_window(sensor.channel_span_ghz,
                                             cfg.ref_bandwidth_mhz, cfg.tn_band_ghz)
                profile = leakage_fraction(spec, window, spec.bandwidth_mhz)
                rows.append({
                    "sensor_id": sid,
                    "order": order,
                    "guard_mhz": float(guard),
                    "delta": profile.delta,
                    "delta_db": profile.delta_db,
                })
    return rows
