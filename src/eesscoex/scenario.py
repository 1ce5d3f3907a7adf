"""End-to-end aggregate-RFI scenarios: Monte Carlo per-BS power, footprint
scaling, guard-band and rate sweeps.

One scenario evaluation composes, per sensor,

    RFI [dBW/ref-bw] = mean P_tx [dBW] + 10 log10(delta)
                       + net link gain [dB] + 10 log10(N_footprint)

with the mean transmit power taken over feasible Monte Carlo trials of
the minimum-power precoder, the leakage fraction from the filter design
at the configured guard band, the cataloged net link gain, and the
worst-case county footprint count.

`rfi_grid` is the one sweep path; `max_feasible_rate` and
`sweep_guard_bands` read their answers off it.  A channel is held only as its
effective Gram matrix, all the power solve needs, drawn from the substream
(master seed, trial); `mean_bs_power` is the one power path over such a stack,
and the grid shares one stack across rates, guards and years.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from .adoption import BASELINE_MODEL, scenario_penetration
from .airlink import CellConfig, generate_channel, noise_power_w, trial_rng
from .deployment import build_snapshot, load_bundled_counties, worst_case_footprint
from .filterbank import FilterSpec, leakage_fraction, worst_victim_window
from .linkbudget import load_sensor_catalog, lookup_sensor, net_gain_db
from .precoder import RfiBudget, _solve_gram, sinr_target

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
    "rfi_grid",
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


def _gram(channel) -> np.ndarray:
    h_eff = channel.h * np.sqrt(channel.g)[:, None]
    return h_eff.conj() @ h_eff.T  # G[k, j] = h_k^H h_j, effective channels


def draw_channels(cell: CellConfig, seed: int, trials: int) -> np.ndarray:
    """(trials, K, K) stack of effective-channel Gram matrices, one per trial
    substream; each (K, N) draw is dropped as soon as it is reduced."""
    return np.array([_gram(generate_channel(cell, trial_rng(seed, t))) for t in range(trials)])


def _solve_block(args) -> list:
    grams, gammas, noise_w, p_max_w = args
    # (p_tx_w, feasible, converged) per trial
    return [_solve_gram(gram, gammas, noise_w, p_max_w)[:3] for gram in grams]


def mean_bs_power(cfg: ScenarioConfig, cell: CellConfig, budget: RfiBudget = None,
                  channels: np.ndarray = None, n_jobs: int = 1) -> MeanPowerResult:
    """Mean minimum transmit power over the feasible trials of `channels` (a
    `draw_channels` stack, drawn here if absent), solved in min(n_jobs, trials)
    blocks, in process or over worker processes, and reduced in trial order,
    so the outcome is independent of `n_jobs`."""
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if channels is not None and len(channels) < cfg.trials:
        raise ValueError(f"need {cfg.trials} precomputed channels, got {len(channels)}")
    gamma = sinr_target(cfg.rate_bps, cfg.bandwidth_hz)
    if gamma == 0:
        return MeanPowerResult(mean_p_w=0.0, infeasibility_rate=0.0,
                               n_feasible=cfg.trials, n_unconverged=0)
    grams = draw_channels(cell, cfg.seed, cfg.trials) if channels is None else channels
    shared = (np.full(cell.n_users, gamma), noise_power_w(cell.noise_temp_k, cfg.bandwidth_hz),
              budget.p_sum_max_w if budget is not None else math.inf)
    blocks = [(block, *shared) for block in np.array_split(grams[:cfg.trials],
                                                          min(n_jobs, cfg.trials))]
    if len(blocks) == 1:
        trials = _solve_block(blocks[0])
    else:
        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            trials = [trial for block in pool.map(_solve_block, blocks) for trial in block]
    powers, feasible, converged = (np.array(column) for column in zip(*trials))
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


def _sensor_geometries(cfg: ScenarioConfig, catalog: dict) -> tuple:
    """Per-sensor geometry at the config's guard, and the per-BS budget
    binding at the most tightly coupled sensor."""
    spec = cfg.filter_spec
    out = []
    for sid in cfg.sensor_ids:
        sensor = lookup_sensor(catalog, sid)
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
        ))
    worst = max(out, key=lambda s: s.g_sat_linear * s.delta)
    return out, RfiBudget(p_bs_w=cfg.p_bs_w, i_sat_max_w=cfg.i_sat_max_w,
                          g_sat_linear=worst.g_sat_linear, delta=worst.delta)


def _inputs(cell: CellConfig, counties: list, catalog: dict) -> tuple:
    """The given cell, counties and catalog, or the default cell and bundled data."""
    return (cell if cell is not None else CellConfig(),
            counties if counties is not None else load_bundled_counties().records,
            catalog if catalog is not None else load_sensor_catalog())


def _footprints(cfg: ScenarioConfig, counties: list, catalog: dict):
    """Penetration and each sensor's worst-case (county, BS count); rate-free."""
    penetration = scenario_penetration(cfg.year, cfg.adoption_factor,
                                       use_published=cfg.use_published_penetration)
    snapshot = build_snapshot(counties, cfg.year, cfg.adoption_factor,
                              cfg.max_demand_bps, cfg.eta_bps_per_hz,
                              cfg.bandwidth_hz, penetration_per_100=penetration)
    footprints = [worst_case_footprint(counties, snapshot, catalog[sid])
                  for sid in cfg.sensor_ids]
    return penetration, footprints


def _compose_report(cfg: ScenarioConfig, cell: CellConfig, geometries: list,
                    power: MeanPowerResult, penetration: float, footprints: list) -> RfiReport:
    """One grid point's report from its power batch, geometry and footprints."""
    rows = []
    for geom, (county, n_fp) in zip(geometries, footprints):
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
            mean_p_tx_dbw=(float("nan") if power.degenerate
                           else 10.0 * math.log10(power.mean_p_w) if power.mean_p_w
                           else float("-inf")),
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


def simulate(cfg: ScenarioConfig, cell: CellConfig = None, counties: list = None,
             n_jobs: int = 1, catalog: dict = None, power: MeanPowerResult = None) -> RfiReport:
    """Aggregate RFI per sensor for one scenario grid point; without a
    `power` batch, one is run over `n_jobs` worker processes."""
    cell, counties, catalog = _inputs(cell, counties, catalog)
    geometries, budget = _sensor_geometries(cfg, catalog)
    if power is None:
        power = mean_bs_power(cfg, cell, budget=budget, n_jobs=n_jobs)
    return _compose_report(cfg, cell, geometries, power,
                           *_footprints(cfg, counties, catalog))


def rfi_grid(cfg: ScenarioConfig, years, guards_mhz, rates_mbps, *,
             cell: CellConfig = None, counties: list = None, catalog: dict = None,
             channels: list = None, power_cache: dict = None) -> dict:
    """Reports keyed (year, guard, rate).  Geometry and RFI budget are computed
    per guard, deployment footprints per (year, guard), and one power batch per
    (guard, rate) over shared channel draws, read from or filled into `power_cache`."""
    cell, counties, catalog = _inputs(cell, counties, catalog)
    power_cache = {} if power_cache is None else power_cache
    grid = {}
    for guard in guards_mhz:
        at_guard = replace(cfg, guard_mhz=float(guard))
        geometries, budget = _sensor_geometries(at_guard, catalog)
        for year in years:
            deployment = _footprints(replace(at_guard, year=year), counties, catalog)
            for rate in rates_mbps:
                point = replace(at_guard, year=year, rate_bps=rate * 1e6)
                if (guard, rate) not in power_cache:
                    if channels is None:
                        channels = draw_channels(cell, cfg.seed, cfg.trials)
                    power_cache[(guard, rate)] = mean_bs_power(point, cell, budget=budget,
                                                               channels=channels)
                grid[(year, guard, rate)] = _compose_report(
                    point, cell, geometries, power_cache[(guard, rate)], *deployment)
    return grid


def _compliant(rfi_dbw: float, threshold_dbw: float) -> bool:
    # Compliance is decided at the 0.1 dB reporting precision of the
    # dBW-scale outputs; -inf (no emitters) is trivially compliant.
    if math.isinf(rfi_dbw) and rfi_dbw < 0:
        return True
    return round(rfi_dbw, 1) <= threshold_dbw + 1e-9


def _max_rates(grid: dict, threshold_dbw: float) -> dict:
    """Largest grid rate per (year, guard) at which the worst sensor complies; 0 if none."""
    best = {}
    for (year, guard, rate), report in grid.items():
        complies = _compliant(report.row(report.worst_sensor_id).rfi_dbw, threshold_dbw)
        best[(year, guard)] = max(best.get((year, guard), 0), rate if complies else 0)
    return best


def max_feasible_rate(cfg: ScenarioConfig, rate_grid_mbps=RATE_GRID_MBPS,
                      cell: CellConfig = None, counties: list = None,
                      channels: list = None, catalog: dict = None,
                      power_cache: dict = None) -> int:
    """Largest grid rate keeping the worst sensor at or under threshold; 0 if
    none.  A `power_cache` shares power batches across calls, as in `rfi_grid`."""
    grid = rfi_grid(cfg, [cfg.year], [cfg.guard_mhz], rate_grid_mbps, cell=cell,
                    counties=counties, catalog=catalog, channels=channels,
                    power_cache=power_cache)
    return _max_rates(grid, cfg.threshold_dbw).get((cfg.year, cfg.guard_mhz), 0)


def sweep_guard_bands(cfg: ScenarioConfig, years=CANONICAL_YEARS,
                      guards_mhz=tuple(range(0, 55, 5)),
                      rate_grid_mbps=RATE_GRID_MBPS, cell: CellConfig = None,
                      counties: list = None) -> list:
    """Max feasible rate per (year, guard); wider guards shrink both the
    leakage fraction and the usable bandwidth (raising BS counts)."""
    grid = rfi_grid(cfg, years, guards_mhz, rate_grid_mbps, cell=cell, counties=counties)
    best = _max_rates(grid, cfg.threshold_dbw)
    return [GuardSweepRow(year=year, guard_mhz=float(guard),
                          max_rate_mbps=best.get((year, guard), 0))
            for year in years for guard in guards_mhz]


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
        sensor = lookup_sensor(catalog, sid)
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
