"""End-to-end aggregate-RFI scenarios: Monte Carlo per-BS power, footprint
scaling, guard-band and rate sweeps.

One scenario evaluation composes, per sensor,

    RFI [dBW/ref-bw] = mean P_tx [dBW] + 10 log10(delta)
                       + net link gain [dB] + 10 log10(N_footprint)

with the mean transmit power taken over feasible Monte Carlo trials of
the minimum-power precoder, the leakage fraction from the filter design
at the configured guard band, the cataloged net link gain, and the
worst-case county footprint count.

Each sensor's RFI at a (year, guard, rate) point is one sum, by `_rfi_dbw`
left to right, of dB terms held as Python floats, each `_db` (numpy's
10 log10) taken once per distinct value: a power term per (guard, rate), a
leakage and a gain term per (guard, sensor) and a footprint term per (year,
guard, sensor).  A report, of `simulate` or of `rfi_grid`, prints each row's
sum and the very terms it sums; the sweep verdicts of `max_feasible_rate` and
`sweep_guard_bands` are decided from the same sums, without building a report
or a config per point.  A channel is held only as its effective Gram matrix,
all the power solve needs, drawn from the substream (master seed, trial).
One power path serves every batch: it inverts such a stack once and solves
the trials of all its batches in stacked precoder calls, packing whole
batches up to a fixed number of problems a call.  `mean_bs_power` is its
one-batch case; the grid sends every (guard, rate) batch it lacks
through it at once, over one stack shared across rates, guards and years.
Two per-process caches, keyed by value, hold the rate-free inputs: sensor
geometry and power cap once for each distinct set of sensor specs and guard
settings (integrating each distinct victim window's leakage once), and
worst-case footprints once for each distinct county set, sensor specs,
penetration and demand sizing; each also holds its values' dB terms.  Each
cache is bounded and holds immutable values, so reports are unchanged by
which points ran before.
"""

import functools
import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .adoption import BASELINE_MODEL, scenario_penetration
from ._fields import bounded, check_fields
from .airlink import CellConfig, draw_channels, noise_power_w
from .deployment import build_snapshot, load_bundled_counties, worst_case_footprint
from .filterbank import FilterSpec, leakage_fraction, worst_victim_window
from .linkbudget import DEFAULT_G_TX_DB, load_sensor_catalog, lookup_sensor, net_gain_db
from .precoder import _solve_grams, sinr_target

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
GUARD_GRID_MHZ = tuple(range(0, 55, 5))
LEAKAGE_ORDERS = (3, 5, 7, 9)
SENSOR_IDS = ("B1", "B3", "B4", "B5", "B7")


@dataclass(frozen=True)
class ScenarioConfig:
    """One grid point of the coexistence study plus shared model knobs."""

    year: int = bounded(2030, ge=2025, le=2100)
    adoption_factor: float = bounded(1.0, gt=0)
    guard_mhz: float = bounded(25.0, ge=0, le=50)
    # The upper bounds keep derived quantities in range: 10 Gbps over the
    # 225-275 MHz band already needs an SINR of 2^45, BS counts (demand over
    # spectral efficiency) must stay int64, and dB values become watts.
    rate_bps: float = bounded(100e6, ge=0, le=10e9)
    trials: int = bounded(1000, ge=1)
    seed: int = bounded(0, ge=0)
    sensor_ids: tuple[str, ...] = SENSOR_IDS
    threshold_dbw: float = -166.0       # per reference bandwidth
    ref_bandwidth_mhz: float = bounded(200.0, gt=0)
    eta_bps_per_hz: float = bounded(50.0, ge=0.01)
    max_demand_bps: float = bounded(500e6, gt=0, le=10e9)  # per-user demand sizing the deployment
    filter_order: int = 7
    ripple_db: float = 0.2
    p_bs_dbw: float = bounded(-5.0, ge=-100, le=100)
    g_tx_db: float = bounded(DEFAULT_G_TX_DB, ge=-100, le=100)
    use_published_gain: bool = True
    use_published_penetration: bool = True
    calibration_db: float = 0.0         # additive alignment of reported RFI

    def __post_init__(self):
        check_fields(self)
        if not self.sensor_ids:
            raise ValueError("empty sensor set")
        if len(set(self.sensor_ids)) < len(self.sensor_ids):
            raise ValueError(f"'sensor_ids' must not repeat an id, got {list(self.sensor_ids)}")
        self.filter_spec  # order and ripple are checked here, for every command

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
                          passband_low_ghz=lo, passband_high_ghz=hi)

    @property
    def penetration_per_100(self) -> float:
        return scenario_penetration(self.year, self.adoption_factor,
                                    use_published=self.use_published_penetration)

    def header(self, cell: CellConfig) -> dict:
        """Reproducibility header echoed into every report: every scenario and
        cell field, plus the quantities derived from them."""
        out = {**vars(self), **vars(cell)}
        out["sensor_ids"] = list(self.sensor_ids)
        out["bandwidth_hz"] = self.bandwidth_hz
        out["tn_band_ghz"] = list(self.tn_band_ghz)
        out["adoption_b"] = [BASELINE_MODEL.b1, BASELINE_MODEL.b2, BASELINE_MODEL.b3]
        out["adoption_anchor"] = [BASELINE_MODEL.anchor_year,
                                  BASELINE_MODEL.anchor_penetration]
        return out


@dataclass(frozen=True)
class MeanPowerResult:
    """A power batch's mean power over its feasible trials, and its failure counts."""

    mean_p_w: float
    infeasibility_rate: float
    n_feasible: int
    n_unconverged: int

    @property
    def degenerate(self) -> bool:
        return self.n_feasible == 0

    @functools.cached_property
    def mean_p_tx_dbw(self) -> float:
        """The batch's RFI term, taken once: NaN if degenerate, else `_db` of the mean."""
        return math.nan if self.degenerate else _db(self.mean_p_w)


@dataclass
class SensorRow:
    """One sensor's line of a report, in column order.  A plain record, as
    `RfiReport` is: each report builds its rows fresh, positionally, and
    nothing hashes or caches them."""

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


# Whole power batches are packed into kernel calls of at most this many
# problems; a batch of at least as many trials keeps a call of its own.
_CALL_PROBLEMS = 128


def _power_batch(rate_bps: float, bandwidth_hz: float, cell: CellConfig,
                 p_max_w: float) -> tuple:
    """The kernel's per-problem (gamma, noise_w, p_max_w) at a rate and a guard's bandwidth."""
    return (sinr_target(rate_bps, bandwidth_hz), noise_power_w(cell.noise_temp_k, bandwidth_hz),
            p_max_w)


def _solve_block(args) -> tuple:
    # (p_tx_w, feasible, converged) arrays over one kernel call's problems
    return _solve_grams(*args)[:3]


def _mean_power(powers, feasible, converged) -> MeanPowerResult:
    # One batch's per-trial outcomes, reduced in trial order.
    n_feasible = int(np.count_nonzero(feasible))
    return MeanPowerResult(
        mean_p_w=float(powers[feasible].sum() / n_feasible) if n_feasible else float("nan"),
        infeasibility_rate=1.0 - n_feasible / len(powers),
        n_feasible=n_feasible,
        n_unconverged=int(np.count_nonzero(~converged)),
    )


def _mean_powers(cfg: ScenarioConfig, cell: CellConfig, batches: list,
                 channels: np.ndarray = None, n_jobs: int = 1) -> list:
    """`MeanPowerResult` of each `_power_batch` in `batches`, each over the
    first `cfg.trials` trials of `channels` (a `draw_channels` stack, drawn
    here if some batch has a positive target), which is inverted once.  The
    problems, one per (batch, trial) in batch-major order, are cut into
    kernel calls of one size: with one worker, as many whole batches as fit
    in `_CALL_PROBLEMS` problems (at least one batch); with
    min(n_jobs, trials) > 1 workers, ceil(trials / workers) problems, each
    call solved in a worker process.  A problem's solve does not depend on
    the call it is in and each batch is reduced in trial order, so the
    outcome depends on neither the split nor `n_jobs`.  A zero target needs
    no channel."""
    if channels is not None and len(channels) < cfg.trials:
        raise ValueError(f"need {cfg.trials} precomputed channels, got {len(channels)}")
    zero = MeanPowerResult(mean_p_w=0.0, infeasibility_rate=0.0,
                           n_feasible=cfg.trials, n_unconverged=0)
    solve = [batch for batch in batches if batch[0] != 0]
    if not solve:
        return [zero] * len(batches)
    grams = draw_channels(cell, cfg.seed, cfg.trials) if channels is None else channels
    inv_grams = np.linalg.inv(grams[:cfg.trials])
    params = np.repeat(np.array(solve), cfg.trials, axis=0)
    trial = np.tile(np.arange(cfg.trials), len(solve))
    workers = min(n_jobs, cfg.trials)
    size = (math.ceil(cfg.trials / workers) if workers > 1
            else cfg.trials * max(1, _CALL_PROBLEMS // cfg.trials))
    spans = (slice(lo, lo + size) for lo in range(0, len(params), size))
    calls = ((inv_grams[trial[span]], params[span, :1], params[span, 1], params[span, 2])
             for span in spans)
    if workers == 1:
        solved = map(_solve_block, calls)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel batch pays its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(_solve_block, calls))
    outcomes = zip(*(np.concatenate(column).reshape(len(solve), cfg.trials)
                     for column in zip(*solved)))
    return [zero if batch[0] == 0 else _mean_power(*next(outcomes)) for batch in batches]


def mean_bs_power(cfg: ScenarioConfig, cell: CellConfig, p_max_w: float,
                  n_jobs: int = 1) -> MeanPowerResult:
    """Mean minimum transmit power, under the per-BS cap `p_max_w`, over
    the feasible trials of the config's `draw_channels` stack: the one-batch
    case of the grid's power path, its trials solved in one call, or with
    n_jobs > 1 in blocks of ceil(trials / n_jobs) trials over worker
    processes, and reduced in trial order.  Each trial's solve does not
    depend on the others, so the outcome is independent of `n_jobs`."""
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    return _mean_powers(cfg, cell, [_power_batch(cfg.rate_bps, cfg.bandwidth_hz, cell, p_max_w)],
                        n_jobs=n_jobs)[0]


def _db(value) -> float:
    """10 log10 of a positive power, fraction or count by numpy's scalar
    log10: one term of the RFI sum.  -inf for zero: no power, no leakage or
    no emitters."""
    return float(10.0 * np.log10(value)) if value > 0 else -math.inf


def _rfi_dbw(power_db, delta_db, gain_db, count_db, calibration_db):
    """Aggregate received RFI in dBW per reference bandwidth,

        mean P_tx dB + leakage dB + net gain dB + footprint count dB + calibration,

    summed left to right over scalars or numpy arrays broadcast against each
    other, so each element is bitwise the scalar sum of its terms.  A -inf
    term (`_db` of zero) makes the sum -inf, and a NaN one (a degenerate
    batch) NaN."""
    return (((power_db + delta_db) + gain_db) + count_db) + calibration_db


# A NamedTuple, as are `_Footprints` and `_Grid`: its class is built at import
# in a fifth of a frozen dataclass's time.
class _Geometry(NamedTuple):
    """A guard's per-sensor quantities that do not depend on rate or year, in
    sensor order, each field named for the report column it fills, the dB
    ones also terms of the RFI sum; and the guard's per-BS power cap."""

    sensor_ids: tuple
    delta: tuple
    delta_db: tuple
    net_gain_db: tuple
    p_max_w: float


# The ScenarioConfig fields that, with the sensor specs, set a guard's sensor
# geometry and power cap; read raw, since `filter_spec` builds and checks a
# FilterSpec on every access.
_GEOMETRY_FIELDS = ("guard_mhz", "filter_order", "ripple_db", "ref_bandwidth_mhz",
                    "use_published_gain", "g_tx_db", "p_bs_dbw", "threshold_dbw")


def _geometry_key(cfg: ScenarioConfig) -> tuple:
    return tuple(getattr(cfg, name) for name in _GEOMETRY_FIELDS)


@functools.lru_cache(maxsize=256)
def _sensor_geometries(sensors: tuple, fields: tuple) -> _Geometry:
    """The `_Geometry` at the `_GEOMETRY_FIELDS` values `fields`.  Its power
    cap is the hardware cap or, if lower, the RFI threshold over the most
    tightly coupled sensor's linear gain times leakage fraction.  Computed
    once per process for each distinct value of the arguments."""
    cfg = ScenarioConfig(**dict(zip(_GEOMETRY_FIELDS, fields)))
    spec = cfg.filter_spec
    windows = [worst_victim_window(sensor.channel_span_ghz, cfg.ref_bandwidth_mhz,
                                   cfg.tn_band_ghz) for sensor in sensors]
    # Sensors that share a victim window share its leakage fraction.
    fractions = {window: leakage_fraction(spec, window, cfg.bandwidth_hz / 1e6)
                 for window in dict.fromkeys(windows)}
    deltas = tuple(fractions[window] for window in windows)
    gains = tuple(net_gain_db(sensor, use_published=cfg.use_published_gain, g_tx_db=cfg.g_tx_db)
                  for sensor in sensors)
    coupling = max(10.0 ** (gain / 10.0) * delta for gain, delta in zip(gains, deltas))
    try:
        threshold_w = 10.0 ** (cfg.threshold_dbw / 10.0)
    except OverflowError:  # a threshold past float range sets no RFI cap
        threshold_w = math.inf
    p_max_w = 10.0 ** (cfg.p_bs_dbw / 10.0)
    return _Geometry(
        sensor_ids=tuple(sensor.sensor_id for sensor in sensors),
        delta=deltas,
        delta_db=tuple(map(_db, deltas)),
        net_gain_db=tuple(map(float, gains)),
        p_max_w=min(p_max_w, threshold_w / coupling) if coupling > 0 else p_max_w,
    )


class _Counties(tuple):
    """County records as a cache key, equal record by record by value but
    hashed on their number and end records only: a lookup hashes two
    records, each by its FIPS code, however many there are, and a call that
    passes the same records again compares them by identity."""

    def __hash__(self):
        return hash((len(self), self[:1], self[-1:]))


def _inputs(cfg: ScenarioConfig, cell: CellConfig, counties: list, catalog: dict) -> tuple:
    """The given cell and counties, or the default cell and bundled counties,
    and the spec of each of the config's sensors in the given or bundled
    catalog.  Bad input raises here, before any work."""
    cell = cell if cell is not None else CellConfig()
    counties = counties if counties is not None else load_bundled_counties().records
    catalog = catalog if catalog is not None else load_sensor_catalog()
    sensors = tuple(lookup_sensor(catalog, sid) for sid in cfg.sensor_ids)
    if not counties:
        raise ValueError("empty county record set")
    return cell, _Counties(counties), sensors


class _Footprints(NamedTuple):
    """Each sensor's worst-case (county, BS count), and the RFI sum's
    10 log10 of each count."""

    worst: tuple
    count_db: tuple


@functools.lru_cache(maxsize=256)
def _footprints(counties: _Counties, sensors: tuple, penetration: float,
                max_demand_bps: float, eta_bps_per_hz: float, bandwidth_hz: float) -> _Footprints:
    """The `_Footprints` of the counties, computed once per process for each
    distinct value of what the counts depend on.  Year and adoption factor
    reach the counts only through the penetration, so points that share a
    penetration share an entry."""
    snapshot = build_snapshot(counties, max_demand_bps, eta_bps_per_hz, bandwidth_hz,
                              penetration_per_100=penetration)
    worst = tuple(worst_case_footprint(snapshot, sensor) for sensor in sensors)
    return _Footprints(worst=worst, count_db=tuple(_db(n_fp) for _, n_fp in worst))


def _report(header: dict, geometry: _Geometry, footprints: _Footprints,
            power: MeanPowerResult) -> RfiReport:
    """The report of one grid point from its header, which is the point's
    `ScenarioConfig.header` and penetration.  Each row's RFI is its cached
    terms summed by `_rfi_dbw` over Python floats, and the worst sensor is
    the first maximum, a NaN counting as -inf."""
    year, rate_mbps, guard_mhz, factor = (header["year"], header["rate_bps"] / 1e6,
                                          header["guard_mhz"], header["adoption_factor"])
    p_dbw, infeasible = power.mean_p_tx_dbw, power.infeasibility_rate
    threshold_dbw, calibration_db = header["threshold_dbw"], header["calibration_db"]
    rows, worst_id, worst_rfi = [], geometry.sensor_ids[0], -math.inf
    for sensor_id, delta, delta_db, gain, (county, n_fp), count_db in zip(
            geometry.sensor_ids, geometry.delta, geometry.delta_db, geometry.net_gain_db,
            footprints.worst, footprints.count_db):
        rfi = _rfi_dbw(p_dbw, delta_db, gain, count_db, calibration_db)
        rows.append(SensorRow(sensor_id, year, rate_mbps, guard_mhz, factor, n_fp, delta,
                              delta_db, gain, p_dbw, rfi, threshold_dbw - rfi, infeasible,
                              county.fips, county.name))
        if rfi > worst_rfi:  # False for NaN, and for a tie
            worst_id, worst_rfi = sensor_id, rfi
    return RfiReport(config=header, rows=rows, worst_sensor_id=worst_id)


def simulate(cfg: ScenarioConfig, cell: CellConfig = None, counties: list = None,
             n_jobs: int = 1, catalog: dict = None, power: MeanPowerResult = None) -> RfiReport:
    """Aggregate RFI per sensor for one scenario grid point, the one-point
    case of the grid's composition; without a `power` batch, one is run by
    `mean_bs_power` with `n_jobs`."""
    cell, counties, sensors = _inputs(cfg, cell, counties, catalog)
    geometry = _sensor_geometries(sensors, _geometry_key(cfg))
    if power is None:
        power = mean_bs_power(cfg, cell, geometry.p_max_w, n_jobs=n_jobs)
    penetration = cfg.penetration_per_100
    footprints = _footprints(counties, sensors, penetration, cfg.max_demand_bps,
                             cfg.eta_bps_per_hz, cfg.bandwidth_hz)
    header = cfg.header(cell)
    header["penetration_per_100"] = penetration
    return _report(header, geometry, footprints, power)


class _Grid(NamedTuple):
    """The inputs of every (year, guard, rate) point's RFI, per axis: per
    guard its checked config and `_Geometry`, per year its penetration, per
    rate its bps, per (guard, year) the `_Footprints` and per (guard, rate)
    the power batch."""

    cell: CellConfig
    guards: dict
    years: dict
    rates: dict
    geometries: list
    footprints: list
    powers: list


def _grid(cfg: ScenarioConfig, years, guards_mhz, rates_mbps, cell: CellConfig = None,
          counties: list = None, catalog: dict = None, channels: np.ndarray = None,
          power_cache: dict = None) -> _Grid:
    """The `_Grid` of the axes, given one power batch per (guard, rate) over
    one shared `draw_channels` Gram stack, read from `power_cache` or, for
    the keys it lacks, solved together in stacked kernel calls over one
    inversion of the stack and filled into it.  Each check a point's config
    makes is of one field or of the guard's filter, so each distinct year,
    guard and rate is checked once, by `replace`, before any geometry, draw
    or solve; no config is made per point."""
    cell, counties, sensors = _inputs(cfg, cell, counties, catalog)
    at_year = {year: replace(cfg, year=year) for year in years}
    at_guard = {guard: replace(cfg, guard_mhz=float(guard)) for guard in guards_mhz}
    rates_bps = {rate: replace(cfg, rate_bps=rate * 1e6).rate_bps for rate in rates_mbps}
    geometries = [_sensor_geometries(sensors, _geometry_key(point))
                  for point in at_guard.values()]
    power_cache = {} if power_cache is None else power_cache
    missing = {(guard, rate): _power_batch(rate_bps, point.bandwidth_hz, cell, geometry.p_max_w)
               for (guard, point), geometry in zip(at_guard.items(), geometries)
               for rate, rate_bps in rates_bps.items() if (guard, rate) not in power_cache}
    if missing:
        power_cache.update(zip(missing, _mean_powers(cfg, cell, list(missing.values()),
                                                     channels)))
    penetrations = {year: point.penetration_per_100 for year, point in at_year.items()}
    footprints = [[_footprints(counties, sensors, penetration, cfg.max_demand_bps,
                               cfg.eta_bps_per_hz, point.bandwidth_hz)
                   for penetration in penetrations.values()]
                  for point in at_guard.values()]
    powers = [[power_cache[(guard, rate)] for rate in rates_bps] for guard in at_guard]
    return _Grid(cell=cell, guards=at_guard, years=penetrations, rates=rates_bps,
                 geometries=geometries, footprints=footprints, powers=powers)


def rfi_grid(cfg: ScenarioConfig, years, guards_mhz, rates_mbps, *,
             cell: CellConfig = None, counties: list = None, channels: np.ndarray = None,
             power_cache: dict = None) -> dict:
    """Reports keyed (year, guard, rate), guard-major, each built from the
    grid's inputs as `simulate` builds its point's report, and equal to that
    report given the point's power batch.  The batches are shared over one
    `draw_channels` Gram stack, read from `power_cache` or solved and filled
    into it, as in `_grid`.

    `power_cache` is keyed only by (guard, rate), so one cache is valid only
    for one seed, trial count, cell and set of cap settings: `p_bs_dbw`,
    `threshold_dbw`, the gain fields and the filter fields.  The cap can bind:
    at guard 0 with the defaults the RFI cap, 0.0209 W, is below the 0.316 W
    hardware cap."""
    grid = _grid(cfg, years, guards_mhz, rates_mbps, cell=cell, counties=counties,
                 channels=channels, power_cache=power_cache)
    reports = {}
    for (guard, point), geometry, by_year, powers in zip(
            grid.guards.items(), grid.geometries, grid.footprints, grid.powers):
        header = point.header(grid.cell)
        for (year, penetration), footprints in zip(grid.years.items(), by_year):
            for (rate, rate_bps), power in zip(grid.rates.items(), powers):
                reports[(year, guard, rate)] = _report(
                    {**header, "year": year, "rate_bps": rate_bps,
                     "penetration_per_100": penetration},
                    geometry, footprints, power)
    return reports


def _compliant(rfi_dbw: float, threshold_dbw: float) -> bool:
    # Compliance is decided at the 0.1 dB reporting precision of the
    # dBW-scale outputs; -inf (no emitters) is trivially compliant.
    if math.isinf(rfi_dbw) and rfi_dbw < 0:
        return True
    return round(rfi_dbw, 1) <= threshold_dbw + 1e-9


def _max_rates(grid: _Grid) -> dict:
    """Largest grid rate per (year, guard) at which the worst sensor complies;
    0 if none.  Each sensor's RFI is its report row's `rfi_dbw`: the same
    cached terms summed by `_rfi_dbw`.  `_compliant` is monotone, so the
    worst sensor complies exactly when every sensor does.  Every term but the
    power is finite or -inf, so a point's RFI is NaN only for a degenerate
    batch and then in every row; `max` of them is NaN, which never complies."""
    best = {}
    for (guard, point), geometry, by_year, powers in zip(
            grid.guards.items(), grid.geometries, grid.footprints, grid.powers):
        for year, footprints in zip(grid.years, by_year):
            best[(year, guard)] = max([0] + [
                rate for rate, power in zip(grid.rates, powers)
                if _compliant(max(map(_rfi_dbw, repeat(power.mean_p_tx_dbw), geometry.delta_db,
                                      geometry.net_gain_db, footprints.count_db,
                                      repeat(point.calibration_db))), point.threshold_dbw)])
    return best


def max_feasible_rate(cfg: ScenarioConfig, rate_grid_mbps=RATE_GRID_MBPS,
                      cell: CellConfig = None, counties: list = None,
                      channels: np.ndarray = None, catalog: dict = None,
                      power_cache: dict = None) -> int:
    """Largest grid rate keeping the worst sensor at or under threshold, at
    the 0.1 dB reporting precision; 0 if none.  A degenerate (NaN) point
    never complies.  A `power_cache` shares power batches across calls, as
    in `rfi_grid`, and is keyed only by (guard, rate): it is valid only for
    one seed, trial count, cell and set of cap settings (`p_bs_dbw`,
    `threshold_dbw`, gain and filter fields)."""
    grid = _grid(cfg, [cfg.year], [cfg.guard_mhz], rate_grid_mbps, cell=cell,
                 counties=counties, catalog=catalog, channels=channels,
                 power_cache=power_cache)
    return _max_rates(grid).get((cfg.year, cfg.guard_mhz), 0)


def sweep_guard_bands(cfg: ScenarioConfig, years=CANONICAL_YEARS,
                      guards_mhz=GUARD_GRID_MHZ, cell: CellConfig = None,
                      counties: list = None) -> list:
    """Max feasible `RATE_GRID_MBPS` rate per (year, guard), decided as in
    `max_feasible_rate`: the worst sensor at or under threshold at the 0.1 dB
    reporting precision, a degenerate (NaN) point never complying.  Wider
    guards shrink both the leakage fraction and the usable bandwidth (raising
    BS counts)."""
    best = _max_rates(_grid(cfg, years, guards_mhz, RATE_GRID_MBPS, cell=cell,
                            counties=counties))
    return [GuardSweepRow(year=year, guard_mhz=float(guard),
                          max_rate_mbps=best.get((year, guard), 0))
            for year in years for guard in guards_mhz]


def leakage_table(cfg: ScenarioConfig, orders, guards_mhz) -> list:
    """Leakage fractions across filter orders and guard widths, per sensor of
    `cfg`, with its ripple and reference bandwidth.  Each row reads the
    `_Geometry` every RFI report at its (order, guard) uses: its δ and the
    δ's term of the RFI sum."""
    catalog = load_sensor_catalog()
    sensors = tuple(lookup_sensor(catalog, sid) for sid in cfg.sensor_ids)
    points = [(order, float(guard)) for order in orders for guard in guards_mhz]
    geometries = [_sensor_geometries(sensors, _geometry_key(
        replace(cfg, guard_mhz=guard, filter_order=order))) for order, guard in points]
    return [{"sensor_id": sid, "order": order, "guard_mhz": guard,
             "delta": geometry.delta[i], "delta_db": geometry.delta_db[i]}
            for i, sid in enumerate(cfg.sensor_ids)
            for (order, guard), geometry in zip(points, geometries)]
