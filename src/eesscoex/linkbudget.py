"""BS-to-sensor propagation geometry and net link gain.

Slant ranges follow the RS.1861-1 spherical-Earth construction from
orbit altitude and incidence angle.  The partial link budget stacks
free-space path loss with fixed clear-sky extras (polarization mismatch,
gaseous absorption, terminal clutter) and the end antenna gains.

The bundled catalog carries the published net gains next to the inputs
needed to recompute them; downstream aggregation defaults to the
published values and the recomputation path reports its discrepancy.
"""

import json
from dataclasses import dataclass
from importlib import resources
from math import asin, log10, radians, sin

from ._fields import bounded, check_fields, from_json, unique_keys

__all__ = [
    "EARTH_RADIUS_KM",
    "SensorSpec",
    "LinkBudget",
    "slant_range",
    "free_space_path_loss",
    "build_link_budget",
    "net_gain_db",
    "load_sensor_catalog",
    "lookup_sensor",
]

EARTH_RADIUS_KM = 6371.0
DEFAULT_EVAL_FREQ_GHZ = 6.925
DEFAULT_G_TX_DB = -10.0  # sidelobe-level gain toward the sensor, per ITU-R M.2101

# Clear-sky additional losses kept explicit in the budget.
L_POL_DB = 3.0   # +/-45 deg dual-slant vs H/V sensor polarization
L_ATM_DB = 0.3   # gaseous absorption, ITU-R P.676
L_CLUT_DB = 5.5  # Earth-space clutter, 25 deg elevation, p=50%


@dataclass(frozen=True)
class SensorSpec:
    """One passive radiometer channel (catalog row)."""

    sensor_id: str
    altitude_km: float = bounded(gt=0, lt=2000)
    incidence_deg: float = bounded(gt=0, lt=90)
    rx_gain_dbi: float
    channel_span_ghz: tuple[float, float]
    footprint_area_km2: float = bounded(gt=0)
    published_net_gain_db: float
    published_slant_km: float

    def __post_init__(self):
        check_fields(self)
        lo, hi = self.channel_span_ghz
        if not 0 < lo < hi:
            raise ValueError(f"need 0 < channel low < high GHz, got {self.channel_span_ghz}")

    def __hash__(self):
        # Specs are cache keys: hash the id alone, while equality still
        # compares every field, so an edited spec misses the cache.
        return hash(self.sensor_id)


@dataclass(frozen=True)
class LinkBudget:
    sensor_id: str
    slant_km: float
    fspl_db: float
    l_pol_db: float
    l_atm_db: float
    l_clut_db: float
    l_tot_db: float
    g_tx_db: float
    g_rx_db: float
    net_gain_db: float
    eval_freq_ghz: float
    published_net_gain_db: float
    discrepancy_db: float


def slant_range(altitude_km: float, incidence_deg: float) -> float:
    """BS-sensor slant range from spherical-Earth geometry (km).

    Law of sines with the incidence angle at the ground point:
    eta = asin(R sin i / (R + H)), gamma = i - eta, D = R sin gamma / sin eta.
    """
    if not 0 < incidence_deg < 90:
        raise ValueError(f"incidence angle must lie in (0, 90) deg, got {incidence_deg}")
    if altitude_km <= 0:
        raise ValueError(f"altitude must be positive, got {altitude_km}")
    i = radians(incidence_deg)
    eta = asin(EARTH_RADIUS_KM * sin(i) / (EARTH_RADIUS_KM + altitude_km))
    gamma = i - eta
    return EARTH_RADIUS_KM * sin(gamma) / sin(eta)


def free_space_path_loss(f_ghz: float, distance_km: float) -> float:
    """FSPL in dB: 92.45 + 20 log10(f_GHz) + 20 log10(D_km)."""
    if f_ghz <= 0 or distance_km <= 0:
        raise ValueError("frequency and distance must be positive")
    return 92.45 + 20.0 * log10(f_ghz) + 20.0 * log10(distance_km)


def build_link_budget(sensor: SensorSpec, g_tx_db: float = DEFAULT_G_TX_DB,
                      f_ghz: float = DEFAULT_EVAL_FREQ_GHZ) -> LinkBudget:
    """Recompute the component-wise budget for one sensor.

    `discrepancy_db` is the recomputed net gain minus the published one;
    it is reported, never silently folded in.
    """
    d = slant_range(sensor.altitude_km, sensor.incidence_deg)
    fspl = free_space_path_loss(f_ghz, d)
    l_tot = fspl + (L_POL_DB + L_ATM_DB + L_CLUT_DB)
    net = g_tx_db + sensor.rx_gain_dbi - l_tot
    return LinkBudget(
        sensor_id=sensor.sensor_id,
        slant_km=d,
        fspl_db=fspl,
        l_pol_db=L_POL_DB,
        l_atm_db=L_ATM_DB,
        l_clut_db=L_CLUT_DB,
        l_tot_db=l_tot,
        g_tx_db=g_tx_db,
        g_rx_db=sensor.rx_gain_dbi,
        net_gain_db=net,
        eval_freq_ghz=f_ghz,
        published_net_gain_db=sensor.published_net_gain_db,
        discrepancy_db=net - sensor.published_net_gain_db,
    )


def net_gain_db(sensor: SensorSpec, use_published: bool = True,
                g_tx_db: float = DEFAULT_G_TX_DB) -> float:
    """Catalog net gain (default) or the component-wise recomputation at the
    BS antenna gain `g_tx_db`."""
    if use_published:
        return sensor.published_net_gain_db
    return build_link_budget(sensor, g_tx_db=g_tx_db).net_gain_db


def _sensor_from_row(row: dict) -> SensorSpec:
    def number(key):
        return from_json(float, row[key])

    return SensorSpec(
        sensor_id=row["sensor_id"],
        altitude_km=number("altitude_km"),
        incidence_deg=number("incidence_deg"),
        rx_gain_dbi=number("rx_gain_dbi"),
        channel_span_ghz=(number("channel_low_ghz"), number("channel_high_ghz")),
        footprint_area_km2=number("footprint_area_km2"),
        published_net_gain_db=number("published_net_gain_db"),
        published_slant_km=number("published_slant_km"),
    )


def load_sensor_catalog(path=None) -> dict:
    """Load the sensor catalog, bundled by default, as {id: SensorSpec}.

    A malformed catalog raises ValueError naming the file and the bad entry.
    """
    name = path or "sensors.json"
    try:
        if path is None:
            text = resources.files("eesscoex.data").joinpath("sensors.json").read_text()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        payload = json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as exc:  # undecodable text, bad JSON or a duplicate key
        raise ValueError(f"{name}: {exc}") from None
    rows = payload.get("sensors") if isinstance(payload, dict) else None
    if not isinstance(rows, list):
        raise ValueError(f"{name}: catalog must be a JSON object with a 'sensors' list")
    catalog = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{name}: sensors[{i}] must be a JSON object, got {row!r}")
        try:
            spec = _sensor_from_row(row)
        except KeyError as exc:
            raise ValueError(f"{name}: sensors[{i}] lacks key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{name}: sensors[{i}]: {exc}") from None
        if spec.sensor_id in catalog:
            raise ValueError(f"{name}: duplicate sensor id {spec.sensor_id} in catalog")
        catalog[spec.sensor_id] = spec
    return catalog


def lookup_sensor(catalog: dict, sensor_id: str) -> SensorSpec:
    """The catalog entry for `sensor_id`; ValueError naming the known ids if absent."""
    try:
        return catalog[sensor_id]
    except KeyError:
        raise ValueError(f"unknown sensor {sensor_id!r}; have {sorted(catalog)}") from None
