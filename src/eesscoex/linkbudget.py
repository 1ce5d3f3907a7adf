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
from dataclasses import dataclass, asdict
from importlib import resources
from math import asin, log10, radians, sin

__all__ = [
    "EARTH_RADIUS_KM",
    "SensorSpec",
    "PathExtras",
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


@dataclass(frozen=True)
class SensorSpec:
    """One passive radiometer channel (catalog row)."""

    sensor_id: str
    altitude_km: float
    incidence_deg: float
    rx_gain_dbi: float
    channel_span_ghz: tuple
    footprint_area_km2: float
    published_net_gain_db: float
    published_slant_km: float

    def __post_init__(self):
        if not 0 < self.altitude_km < 2000:
            raise ValueError(f"{self.sensor_id}: altitude {self.altitude_km} km out of range")
        if not 0 < self.incidence_deg < 90:
            raise ValueError(f"{self.sensor_id}: incidence {self.incidence_deg} deg out of range")
        if self.footprint_area_km2 <= 0:
            raise ValueError(f"{self.sensor_id}: footprint area must be positive")
        lo, hi = self.channel_span_ghz
        if not 0 < lo < hi:
            raise ValueError(f"{self.sensor_id}: bad channel span {self.channel_span_ghz}")


@dataclass(frozen=True)
class PathExtras:
    """Clear-sky additional losses kept explicit in the budget."""

    l_pol_db: float = 3.0   # +/-45 deg dual-slant vs H/V sensor polarization
    l_atm_db: float = 0.3   # gaseous absorption, ITU-R P.676
    l_clut_db: float = 5.5  # Earth-space clutter, 25 deg elevation, p=50%

    @property
    def total_db(self) -> float:
        return self.l_pol_db + self.l_atm_db + self.l_clut_db


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

    def to_dict(self) -> dict:
        return asdict(self)


def slant_range(altitude_km: float, incidence_deg: float,
                earth_radius_km: float = EARTH_RADIUS_KM) -> float:
    """BS-sensor slant range from spherical-Earth geometry (km).

    Law of sines with the incidence angle at the ground point:
    eta = asin(R sin i / (R + H)), gamma = i - eta, D = R sin gamma / sin eta.
    """
    if not 0 < incidence_deg < 90:
        raise ValueError(f"incidence angle must lie in (0, 90) deg, got {incidence_deg}")
    if altitude_km <= 0:
        raise ValueError(f"altitude must be positive, got {altitude_km}")
    i = radians(incidence_deg)
    eta = asin(earth_radius_km * sin(i) / (earth_radius_km + altitude_km))
    gamma = i - eta
    return earth_radius_km * sin(gamma) / sin(eta)


def free_space_path_loss(f_ghz: float, distance_km: float) -> float:
    """FSPL in dB: 92.45 + 20 log10(f_GHz) + 20 log10(D_km)."""
    if f_ghz <= 0 or distance_km <= 0:
        raise ValueError("frequency and distance must be positive")
    return 92.45 + 20.0 * log10(f_ghz) + 20.0 * log10(distance_km)


def build_link_budget(sensor: SensorSpec, g_tx_db: float = DEFAULT_G_TX_DB,
                      f_ghz: float = DEFAULT_EVAL_FREQ_GHZ,
                      extras: PathExtras = PathExtras(),
                      earth_radius_km: float = EARTH_RADIUS_KM) -> LinkBudget:
    """Recompute the component-wise budget for one sensor.

    `discrepancy_db` is the recomputed net gain minus the published one;
    it is reported, never silently folded in.
    """
    d = slant_range(sensor.altitude_km, sensor.incidence_deg, earth_radius_km)
    fspl = free_space_path_loss(f_ghz, d)
    l_tot = fspl + extras.total_db
    net = g_tx_db + sensor.rx_gain_dbi - l_tot
    return LinkBudget(
        sensor_id=sensor.sensor_id,
        slant_km=d,
        fspl_db=fspl,
        l_pol_db=extras.l_pol_db,
        l_atm_db=extras.l_atm_db,
        l_clut_db=extras.l_clut_db,
        l_tot_db=l_tot,
        g_tx_db=g_tx_db,
        g_rx_db=sensor.rx_gain_dbi,
        net_gain_db=net,
        eval_freq_ghz=f_ghz,
        published_net_gain_db=sensor.published_net_gain_db,
        discrepancy_db=net - sensor.published_net_gain_db,
    )


def net_gain_db(sensor: SensorSpec, use_published: bool = True, **kwargs) -> float:
    """Catalog net gain (default) or the component-wise recomputation."""
    if use_published:
        return sensor.published_net_gain_db
    return build_link_budget(sensor, **kwargs).net_gain_db


def _sensor_from_row(row: dict) -> SensorSpec:
    return SensorSpec(
        sensor_id=row["sensor_id"],
        altitude_km=float(row["altitude_km"]),
        incidence_deg=float(row["incidence_deg"]),
        rx_gain_dbi=float(row["rx_gain_dbi"]),
        channel_span_ghz=(float(row["channel_low_ghz"]), float(row["channel_high_ghz"])),
        footprint_area_km2=float(row["footprint_area_km2"]),
        published_net_gain_db=float(row["published_net_gain_db"]),
        published_slant_km=float(row["published_slant_km"]),
    )


def load_sensor_catalog(path=None) -> dict:
    """Load the sensor catalog, bundled by default, as {id: SensorSpec}."""
    if path is None:
        text = resources.files("eesscoex.data").joinpath("sensors.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    payload = json.loads(text)
    catalog = {}
    for row in payload["sensors"]:
        spec = _sensor_from_row(row)
        if spec.sensor_id in catalog:
            raise ValueError(f"duplicate sensor id {spec.sensor_id} in catalog")
        catalog[spec.sensor_id] = spec
    return catalog


def lookup_sensor(catalog: dict, sensor_id: str) -> SensorSpec:
    """The catalog entry for `sensor_id`; ValueError naming the known ids if absent."""
    try:
        return catalog[sensor_id]
    except KeyError:
        raise ValueError(f"unknown sensor {sensor_id!r}; have {sorted(catalog)}") from None
