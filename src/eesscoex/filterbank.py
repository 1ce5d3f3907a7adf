"""Base-station band-pass spectral response and out-of-band leakage.

The transmit chain is modeled as a Chebyshev Type-I band-pass response,
obtained from the analog low-pass prototype via the geometric-mean
frequency transform.  Leakage into a victim window is the
BS-bandwidth-normalized integral of the power response over that window,
so it reads directly as the fraction of transmit power emitted there.
"""

from dataclasses import dataclass

import numpy as np

from ._fields import bounded, check_fields

__all__ = [
    "FilterSpec",
    "power_response",
    "worst_victim_window",
    "leakage_fraction",
    "leaked_psd_dbm_per_mhz",
    "edge_psd_margin",
]

DEFAULT_SPURIOUS_LIMIT_DBM_MHZ = -13.0  # TS 38.104 Category A, carriers > 1 GHz
EDGE_EVAL_FREQ_GHZ = 7.1245  # mask point 0.5 MHz below the 7.125 GHz allocation edge
_GRID_STEP_MHZ = 0.01  # trapezoid step of every leakage integral


@dataclass(frozen=True)
class FilterSpec:
    """Chebyshev Type-I band-pass parameterization; `order` is the number
    of coupled-resonator stages."""

    # The designs studied use 3 to 9 resonators; far past that, cos(order *
    # arccos x) is rounding noise and the leakage reads 0 (a -inf RFI).
    order: int = bounded(7, ge=1, le=50)
    # Below 0.01 dB the ripple factor 10 ** (ripple / 10) - 1 rounds to 0
    # (0 x inf is nan far out of band); 10 dB lets the passband fall to a
    # tenth of its peak, and the factor overflows past about 3083 dB.
    ripple_db: float = bounded(0.2, ge=0.01, le=10)
    passband_low_ghz: float = bounded(7.150, gt=0)
    passband_high_ghz: float = 7.400

    def __post_init__(self):
        check_fields(self)
        if not self.passband_low_ghz < self.passband_high_ghz:
            raise ValueError(
                f"degenerate passband [{self.passband_low_ghz}, {self.passband_high_ghz}] GHz"
            )

    @property
    def center_ghz(self) -> float:
        """Geometric-mean center frequency of the passband."""
        return float(np.sqrt(self.passband_low_ghz * self.passband_high_ghz))

    @property
    def fractional_bandwidth(self) -> float:
        return (self.passband_high_ghz - self.passband_low_ghz) / self.center_ghz

    @property
    def bandwidth_mhz(self) -> float:
        return (self.passband_high_ghz - self.passband_low_ghz) * 1e3


def _response_into(spec: FilterSpec, f: np.ndarray, out: np.ndarray,
                   work: np.ndarray) -> np.ndarray:
    """|H(f)|^2 at the positive frequencies `f` (GHz), written into `out`
    with `work` as scratch (float arrays shaped like `f`); returns `out`.

    |T_n(x)| takes the trig form in band and the hyperbolic form outside it
    (stable for large |x|).  The products keep the order of the expression
    `1 / (1 + eps2 * t * t)`, that is `(eps2 * t) * t`: `eps2 * (t * t)`
    would move the last bits of every leakage fraction.
    """
    f0 = spec.center_ghz
    eps2 = 10.0 ** (spec.ripple_db / 10.0) - 1.0
    with np.errstate(over="ignore"):  # far out of band the response falls to 0
        x = np.divide(f, f0, out=out)
        np.subtract(x, np.divide(f0, f, out=work), out=x)
        np.divide(x, spec.fractional_bandwidth, out=x)
        np.abs(x, out=x)
        t = work
        band = np.less_equal(x, 1.0)
        np.arccos(x, out=t, where=band)
        np.multiply(spec.order, t, out=t, where=band)
        np.cos(t, out=t, where=band)
        np.abs(t, out=t, where=band)
        band = np.logical_not(band, out=band)
        np.arccosh(x, out=t, where=band)
        np.multiply(spec.order, t, out=t, where=band)
        np.cosh(t, out=t, where=band)
        resp = np.multiply(np.multiply(eps2, t, out=out), t, out=out)
        np.add(1.0, resp, out=resp)
        return np.divide(1.0, resp, out=resp)


def power_response(spec: FilterSpec, f_ghz):
    """Normalized power gain |H(f)|^2 of the band-pass design.

    Accepts a scalar or array of frequencies in GHz.  The response peaks
    at exactly 1 and stays within the ripple band across the passband.
    """
    f = np.asarray(f_ghz, dtype=float)
    scalar = f.ndim == 0
    f = np.atleast_1d(f)
    if np.any(f <= 0):
        raise ValueError("frequencies must be positive")
    resp = _response_into(spec, f, np.empty_like(f), np.empty_like(f))
    return float(resp[0]) if scalar else resp


def worst_victim_window(sensor_span_ghz: tuple, ref_bw_mhz: float,
                        bs_band_ghz: tuple) -> tuple:
    """Reference-bandwidth sub-band of the sensor span closest to the BS
    band, as a `(low, high)` tuple in GHz.

    With the BS band above the sensor allocation this is always the
    window abutting the span's upper edge.
    """
    span_low, span_high = sensor_span_ghz
    bs_low, bs_high = bs_band_ghz
    if span_high <= span_low:
        raise ValueError(f"degenerate sensor span [{span_low}, {span_high}] GHz")
    width_ghz = ref_bw_mhz / 1e3
    if (span_high - span_low) < width_ghz - 1e-12:
        raise ValueError(
            f"sensor span {span_low}-{span_high} GHz narrower than "
            f"{ref_bw_mhz} MHz reference bandwidth"
        )
    if bs_low < span_high - 1e-12:
        raise ValueError(
            f"BS band [{bs_low}, {bs_high}] GHz must lie above the sensor span"
        )
    return (span_high - width_ghz, span_high)


def leakage_fraction(spec: FilterSpec, window: tuple, bs_bandwidth_mhz: float) -> float:
    """Fraction of transmit power leaked into `window`, a `(low, high)`
    tuple in GHz, as a float in [0, 1).

    Trapezoidal integration of the power response over the window on a
    fixed `_GRID_STEP_MHZ` grid, normalized by the occupied BS bandwidth.
    This models adjacent-band leakage only, so the window must not
    overlap the passband.
    """
    low, high = window
    if not 0 < low < high:
        raise ValueError(f"degenerate window [{low}, {high}] GHz")
    if bs_bandwidth_mhz <= 0:
        raise ValueError(f"BS bandwidth must be positive, got {bs_bandwidth_mhz}")
    if high > spec.passband_low_ghz + 1e-12 and low < spec.passband_high_ghz - 1e-12:
        raise ValueError(
            f"victim window [{low}, {high}] GHz overlaps the passband "
            f"[{spec.passband_low_ghz}, {spec.passband_high_ghz}] GHz; "
            "co-channel leakage is out of scope"
        )
    step_ghz = _GRID_STEP_MHZ / 1e3
    n = max(int(np.ceil((high - low) / step_ghz)), 1)
    freqs = np.linspace(low, high, n + 1)
    resp, work = np.empty_like(freqs), np.empty_like(freqs)
    _response_into(spec, freqs, resp, work)
    # np.trapezoid(resp, freqs) in numpy's own order, sum((diff(freqs) *
    # (resp[1:] + resp[:-1])) / 2.0), so bitwise the same, but through the
    # two buffers instead of a fresh grid-sized temporary per step.
    pair_sum = np.add(resp[1:], resp[:-1], out=work[:n])
    area = np.subtract(freqs[1:], freqs[:-1], out=resp[:n])
    np.multiply(area, pair_sum, out=area)
    integral_ghz = np.divide(area, 2.0, out=area).sum()
    delta = float(integral_ghz * 1e3 / bs_bandwidth_mhz)
    # Strictly positive for any Chebyshev response; 0 covers the ideal
    # brick-wall limit.
    if not 0 <= delta < 1:
        raise ValueError(f"leakage fraction must lie in [0, 1), got {delta}")
    return delta


def leaked_psd_dbm_per_mhz(spec: FilterSpec, p_tx_dbw: float, f_ghz: float) -> float:
    """PSD of the leaked signal at `f_ghz` under a flat in-band PSD.

    The total power is spread uniformly over the passband width, then
    shaped by the response.
    """
    if not np.isfinite(p_tx_dbw):
        raise ValueError(f"transmit power must be finite, got {p_tx_dbw}")
    inband_psd = (p_tx_dbw + 30.0) - 10.0 * np.log10(spec.bandwidth_mhz)
    with np.errstate(divide="ignore"):  # a response below float range leaks -inf dBm
        return float(inband_psd + 10.0 * np.log10(power_response(spec, f_ghz)))


def edge_psd_margin(spec: FilterSpec, p_tx_dbw: float, eval_f_ghz: float,
                    limit_dbm_mhz: float = DEFAULT_SPURIOUS_LIMIT_DBM_MHZ) -> float:
    """Margin of the leaked PSD against an emission limit (positive = compliant).

    The limit applies outside the passband; in band there is no leakage to
    judge, so a frequency there raises ValueError.
    """
    if spec.passband_low_ghz <= eval_f_ghz <= spec.passband_high_ghz:
        raise ValueError(
            f"evaluation frequency {eval_f_ghz} GHz lies in the passband "
            f"[{spec.passband_low_ghz}, {spec.passband_high_ghz}] GHz; the emission "
            "limit applies outside it"
        )
    psd = leaked_psd_dbm_per_mhz(spec, p_tx_dbw, eval_f_ghz)
    return float(limit_dbm_mhz - psd)
