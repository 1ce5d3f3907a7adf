"""Gompertz technology-diffusion model for deployment projections.

The diffusion curve Y(t) = b1 exp(-b2 exp(-b3 t)) is anchored so that a
chosen calendar year carries a chosen penetration; the time origin is
solved in closed form, which makes results independent of whatever year
index the parameters were fitted against.  Growth-rate sensitivity
scenarios rescale b3 and re-apply the anchor.
"""

from dataclasses import dataclass, replace
from math import exp, log

import numpy as np

from ._fields import _is_float, bounded, check_fields

__all__ = [
    "AdoptionModel",
    "BASELINE_MODEL",
    "PenetrationSeries",
    "GompertzFit",
    "gompertz",
    "scale_scenario",
    "fit_gompertz",
    "SENSITIVITY_TABLE",
    "scenario_penetration",
]


@dataclass(frozen=True)
class AdoptionModel:
    """Anchored Gompertz curve: saturation b1 (per-100), displacement b2, growth b3 (1/yr)."""

    b1: float = bounded(38.100, gt=0)
    b2: float = bounded(3.272, gt=0)
    b3: float = bounded(0.186, gt=0)
    anchor_year: float = 2030.0
    anchor_penetration: float = bounded(1.0, gt=0)

    def __post_init__(self):
        check_fields(self)
        if not self.anchor_penetration < self.b1:
            raise ValueError(
                f"anchor penetration {self.anchor_penetration} unreachable for "
                f"saturation {self.b1}"
            )

    @property
    def year_origin(self) -> float:
        """Calendar year mapped to t=0 so that Y(anchor_year) = anchor_penetration."""
        e = log(self.b1 / self.anchor_penetration) / self.b2
        return self.anchor_year + log(e) / self.b3


BASELINE_MODEL = AdoptionModel()

# Growth-sensitivity reference values (subscriptions per 100 people) the
# deployment projections are calibrated against; keys are the b3 scale
# factor and the calendar year.
SENSITIVITY_TABLE = {
    0.5: {2030: 1.0, 2035: 5.0, 2040: 10.5},
    1.0: {2030: 1.0, 2035: 10.0, 2040: 22.5},
    1.5: {2030: 1.0, 2035: 17.0, 2040: 30.0},
}


def gompertz(model: AdoptionModel, year):
    """Penetration (per-100) at a calendar year; scalar or array."""
    y = np.asarray(year, dtype=float)
    t = y - model.year_origin
    with np.errstate(over="ignore"):  # far-past years: exp overflows to inf, Y to its limit 0
        out = model.b1 * np.exp(-model.b2 * np.exp(-model.b3 * t))
    return float(out) if out.ndim == 0 else out


def scale_scenario(model: AdoptionModel, factor: float) -> AdoptionModel:
    """Rescale the growth rate b3, keeping b1/b2 and re-applying the anchor."""
    if not (_is_float(factor) and factor > 0):
        raise ValueError(f"'factor' must be a finite number > 0, got {factor!r}")
    return replace(model, b3=factor * model.b3)


@dataclass(frozen=True)
class PenetrationSeries:
    """Observed diffusion history: (year, subscriptions per 100 people)."""

    years: tuple
    values: tuple

    def __post_init__(self):
        if len(self.years) != len(self.values):
            raise ValueError("years and values must have equal length")
        ys = np.asarray(self.years, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if len(ys) and np.any(np.diff(ys) <= 0):
            raise ValueError("years must be strictly increasing")
        if np.any((vs < 0) | (vs > 100)):
            raise ValueError("penetration values must lie in [0, 100]")

    def __len__(self):
        return len(self.years)


@dataclass(frozen=True)
class GompertzFit:
    model: AdoptionModel
    residual_norm: float
    success: bool
    at_boundary: bool


_B3_LOWER = 1e-6
_FIT_XTOL = 1e-8
_FIT_MAX_EVALUATIONS = 500


def fit_gompertz(series: PenetrationSeries, init: AdoptionModel) -> GompertzFit:
    """Nonlinear least squares fit of (b1, b2, b3) to a penetration history.

    The fit runs on the raw year index of the series (t = year - first
    year); the returned model keeps the init's anchor, which absorbs any
    time-origin ambiguity.  Non-convergence and parameter-boundary hits
    are flagged, with the last iterate and residual retained.
    """
    from scipy.optimize import least_squares  # imported here so no command pays for it

    if len(series) < 4:
        raise ValueError(f"need at least 4 data points to fit, got {len(series)}")
    years = np.asarray(series.years, dtype=float)
    values = np.asarray(series.values, dtype=float)
    t = years - years[0]

    def residuals(params):
        b1, b2, b3 = params
        return b1 * np.exp(-b2 * np.exp(-b3 * t)) - values

    x0 = np.array([init.b1, init.b2, init.b3], dtype=float)
    lower = np.array([1e-9, 1e-9, _B3_LOWER])
    upper = np.array([np.inf, np.inf, np.inf])
    result = least_squares(residuals, x0, bounds=(lower, upper),
                           xtol=_FIT_XTOL, ftol=None, gtol=None,
                           max_nfev=_FIT_MAX_EVALUATIONS)
    b1, b2, b3 = result.x
    at_boundary = bool(b3 <= 10 * _B3_LOWER)
    anchor = init.anchor_penetration
    if anchor >= b1:
        # Degenerate fit cannot host the requested anchor; keep the model
        # constructible so the failure result stays inspectable.
        anchor = b1 / 2.0
    model = AdoptionModel(b1=float(b1), b2=float(b2), b3=float(max(b3, _B3_LOWER)),
                          anchor_year=init.anchor_year, anchor_penetration=anchor)
    return GompertzFit(
        model=model,
        residual_norm=float(np.linalg.norm(result.fun)),
        success=bool(result.success) and not at_boundary,
        at_boundary=at_boundary,
    )


def scenario_penetration(year: int, factor: float = 1.0,
                         use_published: bool = True) -> float:
    """Penetration feeding the deployment projections.

    Defaults to the published sensitivity-table values on the canonical
    (factor, year) grid, falling back to the anchored curve elsewhere;
    pass use_published=False to force the curve (same convention as the
    published link-gain catalog).  Only a finite number is matched against
    the table, so a bool or non-finite factor meets `scale_scenario`'s check.
    """
    if use_published and _is_float(factor) and float(year).is_integer():
        for fac_key, by_year in SENSITIVITY_TABLE.items():
            if abs(factor - fac_key) < 1e-9 and int(year) in by_year:
                return float(by_year[int(year)])
    return float(gompertz(scale_scenario(BASELINE_MODEL, factor), year))
