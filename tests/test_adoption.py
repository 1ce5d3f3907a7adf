import numpy as np
import pytest

from eesscoex.adoption import (
    BASELINE_MODEL,
    SENSITIVITY_TABLE,
    AdoptionModel,
    GompertzFit,
    PenetrationSeries,
    fit_gompertz,
    gompertz,
    scale_scenario,
    scenario_penetration,
)

# Anchored-curve values at the canonical years, frozen from the closed-form
# time-origin solution (self-consistency oracle below re-derives them).
CURVE_BASELINE = {2030: 1.0, 2035: 9.0608, 2040: 21.6181}


def test_anchor_is_exact():
    assert gompertz(BASELINE_MODEL, 2030) == pytest.approx(1.0, abs=1e-12)
    other = AdoptionModel(anchor_year=2031.0, anchor_penetration=2.5)
    assert gompertz(other, 2031.0) == pytest.approx(2.5, abs=1e-12)


def test_curve_values_against_closed_form():
    # Independent re-derivation: solve exp(-b3 t*) = ln(b1/a)/b2 for the
    # anchor time and evaluate the raw formula.
    b1, b2, b3 = 38.100, 3.272, 0.186
    t_anchor = -np.log(np.log(b1 / 1.0) / b2) / b3
    for year, expected in CURVE_BASELINE.items():
        t = (year - 2030) + t_anchor
        ref = b1 * np.exp(-b2 * np.exp(-b3 * t))
        assert gompertz(BASELINE_MODEL, year) == pytest.approx(ref, rel=1e-12)
        assert gompertz(BASELINE_MODEL, year) == pytest.approx(expected, abs=1e-3)


def test_asymptote():
    assert gompertz(BASELINE_MODEL, 2300) == pytest.approx(38.100, abs=1e-6)


def test_far_past_reaches_zero_without_overflow_warning():
    assert gompertz(BASELINE_MODEL, -100000) == 0.0


def test_strictly_increasing_in_year():
    years = np.arange(2020, 2080)
    values = gompertz(BASELINE_MODEL, years)
    assert np.all(np.diff(values) > 0)


def test_scale_identity():
    scaled = scale_scenario(BASELINE_MODEL, 1.0)
    years = np.arange(2025, 2060)
    assert np.allclose(gompertz(scaled, years), gompertz(BASELINE_MODEL, years))


def test_scale_reanchors():
    for factor in (0.5, 1.5):
        scaled = scale_scenario(BASELINE_MODEL, factor)
        assert scaled.b3 == pytest.approx(factor * 0.186)
        assert scaled.b1 == BASELINE_MODEL.b1 and scaled.b2 == BASELINE_MODEL.b2
        assert gompertz(scaled, 2030) == pytest.approx(1.0, abs=1e-12)


def test_faster_growth_higher_after_anchor():
    slow = scale_scenario(BASELINE_MODEL, 0.5)
    fast = scale_scenario(BASELINE_MODEL, 1.5)
    for year in (2033, 2035, 2040, 2050):
        assert gompertz(slow, year) < gompertz(BASELINE_MODEL, year) < gompertz(fast, year)


def test_anchoring_idempotent():
    model = scale_scenario(scale_scenario(BASELINE_MODEL, 0.5), 1.0)
    direct = scale_scenario(BASELINE_MODEL, 0.5)
    years = np.arange(2028, 2045)
    assert np.allclose(gompertz(model, years), gompertz(direct, years))


def test_sensitivity_table_vs_curve():
    # The anchored curve tracks the published sensitivity values within
    # +/-1.5 per-100 at the published 0.1 precision.
    for factor, by_year in SENSITIVITY_TABLE.items():
        scaled = scale_scenario(BASELINE_MODEL, factor)
        for year, published in by_year.items():
            curve = round(float(gompertz(scaled, year)), 1)
            assert abs(curve - published) <= 1.5


def test_scenario_penetration_published_default():
    assert scenario_penetration(2035, 1.0) == 10.0
    assert scenario_penetration(2035, 1) == 10.0  # an int is a number; only a bool is not
    assert scenario_penetration(2040, 0.5) == 10.5
    assert scenario_penetration(2035, 1.5) == 17.0
    # off-grid years and factors fall back to the curve
    assert scenario_penetration(2033, 1.0) == pytest.approx(
        gompertz(BASELINE_MODEL, 2033))
    assert scenario_penetration(2035, 0.75) == pytest.approx(
        gompertz(scale_scenario(BASELINE_MODEL, 0.75), 2035))
    assert scenario_penetration(2035, 1.0, use_published=False) == pytest.approx(
        gompertz(BASELINE_MODEL, 2035))


def test_invalid_models():
    with pytest.raises(ValueError):
        AdoptionModel(b1=-1.0)
    with pytest.raises(ValueError):
        AdoptionModel(b3=0.0)
    with pytest.raises(ValueError):
        AdoptionModel(anchor_penetration=40.0)  # above saturation
    with pytest.raises(ValueError):
        scale_scenario(BASELINE_MODEL, 0.0)
    # A NaN once built a model whose every penetration was NaN, and b1=True
    # failed only the anchor check, as "saturation True".
    with pytest.raises(ValueError, match="^'b2' must be a finite number, got nan$"):
        AdoptionModel(b2=float("nan"))
    with pytest.raises(ValueError, match="^'b3' must be a finite number, got inf$"):
        AdoptionModel(b3=float("inf"))
    with pytest.raises(ValueError, match="^'b1' must be a finite number, got True$"):
        AdoptionModel(b1=True)
    with pytest.raises(ValueError, match="^'factor' must be a finite number > 0, got nan$"):
        scenario_penetration(2035, float("nan"))


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), -1.0, 0.0, True])
def test_scale_factor_must_be_a_finite_positive_number(factor):
    # Checked before b3 is scaled: a NaN or inf factor once failed as a bad
    # 'b3', a field the caller never set, and True passed as 1.0.  Checked
    # before the table is read too, where True once matched the factor 1.0.
    message = f"^'factor' must be a finite number > 0, got {factor!r}$"
    with pytest.raises(ValueError, match=message):
        scale_scenario(BASELINE_MODEL, factor)
    for published in (True, False):
        with pytest.raises(ValueError, match=message):
            scenario_penetration(2035, factor, use_published=published)


def _synthetic_series(b1=38.100, b2=3.272, b3=0.186, noise=0.0, seed=None):
    years = np.arange(1998, 2024)
    t = years - years[0]
    values = b1 * np.exp(-b2 * np.exp(-b3 * t))
    if noise:
        rng = np.random.default_rng(seed)
        values = np.clip(values + rng.normal(0.0, noise, len(values)), 0.0, 100.0)
    return PenetrationSeries(years=tuple(years), values=tuple(values))


def test_fit_recovers_noiseless_parameters():
    series = _synthetic_series()
    init = AdoptionModel(b1=30.0, b2=2.0, b3=0.1)
    fit = fit_gompertz(series, init)
    assert fit.success
    assert fit.model.b1 == pytest.approx(38.100, rel=1e-4)
    assert fit.model.b2 == pytest.approx(3.272, rel=1e-4)
    assert fit.model.b3 == pytest.approx(0.186, rel=1e-4)
    assert fit.residual_norm < 1e-6


def test_fit_noisy_recovers_saturation():
    errors = []
    for seed in range(100):
        series = _synthetic_series(noise=0.5, seed=seed)
        fit = fit_gompertz(series, AdoptionModel(b1=30.0, b2=2.0, b3=0.1))
        errors.append(abs(fit.model.b1 - 38.100) / 38.100)
    assert np.mean(errors) < 0.05


def test_fit_residual_never_above_init():
    series = _synthetic_series(noise=0.5, seed=7)
    init = AdoptionModel(b1=30.0, b2=2.0, b3=0.1)

    def residual_norm(model):
        t = np.asarray(series.years) - series.years[0]
        pred = model.b1 * np.exp(-model.b2 * np.exp(-model.b3 * t))
        return float(np.linalg.norm(pred - np.asarray(series.values)))

    fit = fit_gompertz(series, init)
    assert fit.residual_norm <= residual_norm(init) + 1e-12


def test_fit_constant_series_flagged():
    series = PenetrationSeries(years=tuple(range(2000, 2012)), values=(20.0,) * 12)
    fit = fit_gompertz(series, AdoptionModel(b1=30.0, b2=2.0, b3=0.1))
    assert isinstance(fit, GompertzFit)
    assert (not fit.success) or fit.at_boundary


def test_fit_requires_enough_points():
    series = PenetrationSeries(years=(2000, 2001, 2002), values=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        fit_gompertz(series, BASELINE_MODEL)


def test_series_validation_and_csv():
    with pytest.raises(ValueError):
        PenetrationSeries(years=(2000, 2000), values=(1.0, 2.0))
    with pytest.raises(ValueError):
        PenetrationSeries(years=(2000, 2001), values=(1.0, 200.0))
