import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eesscoex.filterbank import (
    FilterSpec,
    edge_psd_margin,
    leaked_psd_dbm_per_mhz,
    leakage_fraction,
    power_response,
    worst_victim_window,
)
from eesscoex.linkbudget import load_sensor_catalog
from oracles import poly_power_response, simpson_delta

SPEC_25 = FilterSpec(order=7, ripple_db=0.2, passband_low_ghz=7.15, passband_high_ghz=7.40)
B5_WINDOW = (6.925, 7.125)


def test_center_response_unity_odd_order():
    assert power_response(SPEC_25, SPEC_25.center_ghz) == pytest.approx(1.0, abs=1e-12)


def test_response_matches_polynomial_oracle():
    freqs = np.array([6.925, 7.0, 7.1, 7.1245, 7.2, 7.275, 7.35, 7.5])
    ours = power_response(SPEC_25, freqs)
    ref = poly_power_response(freqs, 7, 0.2, 7.15, 7.40)
    assert np.allclose(ours, ref, rtol=1e-9)


def test_response_at_band_edge_value():
    # Transition-band point 0.5 MHz below the allocation edge.
    resp = power_response(SPEC_25, 7.1245)
    assert 10 * np.log10(resp) == pytest.approx(-19.33, abs=0.05)
    assert resp == pytest.approx(0.0117, abs=2e-4)


def test_passband_stays_within_ripple_band():
    freqs = np.linspace(7.15, 7.40, 20001)
    resp = power_response(SPEC_25, freqs)
    assert resp.max() <= 1.0 + 1e-12
    assert resp.min() >= 10.0 ** (-SPEC_25.ripple_db / 10.0) - 1e-9


def test_normalization_max_is_unity():
    for order in (3, 4, 5, 6, 7, 9):
        spec = FilterSpec(order=order, ripple_db=0.5)
        freqs = np.linspace(spec.passband_low_ghz, spec.passband_high_ghz, 200001)
        assert abs(power_response(spec, freqs).max() - 1.0) < 1e-9


def test_equiripple_minima_count():
    # |H|^2 touches the ripple floor at order+1 points across the band
    # (both edges plus order-1 interior extrema).
    spec = SPEC_25
    freqs = np.linspace(spec.passband_low_ghz, spec.passband_high_ghz, 400001)
    resp = power_response(spec, freqs)
    floor = 10.0 ** (-spec.ripple_db / 10.0)
    assert abs(resp.min() - floor) < 1e-6
    near = resp <= floor + 1e-6
    clusters = int(np.count_nonzero(np.diff(near.astype(int)) == 1))
    if near[0]:
        clusters += 1
    assert clusters == spec.order + 1


def test_stopband_monotone_decreasing():
    freqs = np.linspace(7.41, 7.9, 2000)  # above the passband, Omega > 1
    resp = power_response(SPEC_25, freqs)
    assert np.all(np.diff(resp) < 0)
    freqs = np.linspace(6.80, 7.14, 2000)  # below the passband
    resp = power_response(SPEC_25, freqs)
    assert np.all(np.diff(resp) > 0)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        power_response(SPEC_25, 0.0)
    with pytest.raises(ValueError):
        power_response(SPEC_25, -1.0)
    with pytest.raises(ValueError):
        FilterSpec(order=0)
    with pytest.raises(ValueError):
        FilterSpec(ripple_db=0.0)
    with pytest.raises(ValueError):
        FilterSpec(passband_low_ghz=7.4, passband_high_ghz=7.15)


def test_worst_victim_window_b5():
    window = worst_victim_window((6.725, 7.125), 200.0, (7.15, 7.40))
    assert window[0] == pytest.approx(6.925)
    assert window[1] == pytest.approx(7.125)


def test_worst_victim_window_b1():
    window = worst_victim_window((6.750, 7.100), 200.0, (7.15, 7.40))
    assert window[0] == pytest.approx(6.900)
    assert window[1] == pytest.approx(7.100)


def test_worst_victim_window_exact_span():
    window = worst_victim_window((6.925, 7.125), 200.0, (7.15, 7.40))
    assert window == pytest.approx((6.925, 7.125))


def test_worst_victim_window_errors():
    with pytest.raises(ValueError):
        worst_victim_window((7.0, 7.1), 200.0, (7.15, 7.40))
    with pytest.raises(ValueError):
        worst_victim_window((6.725, 7.125), 200.0, (6.9, 7.0))


def test_leakage_matches_quadrature_oracle():
    delta = leakage_fraction(SPEC_25, B5_WINDOW, 250.0)
    ref = simpson_delta(7, 0.2, 7.15, 7.40, 6.925, 7.125, 250.0)
    assert delta == pytest.approx(ref, rel=1e-3)
    assert delta == pytest.approx(3.397e-4, rel=2e-3)


def test_leakage_grid_convergence():
    coarse = leakage_fraction(SPEC_25, B5_WINDOW, 250.0)
    fine = _restated_delta(SPEC_25, B5_WINDOW, 250.0, step_mhz=0.005)
    assert abs(coarse - fine) / fine < 1e-3


@pytest.mark.parametrize("window", [(7.1, 7.0), (0.0, 7.0)])
def test_leakage_rejects_a_degenerate_window(window):
    with pytest.raises(ValueError, match=re.escape(f"degenerate window [{window[0]}, "
                                                   f"{window[1]}] GHz")):
        leakage_fraction(SPEC_25, window, 250.0)


def test_leakage_rejects_a_fraction_of_one_or_more():
    # A window abutting the passband, normalized by a 1 MHz bandwidth,
    # integrates to several times the transmit power.
    with pytest.raises(ValueError, match=r"^leakage fraction must lie in \[0, 1\), got 7\.9"):
        leakage_fraction(FilterSpec(passband_low_ghz=7.125), B5_WINDOW, 1.0)


def test_leakage_monotone_in_order():
    deltas = [leakage_fraction(FilterSpec(order=l), B5_WINDOW, 250.0)
              for l in (3, 5, 7, 9)]
    assert deltas == sorted(deltas, reverse=True)
    assert all(d > 0 for d in deltas)


def test_leakage_monotone_in_guard():
    deltas = []
    for guard in range(0, 55, 5):
        spec = FilterSpec(passband_low_ghz=7.125 + guard / 1e3)
        bw = spec.bandwidth_mhz
        deltas.append(leakage_fraction(spec, B5_WINDOW, bw))
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_leakage_rejects_overlapping_window():
    with pytest.raises(ValueError):
        leakage_fraction(SPEC_25, (7.0, 7.2), 250.0)


def test_leakage_window_may_touch_passband():
    spec = FilterSpec(passband_low_ghz=7.125)
    delta = leakage_fraction(spec, B5_WINDOW, spec.bandwidth_mhz)
    assert 0 < delta < 1


def test_edge_psd_and_margin():
    psd = leaked_psd_dbm_per_mhz(SPEC_25, -5.0, 7.1245)
    assert psd == pytest.approx(-18.3, abs=0.1)
    margin = edge_psd_margin(SPEC_25, -5.0, 7.1245, limit_dbm_mhz=-13.0)
    assert margin == pytest.approx(5.3, abs=0.1)


def test_edge_psd_flat_inband_reference():
    # Response 1 at the evaluation point: PSD is the in-band density,
    # 25 dBm - 10 log10(250 MHz) = 1.0206 dBm/MHz.
    psd = leaked_psd_dbm_per_mhz(SPEC_25, -5.0, SPEC_25.center_ghz)
    assert psd == pytest.approx(25.0 - 10 * np.log10(250.0), abs=1e-9)
    assert psd == pytest.approx(1.0206, abs=1e-3)


def test_margin_zero_when_limit_equals_psd():
    psd = leaked_psd_dbm_per_mhz(SPEC_25, -5.0, 7.1245)
    assert edge_psd_margin(SPEC_25, -5.0, 7.1245, limit_dbm_mhz=psd) == pytest.approx(0.0)


@pytest.mark.parametrize("f_ghz", [7.15, 7.2, 7.40])
def test_edge_margin_rejects_a_passband_frequency(f_ghz):
    with pytest.raises(ValueError, match=rf"^evaluation frequency {f_ghz} GHz lies in the "
                                         r"passband \[7\.15, 7\.4\] GHz"):
        edge_psd_margin(SPEC_25, -5.0, f_ghz)


@pytest.mark.parametrize("f_ghz", [7.125, 7.1499, 7.4001, 7.5])
def test_edge_margin_outside_the_passband_is_the_limit_less_the_psd(f_ghz):
    # The guard band below the passband and the band above it stay legal.
    psd = leaked_psd_dbm_per_mhz(SPEC_25, -5.0, f_ghz)
    assert edge_psd_margin(SPEC_25, -5.0, f_ghz, limit_dbm_mhz=-13.0) == -13.0 - psd


def test_edge_psd_rejects_nonfinite_power():
    with pytest.raises(ValueError):
        leaked_psd_dbm_per_mhz(SPEC_25, float("nan"), 7.1245)


@settings(max_examples=30, deadline=None)
@given(order=st.integers(min_value=1, max_value=9),
       ripple=st.floats(min_value=0.05, max_value=1.0),
       f=st.floats(min_value=6.5, max_value=8.0))
def test_response_bounds_property(order, ripple, f):
    spec = FilterSpec(order=order, ripple_db=ripple)
    resp = power_response(spec, f)
    assert 0.0 <= resp <= 1.0 + 1e-12


def _restated_response(spec, f):
    """|H(f)|^2 as boolean-indexed numpy: the in-band and out-of-band
    entries of |T_n| gathered, evaluated and scattered back."""
    f0 = spec.center_ghz
    eps2 = 10.0 ** (spec.ripple_db / 10.0) - 1.0
    with np.errstate(over="ignore"):
        x = np.abs((f / f0 - f0 / f) / spec.fractional_bandwidth)
        t = np.empty_like(x)
        inband = x <= 1.0
        t[inband] = np.abs(np.cos(spec.order * np.arccos(x[inband])))
        t[~inband] = np.cosh(spec.order * np.arccosh(x[~inband]))
        return 1.0 / (1.0 + eps2 * t * t)


def _restated_delta(spec, window, bs_bandwidth_mhz, step_mhz=0.01):
    low, high = window
    n = max(int(np.ceil((high - low) / (step_mhz / 1e3))), 1)
    freqs = np.linspace(low, high, n + 1)
    return float(np.trapezoid(_restated_response(spec, freqs), freqs) * 1e3
                 / bs_bandwidth_mhz)


@pytest.mark.parametrize("ripple_db", [0.01, 0.2, 10.0])
@pytest.mark.parametrize("order", [1, 3, 7, 9, 50])
def test_leakage_and_response_equal_the_restated_form_bitwise(order, ripple_db):
    # At guard 0 a window touches the passband edge, so the in-band branch runs.
    sensors = load_sensor_catalog().values()
    freqs = np.linspace(6.5, 8.0, 3001)
    for guard in (0.0, 0.1, 5.0, 25.0, 50.0):
        spec = FilterSpec(order=order, ripple_db=ripple_db,
                          passband_low_ghz=7.125 + guard / 1e3)
        assert power_response(spec, freqs).tobytes() == _restated_response(spec, freqs).tobytes()
        for sensor in sensors:
            window = worst_victim_window(sensor.channel_span_ghz, 200.0,
                                         (spec.passband_low_ghz, spec.passband_high_ghz))
            delta = leakage_fraction(spec, window, spec.bandwidth_mhz)
            assert delta == _restated_delta(spec, window, spec.bandwidth_mhz), (guard, sensor)


def test_power_response_leaves_its_input_and_returns_a_float_for_a_scalar():
    freqs = np.linspace(6.9, 7.6, 701)
    before = freqs.copy()
    power_response(SPEC_25, freqs)
    assert np.array_equal(freqs, before)
    resp = power_response(SPEC_25, 7.1245)
    assert type(resp) is float
    assert resp == _restated_response(SPEC_25, np.array([7.1245]))[0]


def test_leakage_memory_is_a_few_grid_arrays():
    # Peak traced memory of one warm call: the frequency grid and the two
    # response buffers, not a temporary per step of the formula.
    leakage_fraction(SPEC_25, B5_WINDOW, 250.0)
    tracemalloc.start()
    try:
        leakage_fraction(SPEC_25, B5_WINDOW, 250.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid_array = 20001 * np.dtype(float).itemsize  # 200 MHz at the 0.01 MHz step
    assert peak < 4 * grid_array
