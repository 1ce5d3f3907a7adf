import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from eesscoex import airlink
from eesscoex.airlink import (
    BOLTZMANN_J_PER_K,
    CellConfig,
    _distances,
    _draw_buffers,
    _draw_trials,
    _gains,
    draw_channels,
    los_probability,
    noise_power_w,
    trial_rng,
    umi_los_path_loss_db,
    umi_nlos_path_loss_db,
)
from oracles import mean_inverse_gain

CFG = CellConfig()
MODES = ("uniform-distance", "uniform-area")


def _draw_one(cell, rng):
    """One trial's (h, g, los) from `_draw_trials`, the reader `draw_channels` runs."""
    u, z, h = _draw_buffers(cell, 1)
    g, los = _draw_trials(cell, [rng], u, z, h)
    return h[0], g[0], los[0]


def _restated_trial(cell, seed, t):
    """Trial t's (h, g, los), restated as one read per vector of its substream
    in the README's order: position, angle and LOS uniforms, shadowing
    normals, real then imaginary fading, with the fading formed as
    (re + 1j im) / sqrt(2)."""
    k, m = cell.n_users, cell.n_antennas
    rng = trial_rng(seed, t)
    u_pos, _, u_los = rng.random(k), rng.random(k), rng.random(k)
    normals = rng.standard_normal(k) if cell.shadowing else None
    re, im = rng.standard_normal((k, m)), rng.standard_normal((k, m))
    d = _distances(cell, u_pos)
    los = (u_los < los_probability(d) if cell.los_mode == "model"
           else np.full(k, cell.los_mode == "los"))
    return (re + 1j * im) / np.sqrt(2.0), _gains(d, los, cell, normals), los


def test_positions_within_annulus():
    u = np.random.default_rng(0).random(1000)
    for mode in MODES:
        cfg = CellConfig(distance_mode=mode)
        d = _distances(cfg, u)
        assert np.all((d >= 10.0) & (d <= 150.0))
        assert _distances(cfg, np.array([0.0]))[0] == 10.0
        assert _distances(cfg, np.array([1.0]))[0] == pytest.approx(150.0, rel=1e-15)


def test_uniform_distance_mean():
    d = _distances(CFG, np.random.default_rng(1).random(100_000))
    assert abs(d.mean() - 80.0) < 1.0


def test_uniform_area_mean():
    cfg = CellConfig(distance_mode="uniform-area")
    d = _distances(cfg, np.random.default_rng(2).random(100_000))
    expected = (2.0 / 3.0) * (150.0**3 - 10.0**3) / (150.0**2 - 10.0**2)
    assert abs(d.mean() - expected) < 1.0


def test_positions_deterministic():
    # A trial's distances are its substream's first K uniforms, so with the
    # LOS state forced and no shadowing its gains follow from them alone.
    for mode in MODES:
        cfg = CellConfig(distance_mode=mode, los_mode="los", shadowing=False)
        d = _distances(cfg, trial_rng(123, 5).random(cfg.n_users))
        expected = _gains(d, np.ones(cfg.n_users, dtype=bool), cfg, None)
        assert np.array_equal(_draw_one(cfg, trial_rng(123, 5))[1], expected)


def test_los_probability_values():
    assert los_probability(10.0) == 1.0
    assert los_probability(18.0) == 1.0
    assert los_probability(150.0) == pytest.approx(0.1337, abs=2e-4)
    assert los_probability(150.0) == pytest.approx(
        18 / 150 + np.exp(-150 / 36) * (1 - 18 / 150))


def test_los_probability_monotone():
    d = np.linspace(18.0, 500.0, 1000)
    p = los_probability(d)
    assert np.all(np.diff(p) <= 1e-12)
    with pytest.raises(ValueError):
        los_probability(-1.0)


def test_los_path_loss_pre_breakpoint():
    # d'BP = 4 * 9 * 0.5 * f/c = 436.5 m at 7.275 GHz, so 150 m uses the
    # first slope: 32.4 + 21 log10(d3D) + 20 log10(f).
    d3d = np.hypot(150.0, 10.0 - 1.5)
    expected = 32.4 + 21 * np.log10(d3d) + 20 * np.log10(7.275)
    assert umi_los_path_loss_db(150.0, CFG) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(95.3, abs=0.1)


def test_los_path_loss_post_breakpoint_slope():
    cfg = CellConfig(carrier_ghz=7.275)
    # Beyond the breakpoint the 40 log10 d slope applies and is continuous
    # in level ordering (steeper than the first slope).
    pl_bp_minus = umi_los_path_loss_db(436.0, cfg)
    pl_bp_plus = umi_los_path_loss_db(437.0, cfg)
    pl_far = umi_los_path_loss_db(874.0, cfg)
    assert pl_bp_plus > pl_bp_minus
    assert pl_far - pl_bp_plus == pytest.approx(40 * np.log10(874.0 / 437.0), abs=0.05)


def test_nlos_at_least_los():
    d = np.linspace(10.0, 500.0, 500)
    assert np.all(umi_nlos_path_loss_db(d, CFG) >= umi_los_path_loss_db(d, CFG))


def test_path_loss_without_shadowing_deterministic():
    cfg = CellConfig(shadowing=False)
    d, los = np.array([50.0, 120.0]), np.array([True, False])
    g = _gains(d, los, cfg, None)
    assert np.array_equal(g, _gains(d, los, cfg, None))
    pl = [umi_los_path_loss_db(50.0, cfg), umi_nlos_path_loss_db(120.0, cfg)]
    assert g == pytest.approx(10 ** ((15.0 - np.array(pl)) / 10.0), rel=1e-12)


def test_shadowing_statistics():
    # g in dB must be Gaussian around tx_gain - PL with the configured
    # sigma; check the mean at 3-sigma confidence over 1e4 draws.
    cfg = CellConfig()
    rng = np.random.default_rng(11)
    n = 10_000
    for los, sigma in ((True, 4.0), (False, 7.82)):
        d = np.full(n, 90.0)
        flags = np.full(n, los)
        g_db = 10 * np.log10(_gains(d, flags, cfg, rng.standard_normal(n)))
        pl = (umi_los_path_loss_db(90.0, cfg) if los
              else umi_nlos_path_loss_db(90.0, cfg))
        center = 15.0 - pl
        assert abs(g_db.mean() - center) < 3 * sigma / np.sqrt(n)
        assert abs(g_db.std() - sigma) < 0.05 * sigma


def test_noise_power():
    assert noise_power_w(290.0, 250e6) == pytest.approx(1.001e-12, rel=1e-3)
    assert 10 * np.log10(noise_power_w(290.0, 250e6)) == pytest.approx(-120.0, abs=0.01)
    assert noise_power_w(290.0, 250e6) == BOLTZMANN_J_PER_K * 290.0 * 250e6


def test_channel_norm_expectation():
    cfg = CellConfig(n_antennas=64, n_users=4)
    norms = []
    for t in range(2500):
        h, _, _ = _draw_one(cfg, trial_rng(5, t))
        norms.extend(np.sum(np.abs(h) ** 2, axis=1))
    assert abs(np.mean(norms) / cfg.n_antennas - 1.0) < 0.02


def test_channel_determinism():
    a = _draw_one(CFG, trial_rng(99, 3))
    b = _draw_one(CFG, trial_rng(99, 3))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_channel_fields():
    h, g, los = _draw_one(CFG, trial_rng(0, 0))
    assert h.shape == (8, 256)
    assert g.shape == los.shape == (8,)
    assert np.all(g > 0)


def test_los_fraction_matches_quadrature():
    # Empirical LOS fraction vs the analytic mean of the LOS probability
    # under the uniform-distance draw (independent quadrature).
    analytic = quad(lambda d: los_probability(d) / 140.0, 10.0, 150.0)[0]
    cfg = CellConfig(n_users=100, n_antennas=100)
    hits = 0
    for t in range(1000):
        hits += int(np.count_nonzero(_draw_one(cfg, trial_rng(21, t))[2]))
    fraction = hits / (1000 * cfg.n_users)
    assert abs(fraction - analytic) < 0.01


def test_forced_los_modes():
    for mode, expected in (("los", True), ("nlos", False)):
        cfg = CellConfig(los_mode=mode)
        _, _, los = _draw_one(cfg, trial_rng(4, 0))
        assert np.all(los == expected)


def test_config_validation():
    with pytest.raises(ValueError):
        CellConfig(r_min_m=200.0)
    with pytest.raises(ValueError):
        CellConfig(n_antennas=4, n_users=8)
    with pytest.raises(ValueError):
        CellConfig(distance_mode="clustered")
    with pytest.raises(ValueError):
        CellConfig(los_mode="sometimes")
    with pytest.raises(ValueError):
        CellConfig(carrier_ghz=float("nan"))


def _cells(**size):
    """One cell per geometry mode: distance x LOS mode x shadowing."""
    return [CellConfig(distance_mode=distance_mode, los_mode=los_mode, shadowing=shadowing,
                       **size)
            for distance_mode, los_mode, shadowing in itertools.product(
                MODES, ("model", "los", "nlos"), (True, False))]


@pytest.mark.parametrize("cell", _cells(n_antennas=8), ids=lambda cell: "-".join(
    (cell.distance_mode, cell.los_mode, "shadowed" if cell.shadowing else "unshadowed")))
def test_mean_inverse_gain_matches_the_quadrature_oracle(cell):
    # The zero-forcing power scales with E[1/g].  g's law does not depend on
    # the array size, so N = 8 keeps 4000 trials cheap; the K users of a
    # trial draw independently, so the sample holds 4000 K values.
    trials = 4000
    u, z, h = _draw_buffers(cell, trials)
    g, _ = _draw_trials(cell, [trial_rng(0, t) for t in range(trials)], u, z, h)
    inverse = 1.0 / g.ravel()
    expected = mean_inverse_gain(cell.r_min_m, cell.r_cell_m, cell.carrier_ghz,
                                 cell.bs_height_m, cell.ut_height_m, cell.tx_gain_users_db,
                                 cell.distance_mode, cell.los_mode, cell.shadowing)
    z_score = (inverse.mean() - expected) / (inverse.std(ddof=1) / np.sqrt(inverse.size))
    assert abs(z_score) < 4, (expected, inverse.mean(), z_score)


def _assert_gram_stack(cell, seed, trials):
    """`draw_channels` equals, whole matrix by whole matrix and bitwise, the
    Gram matrices of each trial's restated stream; returns the stack."""
    grams = draw_channels(cell, seed, trials)
    assert grams.shape == (trials, cell.n_users, cell.n_users)
    for t, gram in enumerate(grams):
        h, g, _ = _restated_trial(cell, seed, t)
        h_eff = h * np.sqrt(g)[:, None]
        assert np.array_equal(gram, h_eff.conj() @ h_eff.T), (cell, t)
    return grams


def test_draw_channels_is_gram_stack():
    # Whole matrices, bitwise, against each trial's restated stream, in
    # every geometry mode; the trial count crosses a block boundary of the
    # draw.
    trials = airlink._DRAW_BLOCK_TRIALS + 3
    for cell in _cells(n_users=4, n_antennas=32):
        grams = _assert_gram_stack(cell, 3, trials)
        assert np.array_equal(grams, np.conj(np.swapaxes(grams, 1, 2)))
        for n in (1, airlink._DRAW_BLOCK_TRIALS, trials - 1):
            assert np.array_equal(draw_channels(cell, 3, n), grams[:n]), (cell, n)


def test_draw_channels_is_gram_stack_for_the_default_cell():
    # The block buffers are sized by the trial count: no trials (an empty
    # (0, K, K) stack), one trial, and one trial past a full block, at the
    # default K = 8, N = 256.
    for cell in _cells():
        for trials in (0, 1, airlink._DRAW_BLOCK_TRIALS + 1):
            _assert_gram_stack(cell, 3, trials)


def test_draw_trials_reads_the_documented_stream():
    # Every trial of one multi-trial call, the first and those after it,
    # is bitwise its substream's restated stream.
    trials = 8
    for cell in _cells():
        u, z, h = _draw_buffers(cell, trials)
        g, los = _draw_trials(cell, [trial_rng(11, t) for t in range(trials)], u, z, h)
        for t in range(trials):
            h_t, g_t, los_t = _restated_trial(cell, 11, t)
            assert h[t].tobytes() == h_t.tobytes(), (cell, t)
            assert g[t].tobytes() == g_t.tobytes(), (cell, t)
            assert np.array_equal(los[t], los_t), (cell, t)


def test_draw_memory_scales_with_the_block_not_the_trials():
    # Peak traced memory beyond the returned stack: the block buffers and
    # one block's temporaries, the same at 1000 trials as at two blocks.
    def overhead(trials):
        tracemalloc.start()
        try:
            grams = draw_channels(CFG, 0, trials)
            return tracemalloc.get_traced_memory()[1] - grams.nbytes
        finally:
            tracemalloc.stop()

    draw_channels(CFG, 0, 1)  # one-time allocations outside the measurement
    two_blocks = overhead(2 * airlink._DRAW_BLOCK_TRIALS)
    assert overhead(1000) == pytest.approx(two_blocks, rel=0.05)


def test_fading_does_not_depend_on_the_los_mode():
    for shadowing in (True, False):
        h = [_draw_one(CellConfig(n_users=4, n_antennas=32, los_mode=mode,
                                  shadowing=shadowing), trial_rng(5, 2))[0]
             for mode in ("model", "los", "nlos")]
        assert np.array_equal(h[0], h[1]) and np.array_equal(h[1], h[2])
