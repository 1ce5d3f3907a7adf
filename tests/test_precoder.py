import numpy as np
import pytest

from eesscoex.precoder import (
    SinrTargets,
    _solve_grams,
    sinr_target,
    solve_power_min,
)
from oracles import min_power_bisection


def _instance(seed, n=None, k=None):
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(2, 7))
    k = k if k is not None else int(rng.integers(1, min(n, 3) + 1))
    h = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
    g = 10.0 ** rng.uniform(-10, -8, k)
    gammas = tuple(10.0 ** rng.uniform(-0.5, 0.7, k))
    return h, g, gammas


def test_sinr_target_values():
    assert sinr_target(500e6, 250e6) == pytest.approx(3.0)
    assert 10 * np.log10(sinr_target(500e6, 250e6)) == pytest.approx(4.771, abs=1e-3)
    assert sinr_target(100e6, 250e6) == pytest.approx(0.31951, abs=1e-5)
    assert sinr_target(0.0, 250e6) == 0.0
    with pytest.raises(ValueError):
        sinr_target(1e8, 0.0)


def test_single_user_closed_form():
    rng = np.random.default_rng(0)
    for n in (1, 4, 64):
        h = (rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))) / np.sqrt(2)
        g = np.array([3.2e-10])
        noise = 1e-12
        gamma = 2.5
        sol = solve_power_min(h, g, SinrTargets.uniform(gamma, 1), noise)
        closed = gamma * noise / (g[0] * np.linalg.norm(h[0]) ** 2)
        assert sol.p_tx_w == pytest.approx(closed, rel=1e-10)
        assert sol.feasible and sol.converged


def test_zero_targets_zero_power():
    h, g, _ = _instance(1, n=4, k=2)
    sol = solve_power_min(h, g, SinrTargets(gammas=(0.0, 0.0)), 1e-12)
    assert sol.p_tx_w == 0.0
    assert np.all(sol.w == 0)
    assert sol.feasible


def test_mixed_zero_target_matches_reduced_problem():
    h, g, _ = _instance(2, n=4, k=2)
    full = solve_power_min(h, g, SinrTargets(gammas=(1.5, 0.0)), 1e-12)
    reduced = solve_power_min(h[:1], g[:1], SinrTargets(gammas=(1.5,)), 1e-12)
    assert full.p_tx_w == pytest.approx(reduced.p_tx_w, rel=1e-10)
    assert np.linalg.norm(full.w[1]) == 0.0


def test_oracle_equivalence_sample():
    # light sample here; the acceptance suite runs the full 100 seeds
    worst = 0.0
    for seed in range(40):
        h, g, gammas = _instance(seed)
        sol = solve_power_min(h, g, SinrTargets(gammas=gammas), 1e-11)
        assert sol.converged
        ref = min_power_bisection(h, g, gammas, 1e-11)
        worst = max(worst, abs(sol.p_tx_w - ref) / ref)
    assert worst < 1e-4


def test_sinr_tightness():
    for seed in range(25):
        h, g, gammas = _instance(seed)
        sol = solve_power_min(h, g, SinrTargets(gammas=gammas), 1e-11)
        ratios = sol.sinr / np.asarray(gammas)
        assert np.max(np.abs(ratios - 1.0)) < 1e-6
        assert sol.duality_gap < 1e-6


def test_power_identity():
    h, g, gammas = _instance(11)
    sol = solve_power_min(h, g, SinrTargets(gammas=gammas), 1e-11)
    assert sol.p_tx_w == pytest.approx(float(np.sum(np.abs(sol.w) ** 2)), rel=1e-12)


def test_monotone_in_targets():
    h, g, gammas = _instance(5, n=6, k=3)
    base = solve_power_min(h, g, SinrTargets(gammas=gammas), 1e-11)
    for k in range(3):
        bumped = list(gammas)
        bumped[k] *= 1.5
        sol = solve_power_min(h, g, SinrTargets(gammas=tuple(bumped)), 1e-11)
        assert sol.p_tx_w > base.p_tx_w


def test_scale_covariance():
    h, g, gammas = _instance(9, n=5, k=3)
    base = solve_power_min(h, g, SinrTargets(gammas=gammas), 1e-11)
    scaled = solve_power_min(h, g * 7.5, SinrTargets(gammas=gammas), 1e-11)
    assert scaled.p_tx_w * 7.5 == pytest.approx(base.p_tx_w, rel=1e-9)


def test_budget_regimes():
    # The kernel's per-problem cap is the scenario's power cap: the hardware
    # cap or, if lower, the RFI cap.
    h, g, gammas = _instance(3, n=4, k=2)
    h_eff = h * np.sqrt(g)[:, None]
    inv_gram = np.linalg.inv(h_eff.conj() @ h_eff.T)[None]

    def solve(p_max_w):
        p_tx, feasible = _solve_grams(inv_gram, np.array(gammas), 1e-11, p_max_w)[:2]
        return float(p_tx[0]), bool(feasible[0])

    p_star = solve_power_min(h, g, SinrTargets(gammas=gammas), 1e-11).p_tx_w

    # A cap above the optimum never binds.
    p_tx, feasible = solve(2 * p_star)
    assert feasible and p_tx == pytest.approx(p_star, rel=1e-12)

    # Infeasible: the optimum exceeds the cap.
    p_tx, feasible = solve(0.4 * p_star)
    assert not feasible
    # diagnostics still carry the unconstrained optimum
    assert p_tx == pytest.approx(p_star, rel=1e-12)

    # Feasible iff optimum within the cap (boundary included).
    assert solve(p_star)[1]


def test_k_exceeding_n_rejected():
    h, g, _ = _instance(0, n=2, k=2)
    with pytest.raises(ValueError):
        solve_power_min(np.vstack([h, h[:1]]), np.append(g, 1e-9),
                        SinrTargets.uniform(1.0, 3), 1e-12)


def test_input_validation():
    h, g, gammas = _instance(0, n=4, k=2)
    with pytest.raises(ValueError):
        solve_power_min(h, g, SinrTargets(gammas=gammas), 0.0)
    with pytest.raises(ValueError):
        solve_power_min(h, g[:1], SinrTargets(gammas=gammas), 1e-12)
    with pytest.raises(ValueError):
        SinrTargets(gammas=())
    with pytest.raises(ValueError):
        SinrTargets(gammas=(-1.0,))
