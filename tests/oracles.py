"""Independent reference implementations used only by the tests.

Each oracle deliberately takes a different computational route from the
production code: Chebyshev polynomials via the three-term recurrence
instead of the cosh form, leakage integrals via composite Simpson on a
1 kHz grid, minimum-power beamforming via bisection on the total power
with feasibility decided by an eigenvalue-based SINR-balancing iteration,
and the mean inverse large-scale gain by quadrature over distance instead
of sampling.
"""

import math

import numpy as np
from scipy.integrate import quad, simpson


def chebyshev_poly(order, x):
    """T_n(x) by the three-term recurrence (no trig/hyperbolic identities)."""
    x = np.asarray(x, dtype=float)
    t_prev = np.ones_like(x)
    if order == 0:
        return t_prev
    t_cur = x.copy()
    for _ in range(order - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    return t_cur


def poly_power_response(f_ghz, order, ripple_db, lo_ghz, hi_ghz):
    """|H(f)|^2 via polynomial evaluation of T_n on the prototype axis."""
    f = np.asarray(f_ghz, dtype=float)
    f0 = np.sqrt(lo_ghz * hi_ghz)
    omega = (f / f0 - f0 / f) / ((hi_ghz - lo_ghz) / f0)
    eps2 = 10.0 ** (ripple_db / 10.0) - 1.0
    t = chebyshev_poly(order, omega)
    return 1.0 / (1.0 + eps2 * t * t)


def simpson_delta(order, ripple_db, lo_ghz, hi_ghz, window_lo_ghz, window_hi_ghz,
                  bs_bandwidth_mhz, step_khz=1.0):
    """Leakage fraction by composite Simpson on a dense (default 1 kHz) grid."""
    n = int(round((window_hi_ghz - window_lo_ghz) / (step_khz * 1e-6)))
    freqs = np.linspace(window_lo_ghz, window_hi_ghz, n + 1)
    resp = poly_power_response(freqs, order, ripple_db, lo_ghz, hi_ghz)
    return simpson(resp, x=freqs) * 1e3 / bs_bandwidth_mhz


def zero_forcing_power(h, g, gammas, noise_w):
    """Total power of the zero-forcing solution (feasible upper bound)."""
    heff = h * np.sqrt(np.asarray(g, dtype=float))[:, None]
    gram = heff.conj() @ heff.T
    directions = heff.T @ np.linalg.inv(gram)  # columns w_k, h_j^H w_k = delta_jk
    total = 0.0
    for k, gamma in enumerate(gammas):
        wk = directions[:, k]
        eff = abs(np.vdot(heff[k], wk)) ** 2
        total += gamma * noise_w / eff * np.linalg.norm(wk) ** 2
    return total


def balanced_level(h, g, gammas, noise_w, total_power, iterations=300, tol=1e-11):
    """Max-min balanced SINR-to-target ratio C under a sum-power budget.

    Alternates MMSE receiver updates with the extended coupling-matrix
    eigenproblem (uplink domain); feasibility of the targets under
    `total_power` is C >= 1.
    """
    heff = h * np.sqrt(np.asarray(g, dtype=float))[:, None]
    k_users, n_ant = heff.shape
    gammas = np.asarray(gammas, dtype=float)
    q = np.full(k_users, total_power / k_users)
    level = None
    ones = np.ones(k_users)
    for _ in range(iterations):
        sigma = noise_w * np.eye(n_ant, dtype=complex)
        for k in range(k_users):
            hk = heff[k][:, None]
            sigma += q[k] * (hk @ hk.conj().T)
        receivers = np.linalg.solve(sigma, heff.T)  # columns u_k
        a = np.abs(np.einsum("nk,kn->k", receivers.conj(), heff)) ** 2
        cross = np.abs(receivers.conj().T @ heff.T) ** 2  # [k, j] = |u_k^H h_j|^2
        b = cross - np.diag(np.diagonal(cross))
        n_vec = noise_w * np.sum(np.abs(receivers) ** 2, axis=0)
        d = gammas / a
        top = np.hstack([d[:, None] * b, (d * n_vec)[:, None]])
        bottom = np.hstack([(ones @ (d[:, None] * b)) / total_power,
                            [(ones @ (d * n_vec)) / total_power]])
        ext = np.vstack([top, bottom])
        eigvals, eigvecs = np.linalg.eig(ext)
        idx = int(np.argmax(eigvals.real))
        lam = float(eigvals[idx].real)
        vec = eigvecs[:, idx].real
        vec = vec / vec[-1]
        q = np.maximum(vec[:k_users], 0.0)
        scale = total_power / max(q.sum(), 1e-300)
        q = q * scale
        new_level = 1.0 / lam
        if level is not None and abs(new_level - level) <= tol * max(abs(new_level), 1e-30):
            level = new_level
            break
        level = new_level
    return level


def min_power_bisection(h, g, gammas, noise_w, rel_tol=1e-7):
    """Minimum total power meeting the targets: bisection on the budget,
    feasibility via the balancing level."""
    hi = zero_forcing_power(h, g, gammas, noise_w)
    assert balanced_level(h, g, gammas, noise_w, hi) >= 1.0 - 1e-9
    lo = 0.0
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if balanced_level(h, g, gammas, noise_w, mid) >= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


# TR 38.901 UMi-Street Canyon: shadowing sigma per link state, effective
# environment height, and the speed of light its breakpoint uses.
_SIGMA_LOS_DB, _SIGMA_NLOS_DB = 4.0, 7.82
_H_E_M, _C_M_S = 1.0, 3.0e8


def _umi_los_db(d2d, carrier_ghz, bs_height_m, ut_height_m):
    dz = bs_height_m - ut_height_m
    d3d = math.hypot(d2d, dz)
    d_bp = 4.0 * (bs_height_m - _H_E_M) * (ut_height_m - _H_E_M) * carrier_ghz * 1e9 / _C_M_S
    if d2d <= d_bp:
        return 32.4 + 21.0 * math.log10(d3d) + 20.0 * math.log10(carrier_ghz)
    return (32.4 + 40.0 * math.log10(d3d) + 20.0 * math.log10(carrier_ghz)
            - 9.5 * math.log10(d_bp ** 2 + dz ** 2))


def _umi_nlos_db(d2d, carrier_ghz, bs_height_m, ut_height_m):
    d3d = math.hypot(d2d, bs_height_m - ut_height_m)
    nlos = (35.3 * math.log10(d3d) + 22.4 + 21.3 * math.log10(carrier_ghz)
            - 0.3 * (ut_height_m - 1.5))
    return max(_umi_los_db(d2d, carrier_ghz, bs_height_m, ut_height_m), nlos)


def mean_inverse_gain(r_min_m, r_cell_m, carrier_ghz, bs_height_m, ut_height_m,
                      tx_gain_users_db, distance_mode, los_mode, shadowing):
    """E[1/g] of one user's linear large-scale gain g = 10^((G - PL - SF)/10):
    the integral over the 2-D distance law of the LOS-probability mix of
    10^((PL - G)/10) times the lognormal moment E[10^(SF/10)] =
    exp((sigma ln 10 / 10)^2 / 2), broken where the integrand has a kink
    (18 m, the breakpoint distance)."""
    def moment(sigma_db):
        return math.exp((sigma_db * math.log(10.0) / 10.0) ** 2 / 2.0) if shadowing else 1.0

    def p_los(d):
        if los_mode != "model":
            return 1.0 if los_mode == "los" else 0.0
        return 1.0 if d <= 18.0 else 18.0 / d + math.exp(-d / 36.0) * (1.0 - 18.0 / d)

    def density(d):
        if distance_mode == "uniform-distance":
            return 1.0 / (r_cell_m - r_min_m)
        return 2.0 * d / (r_cell_m ** 2 - r_min_m ** 2)

    def integrand(d):
        los = 10.0 ** ((_umi_los_db(d, carrier_ghz, bs_height_m, ut_height_m)
                        - tx_gain_users_db) / 10.0) * moment(_SIGMA_LOS_DB)
        nlos = 10.0 ** ((_umi_nlos_db(d, carrier_ghz, bs_height_m, ut_height_m)
                         - tx_gain_users_db) / 10.0) * moment(_SIGMA_NLOS_DB)
        p = p_los(d)
        return density(d) * (p * los + (1.0 - p) * nlos)

    d_bp = 4.0 * (bs_height_m - _H_E_M) * (ut_height_m - _H_E_M) * carrier_ghz * 1e9 / _C_M_S
    kinks = [d for d in (18.0, d_bp) if r_min_m < d < r_cell_m]
    return quad(integrand, r_min_m, r_cell_m, points=kinks or None, epsrel=1e-10, limit=200)[0]
