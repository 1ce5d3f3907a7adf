"""RFI-aware minimum-power downlink beamforming under perfect CSI.

Solves min sum_k ||w_k||^2 subject to per-user SINR targets and an
optional transmit-power budget that folds the satellite-interference cap
into min(P_BS, I_sat,max / (g_sat * delta)).  The solver runs the
uplink-downlink duality fixed point with MMSE beam directions and an
exact downlink power rescaling, so every feasible solution meets its
targets with equality; the uplink/downlink power match serves as the
optimality certificate.

All linear algebra stays in the K-dimensional user space: the power solve
needs only the K x K Gram matrix, which `solve_power_min` builds, O(N K^2).
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SinrTargets",
    "RfiBudget",
    "PrecodeSolution",
    "sinr_target",
    "solve_power_min",
]


def sinr_target(rate_bps: float, bandwidth_hz: float) -> float:
    """Linear SINR needed for a Shannon rate over the full band: 2^(R/B) - 1."""
    if rate_bps < 0 or bandwidth_hz <= 0:
        raise ValueError("need rate >= 0 and bandwidth > 0")
    return float(2.0 ** (rate_bps / bandwidth_hz) - 1.0)


@dataclass(frozen=True)
class SinrTargets:
    """Per-user linear SINR targets."""

    gammas: tuple

    def __post_init__(self):
        if len(self.gammas) == 0:
            raise ValueError("need at least one target")
        if any(g < 0 for g in self.gammas):
            raise ValueError("SINR targets must be >= 0")

    @classmethod
    def uniform(cls, gamma: float, n_users: int) -> "SinrTargets":
        return cls(gammas=(gamma,) * n_users)


@dataclass(frozen=True)
class RfiBudget:
    """Per-BS power budget combining the hardware cap and the RFI cap."""

    p_bs_w: float
    i_sat_max_w: float = None   # per reference bandwidth, at the sensor
    g_sat_linear: float = None  # BS->sensor net coupling, linear
    delta: float = None         # leakage fraction into the victim window

    def __post_init__(self):
        if self.p_bs_w <= 0:
            raise ValueError(f"BS power cap must be positive, got {self.p_bs_w}")

    @property
    def p_sat_max_w(self) -> float:
        """Transmit power at which the satellite RFI cap binds."""
        if self.i_sat_max_w is None or self.g_sat_linear is None or self.delta is None:
            return float("inf")
        coupling = self.g_sat_linear * self.delta
        if coupling <= 0:
            return float("inf")
        return self.i_sat_max_w / coupling

    @property
    def p_sum_max_w(self) -> float:
        return min(self.p_bs_w, self.p_sat_max_w)


@dataclass(frozen=True)
class PrecodeSolution:
    """Beamformers (rows w_k), total power, feasibility and diagnostics."""

    w: np.ndarray
    p_tx_w: float
    feasible: bool
    sinr: np.ndarray
    converged: bool
    iterations: int
    duality_gap: float


def _solve_gram(gram, gam, noise_w, p_max_w, tol=1e-12, max_iterations=1000) -> tuple:
    """Minimum total power for positive SINR targets `gam` from the (K, K)
    Gram matrix G of the effective channels; feasible if converged and <= `p_max_w`.
    Returns (p_tx, feasible, converged, iterations, q, p, directions).

    The dual uplink powers are iterated via
    q_k <- (gamma_k / (1 + gamma_k)) / [G (sigma^2 I + diag(q) G)^{-1}]_kk;
    MMSE directions and the exact downlink power load follow from the
    converged q.
    """
    ka = len(gam)
    eye = np.eye(ka)

    # Uplink power fixed point (monotone from zero).
    q = np.zeros(ka)
    scale = gam / (1.0 + gam)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        m = noise_w * eye + q[:, None] * gram
        x = np.real(np.diagonal(gram @ np.linalg.inv(m)))
        q_new = scale / x
        if np.max(np.abs(q_new - q)) <= tol * max(np.max(q_new), 1e-300):
            q = q_new
            converged = True
            break
        q = q_new

    # MMSE beam directions from the converged uplink powers.
    coeffs = np.linalg.inv(noise_w * eye + q[:, None] * gram)  # columns b_k
    beam_norms = np.sqrt(np.real(np.einsum("ik,ij,jk->k", coeffs.conj(), gram, coeffs)))
    coeffs = coeffs / beam_norms
    cross = gram @ coeffs                   # cross[k, j] = h_k^H u_j
    c2 = np.abs(cross) ** 2

    # Downlink powers solving the K x K tight-SINR system.
    m_dl = -c2.astype(float)
    np.fill_diagonal(m_dl, np.diagonal(c2) / gam)
    p = np.linalg.solve(m_dl, np.full(ka, noise_w))
    p_tx = float(np.sum(p))
    feasible = converged and p_tx <= p_max_w * (1.0 + 1e-9)
    return p_tx, feasible, converged, iterations, q, p, coeffs


def solve_power_min(h: np.ndarray, g: np.ndarray, targets: SinrTargets,
                    noise_w: float, budget: RfiBudget = None,
                    tol: float = 1e-12, max_iterations: int = 1000) -> PrecodeSolution:
    """Minimum-power beamformers hitting every SINR target with equality.

    Args:
        h: (K, N) small-scale channel rows h_k.
        g: (K,) large-scale linear gains.
        targets: per-user linear SINR targets.
        noise_w: receiver noise power sigma^2.
        budget: optional power budget; when the unconstrained optimum
            exceeds it the solution is returned with feasible=False.
    """
    h = np.asarray(h)
    g = np.asarray(g, dtype=float)
    k_users, n_antennas = h.shape
    if k_users > n_antennas:
        raise ValueError(f"need K <= N, got K={k_users}, N={n_antennas}")
    if len(g) != k_users or len(targets.gammas) != k_users:
        raise ValueError("gains/targets must match the number of users")
    if noise_w <= 0:
        raise ValueError("noise power must be positive")
    gamma = np.asarray(targets.gammas, dtype=float)

    active = gamma > 0
    if not np.any(active):
        w = np.zeros_like(h)
        return PrecodeSolution(w=w, p_tx_w=0.0, feasible=True,
                               sinr=np.zeros(k_users), converged=True,
                               iterations=0, duality_gap=0.0)

    h_eff = h[active] * np.sqrt(g[active])[:, None]
    gram = h_eff.conj() @ h_eff.T  # G[k, j] = h_k^H h_j over the active users
    p_max_w = budget.p_sum_max_w if budget is not None else np.inf
    p_tx, feasible, converged, iterations, q, p, coeffs = _solve_gram(
        gram, gamma[active], noise_w, p_max_w, tol, max_iterations)
    duality_gap = abs(p_tx - float(np.sum(q))) / max(p_tx, 1e-300)

    w_active = (h_eff.T @ coeffs * np.sqrt(p)).T
    w = np.zeros_like(h)
    w[active] = w_active

    # Achieved SINRs recomputed from the beams (verification form).
    s = np.abs((h * np.sqrt(g)[:, None]).conj() @ w.T) ** 2
    signal = np.diagonal(s).copy()
    interference = np.sum(s, axis=1) - signal
    sinr = signal / (noise_w + interference)

    return PrecodeSolution(w=w, p_tx_w=p_tx, feasible=feasible, sinr=sinr,
                           converged=converged, iterations=iterations,
                           duality_gap=duality_gap)
