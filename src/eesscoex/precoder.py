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
The private kernel `_solve_grams` solves a whole (T, K, K) stack of trials
with stacked LAPACK/BLAS calls, each trial leaving the iteration once it
converges; `solve_power_min` is its T = 1 case.  The fixed point is found by
Newton steps from the zero-forcing powers (Boche & Schubert, IEEE/ACM Trans.
Netw. 2008), a few iterations per trial where the plain iteration takes tens.
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

_TOL = 1e-12  # fixed-point stop: relative change of the uplink powers
_MAX_ITERATIONS = 1000


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


def _solve_grams(grams, gam, noise_w, p_max_w) -> tuple:
    """Minimum total power for positive SINR targets `gam` from a (T, K, K)
    stack of Gram matrices G of the effective channels, one trial per matrix;
    a trial is feasible if converged and <= `p_max_w`.  Returns per-trial
    arrays (p_tx, feasible, converged, iterations, q, p, directions).

    The dual uplink powers solve q_k = (gamma_k / (1 + gamma_k)) / x_k(q) with
    x_k(q) = [A]_kk, A = G (sigma^2 I + diag(q) G)^{-1} (Schubert & Boche, IEEE
    TVT 2004).  Newton steps on F(q) = q - scale / x(q), whose Jacobian is
    I - (scale / x^2) |A|^2 elementwise, start at the zero-forcing powers
    gamma sigma^2 diag(G^{-1}).  MMSE SINR is at least ZF SINR, so the start
    lies above the fixed point, where the iterates fall monotonically onto it
    (Boche & Schubert, IEEE/ACM Trans. Netw. 2008).  Each trial converges on
    its own, once its step is within `_TOL` of q or, after the first, no
    longer shrinks: at high targets rounding error sets the step before
    `_TOL` is met.  A converged trial leaves the active set and its q and
    iteration count freeze, so a batch equals each trial solved alone.  MMSE
    directions and the exact downlink power load follow from the converged q.
    """
    n_trials, ka = grams.shape[:2]
    eye = np.eye(ka)
    diag = np.arange(ka)

    # Uplink powers by Newton steps from the zero-forcing powers, over the
    # active trials.
    q = gam * noise_w * np.real(np.linalg.inv(grams)[:, diag, diag])
    scale = gam / (1.0 + gam)
    converged = np.zeros(n_trials, dtype=bool)
    iterations = np.zeros(n_trials, dtype=int)
    last_step = np.full(n_trials, np.inf)
    active = np.arange(n_trials)
    for iteration in range(1, _MAX_ITERATIONS + 1):
        if not len(active):
            break
        g_act, q_act = grams[active], q[active]
        a = g_act @ np.linalg.inv(noise_w * eye + q_act[:, :, None] * g_act)
        x = np.real(a[:, diag, diag])
        jac = eye - (scale / x ** 2)[:, :, None] * np.abs(a) ** 2  # dx/dq = -|A|^2
        q_new = q_act - np.linalg.solve(jac, (q_act - scale / x)[:, :, None])[:, :, 0]
        step = np.max(np.abs(q_new - q_act), axis=1)
        done = ((step <= _TOL * np.maximum(np.max(q_new, axis=1), 1e-300))
                | ((iteration > 1) & (step >= last_step[active])))
        last_step[active] = step
        q[active] = q_new
        iterations[active] = iteration
        converged[active[done]] = True
        active = active[~done]

    # MMSE beam directions from the converged uplink powers.
    coeffs = np.linalg.inv(noise_w * eye + q[:, :, None] * grams)  # columns b_k
    beam_norms = np.sqrt(np.real(np.einsum("tik,tij,tjk->tk", coeffs.conj(), grams, coeffs)))
    coeffs = coeffs / beam_norms[:, None, :]
    cross = grams @ coeffs                  # cross[t, k, j] = h_k^H u_j
    c2 = np.abs(cross) ** 2

    # Downlink powers solving each trial's K x K tight-SINR system.
    m_dl = -c2.astype(float)
    m_dl[:, diag, diag] = c2[:, diag, diag] / gam
    p = np.linalg.solve(m_dl, np.full((n_trials, ka, 1), noise_w))[:, :, 0]
    p_tx = np.sum(p, axis=1)
    feasible = converged & (p_tx <= p_max_w * (1.0 + 1e-9))
    return p_tx, feasible, converged, iterations, q, p, coeffs


def solve_power_min(h: np.ndarray, g: np.ndarray, targets: SinrTargets,
                    noise_w: float, budget: RfiBudget = None) -> PrecodeSolution:
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
    p_tx, feasible, converged, iterations, q, p, coeffs = (
        out[0] for out in _solve_grams(gram[None], gamma[active], noise_w, p_max_w))
    p_tx = float(p_tx)
    duality_gap = abs(p_tx - float(np.sum(q))) / max(p_tx, 1e-300)

    w_active = (h_eff.T @ coeffs * np.sqrt(p)).T
    w = np.zeros_like(h)
    w[active] = w_active

    # Achieved SINRs recomputed from the beams (verification form).
    s = np.abs((h * np.sqrt(g)[:, None]).conj() @ w.T) ** 2
    signal = np.diagonal(s).copy()
    interference = np.sum(s, axis=1) - signal
    sinr = signal / (noise_w + interference)

    return PrecodeSolution(w=w, p_tx_w=p_tx, feasible=bool(feasible), sinr=sinr,
                           converged=bool(converged), iterations=int(iterations),
                           duality_gap=duality_gap)
