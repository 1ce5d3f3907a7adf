"""RFI-aware minimum-power downlink beamforming under perfect CSI.

Solves min sum_k ||w_k||^2 subject to per-user SINR targets.  The kernel
also holds each solution against a power cap, which the scenario's power
batches set to min(P_BS, I_sat,max / (g_sat * delta)) at the most tightly
coupled sensor.  The solver runs the uplink-downlink duality fixed point
with MMSE beam directions and an exact downlink power rescaling, so every
feasible solution meets its targets with equality; the uplink/downlink
power match serves as the optimality certificate.

All linear algebra stays in the K-dimensional user space: the power solve
needs only the K x K Gram matrix G, which `solve_power_min` builds, O(N K^2),
and inverts.  The private kernel `_solve_grams` takes a (P, K, K) stack of
inverse Gram matrices G^{-1}, one problem each with its own SINR targets,
noise power and power cap, and solves the whole stack with stacked
LAPACK/BLAS calls, each problem leaving the iteration once it converges;
`solve_power_min` is its P = 1 case.  The fixed point is found by Newton steps
from the zero-forcing powers, read off diag(G^{-1}) (Boche & Schubert, IEEE/ACM
Trans. Netw. 2008), a few iterations per problem where the plain iteration
takes tens.  By the push-through identity G (sigma^2 I + diag(q) G)^{-1} =
(sigma^2 G^{-1} + diag(q))^{-1} (Henderson & Searle, SIAM Review 1981), each
Newton step makes one K x K inverse and no product with G, and the MMSE
directions come from the inverse of the last step: a problem costs one
inverse per Newton step, 3 in the usual case, and a caller inverts a Gram
stack once for every problem that shares it.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SinrTargets",
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
class PrecodeSolution:
    """Beamformers (rows w_k), total power, feasibility and diagnostics."""

    w: np.ndarray
    p_tx_w: float
    feasible: bool
    sinr: np.ndarray
    converged: bool
    iterations: int
    duality_gap: float


def _solve_grams(inv_grams, gam, noise_w, p_max_w) -> tuple:
    """Minimum total power for positive SINR targets from a (P, K, K) stack of
    inverse Gram matrices G^{-1} of the effective channels, one problem per
    matrix, with per-problem targets `gam` (P, K), noise powers `noise_w` (P,)
    and power caps `p_max_w` (P,); a (K,) target row or a scalar broadcasts.
    A problem is feasible if converged and <= its cap.  Returns per-problem
    arrays (p_tx, feasible, converged, iterations, q, p, directions).

    The dual uplink powers solve q_k = (gamma_k / (1 + gamma_k)) / x_k(q) with
    x_k(q) = [A]_kk, A = G (sigma^2 I + diag(q) G)^{-1} (Schubert & Boche, IEEE
    TVT 2004).  By the push-through identity (Henderson & Searle, SIAM Review
    1981), A = (sigma^2 G^{-1} + diag(q))^{-1}: given G^{-1}, A is one inverse,
    the only one of a Newton step.  Newton steps on F(q) = q - scale / x(q),
    whose Jacobian is I - (scale / x^2) |A|^2 elementwise, start at the
    zero-forcing powers gamma sigma^2 diag(G^{-1}).  MMSE SINR is at least ZF
    SINR, so the start lies above the fixed point, where the iterates fall
    monotonically onto it (Boche & Schubert, IEEE/ACM Trans. Netw. 2008).  Each
    problem converges on its own, once its step is within `_TOL` of q or, after
    the first, no longer shrinks: at high targets rounding error sets the step
    before `_TOL` is met.  A converged problem leaves the active set and its q,
    iteration count and last A freeze, so a call equals each problem solved
    alone.  The MMSE directions come from that last A, with no further
    inverse: the unnormed direction coefficients are G^{-1} A, the users see
    them through G G^{-1} A = A, and their squared norms are
    Re diag(A^H G^{-1} A).  The exact downlink power load follows.
    """
    n_problems, ka = inv_grams.shape[:2]
    gam = np.broadcast_to(gam, (n_problems, ka))
    noise_w = np.broadcast_to(noise_w, (n_problems,))
    diag = np.arange(ka)
    eye = np.eye(ka)

    # Uplink powers by Newton steps from the zero-forcing powers, over the
    # active problems.
    q = gam * noise_w[:, None] * np.real(inv_grams[:, diag, diag])
    scale = gam / (1.0 + gam)
    noise_inv_grams = noise_w[:, None, None] * inv_grams
    a_last = np.empty_like(inv_grams)
    converged = np.zeros(n_problems, dtype=bool)
    iterations = np.zeros(n_problems, dtype=int)
    last_step = np.full(n_problems, np.inf)
    active = np.arange(n_problems)
    for iteration in range(1, _MAX_ITERATIONS + 1):
        if not len(active):
            break
        q_act, scale_act = q[active], scale[active]
        m = noise_inv_grams[active]
        m[:, diag, diag] += q_act
        a = np.linalg.inv(m)  # A = (sigma^2 G^{-1} + diag(q))^{-1}
        x = np.real(a[:, diag, diag])
        jac = eye - (scale_act / x ** 2)[:, :, None] * np.abs(a) ** 2  # dx/dq = -|A|^2
        q_new = q_act - np.linalg.solve(jac, (q_act - scale_act / x)[:, :, None])[:, :, 0]
        step = np.max(np.abs(q_new - q_act), axis=1)
        done = ((step <= _TOL * np.maximum(np.max(q_new, axis=1), 1e-300))
                | ((iteration > 1) & (step >= last_step[active])))
        last_step[active] = step
        q[active] = q_new
        iterations[active] = iteration
        converged[active[done]] = True
        leaving = done | (iteration == _MAX_ITERATIONS)
        a_last[active[leaving]] = a[leaving]
        active = active[~done]

    # MMSE beam directions from each problem's last A: coefficients
    # b_k = G^{-1} a_k, squared norms b_k^H G b_k = Re (A^H G^{-1} A)_kk, and
    # cross gains G b_k = a_k.
    coeffs = inv_grams @ a_last
    beam_norms = np.sqrt(np.real(np.sum(a_last.conj() * coeffs, axis=1)))[:, None, :]
    coeffs = coeffs / beam_norms
    c2 = np.abs(a_last / beam_norms) ** 2  # |h_k^H u_j|^2

    # Downlink powers solving each problem's K x K tight-SINR system.
    m_dl = -c2
    m_dl[:, diag, diag] = c2[:, diag, diag] / gam
    p = np.linalg.solve(m_dl, np.broadcast_to(noise_w[:, None, None], (n_problems, ka, 1)))
    p = p[:, :, 0]
    p_tx = np.sum(p, axis=1)
    feasible = converged & (p_tx <= p_max_w * (1.0 + 1e-9))
    return p_tx, feasible, converged, iterations, q, p, coeffs


def solve_power_min(h: np.ndarray, g: np.ndarray, targets: SinrTargets,
                    noise_w: float) -> PrecodeSolution:
    """Minimum-power beamformers hitting every SINR target with equality,
    under no power cap: a solution is feasible when the fixed point converges.

    Args:
        h: (K, N) small-scale channel rows h_k.
        g: (K,) large-scale linear gains.
        targets: per-user linear SINR targets.
        noise_w: receiver noise power sigma^2.
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
    p_tx, feasible, converged, iterations, q, p, coeffs = (
        out[0] for out in _solve_grams(np.linalg.inv(gram)[None], gamma[active], noise_w,
                                       np.inf))
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
