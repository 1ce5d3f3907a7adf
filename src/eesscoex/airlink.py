"""Monte Carlo downlink MU-MISO channel per 3GPP TR 38.901 UMi-Street Canyon.

Each realization draws user positions on an annulus, assigns LOS/NLOS
states from the UMi LOS-probability model, applies the UMi outdoor path
loss (breakpoint LOS formulation; NLOS as max of LOS and the NLOS term)
with log-normal shadowing, and models small-scale fading as spatially
i.i.d. Rayleigh across the array.

All randomness flows from one master seed: trial t reads the substream
(master seed, t), so serial and parallel runs agree draw for draw.
`draw_channels` is the one draw path: it reads those substreams a block of
trials at a time and keeps of each trial only the effective Gram matrix the
power solve reads.
"""

from dataclasses import dataclass

import numpy as np

from ._fields import bounded, check_fields

__all__ = [
    "BOLTZMANN_J_PER_K",
    "SPEED_OF_LIGHT_M_S",
    "CellConfig",
    "noise_power_w",
    "los_probability",
    "umi_los_path_loss_db",
    "umi_nlos_path_loss_db",
    "draw_channels",
    "trial_rng",
]

BOLTZMANN_J_PER_K = 1.380649e-23
SPEED_OF_LIGHT_M_S = 3.0e8  # propagation constant used by the 38.901 breakpoint

SHADOW_SIGMA_LOS_DB = 4.0
SHADOW_SIGMA_NLOS_DB = 7.82
_EFFECTIVE_ENV_HEIGHT_M = 1.0  # UMi h_E
_DRAW_BLOCK_TRIALS = 32


@dataclass(frozen=True)
class CellConfig:
    """Single-cell downlink geometry and radio parameters."""

    n_antennas: int = 256
    n_users: int = bounded(8, ge=1)
    r_min_m: float = bounded(10.0, gt=0)
    r_cell_m: float = bounded(150.0, le=5000)
    carrier_ghz: float = bounded(7.275, ge=0.5, le=100)
    bs_height_m: float = bounded(10.0, gt=1, le=100)
    ut_height_m: float = bounded(1.5, gt=1, le=100)
    tx_gain_users_db: float = bounded(15.0, ge=-100, le=100)
    noise_temp_k: float = bounded(290.0, ge=1, le=1e5)
    distance_mode: str = "uniform-distance"  # or "uniform-area"
    shadowing: bool = True
    los_mode: str = "model"  # "model" | "los" | "nlos"

    def __post_init__(self):
        check_fields(self)
        if not self.r_min_m < self.r_cell_m:
            raise ValueError(f"need r_min < r_cell, got ({self.r_min_m}, {self.r_cell_m})")
        if self.n_antennas < self.n_users:
            raise ValueError(f"need n_antennas >= n_users, got {self.n_antennas} < {self.n_users}")
        if self.distance_mode not in ("uniform-distance", "uniform-area"):
            raise ValueError(f"unknown distance mode {self.distance_mode!r}")
        if self.los_mode not in ("model", "los", "nlos"):
            raise ValueError(f"unknown LOS mode {self.los_mode!r}")


def noise_power_w(temp_k: float, bandwidth_hz: float) -> float:
    """Thermal noise power k_B * T * B in watts."""
    return BOLTZMANN_J_PER_K * temp_k * bandwidth_hz


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Deterministic substream for one Monte Carlo trial."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed,
                                                        spawn_key=(trial,)))


def _distances(cfg: CellConfig, u):
    """2D distances for uniforms u on [0, 1), per `cfg.distance_mode`."""
    if cfg.distance_mode == "uniform-distance":
        return cfg.r_min_m + (cfg.r_cell_m - cfg.r_min_m) * u
    return np.sqrt(cfg.r_min_m**2 + (cfg.r_cell_m**2 - cfg.r_min_m**2) * u)


def los_probability(d2d_m):
    """UMi-Street Canyon outdoor LOS probability (TR 38.901 Table 7.4.2-1)."""
    d = np.asarray(d2d_m, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(d <= 18.0, 1.0, 18.0 / d + np.exp(-d / 36.0) * (1.0 - 18.0 / d))
    return float(p) if p.ndim == 0 else p


def _breakpoint_distance_m(cfg: CellConfig) -> float:
    h_bs = cfg.bs_height_m - _EFFECTIVE_ENV_HEIGHT_M
    h_ut = cfg.ut_height_m - _EFFECTIVE_ENV_HEIGHT_M
    return 4.0 * h_bs * h_ut * cfg.carrier_ghz * 1e9 / SPEED_OF_LIGHT_M_S


def umi_los_path_loss_db(d2d_m, cfg: CellConfig):
    """UMi-Street Canyon LOS path loss, two-slope breakpoint form (no shadowing)."""
    d2d = np.asarray(d2d_m, dtype=float)
    dz = cfg.bs_height_m - cfg.ut_height_m
    d3d = np.hypot(d2d, dz)
    fc = cfg.carrier_ghz
    dbp = _breakpoint_distance_m(cfg)
    pl1 = 32.4 + 21.0 * np.log10(d3d) + 20.0 * np.log10(fc)
    pl2 = (32.4 + 40.0 * np.log10(d3d) + 20.0 * np.log10(fc)
           - 9.5 * np.log10(dbp**2 + dz**2))
    out = np.where(d2d <= dbp, pl1, pl2)
    return float(out) if out.ndim == 0 else out


def umi_nlos_path_loss_db(d2d_m, cfg: CellConfig):
    """UMi-Street Canyon NLOS path loss: max of the LOS loss and the NLOS term."""
    d2d = np.asarray(d2d_m, dtype=float)
    dz = cfg.bs_height_m - cfg.ut_height_m
    d3d = np.hypot(d2d, dz)
    pl_prime = (35.3 * np.log10(d3d) + 22.4 + 21.3 * np.log10(cfg.carrier_ghz)
                - 0.3 * (cfg.ut_height_m - 1.5))
    out = np.maximum(umi_los_path_loss_db(d2d_m, cfg), pl_prime)
    return float(out) if out.ndim == 0 else out


def _gains(d2d, los, cfg: CellConfig, shadow_normals):
    """Linear gains of links at distances d2d with LOS flags `los`; the
    shadowing fades are `shadow_normals` times the state's sigma, or none
    when `shadow_normals` is None."""
    pl = np.where(los, umi_los_path_loss_db(d2d, cfg), umi_nlos_path_loss_db(d2d, cfg))
    if shadow_normals is None:
        sf = 0.0
    else:
        sf = shadow_normals * np.where(los, SHADOW_SIGMA_LOS_DB, SHADOW_SIGMA_NLOS_DB)
    return 10.0 ** ((cfg.tx_gain_users_db - pl - sf) / 10.0)


def _draw_buffers(cfg: CellConfig, n: int) -> tuple:
    """Uninitialised buffers for `n` trials of `_draw_trials`: uniforms
    (n, 3, K), normals (n, K + 2KN), or (n, 2KN) without shadowing, and
    fading (n, K, N)."""
    k, m = cfg.n_users, cfg.n_antennas
    n_normals = (k if cfg.shadowing else 0) + 2 * k * m
    return np.empty((n, 3, k)), np.empty((n, n_normals)), np.empty((n, k, m), dtype=complex)


def _draw_trials(cfg: CellConfig, rngs, u, z, h) -> tuple:
    """One realization per generator in `rngs`, read into the leading rows
    of the caller's `_draw_buffers` (u, z, h); h receives the unit-variance
    fading, and (g (n, K), los (n, K)) is returned.

    Each generator is read in the fixed draw order (position uniforms,
    angle uniforms, LOS uniforms, shadowing normals, real then imaginary
    fading) by one uniform fill and one normal fill; a generator keeps no
    state between fills, so this is the stream of one call per vector.  The
    gains and fading are then formed once over the whole block.  The LOS
    uniforms are drawn in every LOS mode, so a substream's fading does not
    depend on it.
    """
    n, k, m = len(rngs), cfg.n_users, cfg.n_antennas
    for i, rng in enumerate(rngs):
        rng.random(out=u[i])  # the angle uniforms u[i, 1] go unused; drawn to keep the order
        rng.standard_normal(out=z[i])
    u, z, h = u[:n], z[:n], h[:n]
    d = _distances(cfg, u[:, 0])
    if cfg.los_mode == "model":
        los = u[:, 2] < los_probability(d)
    else:
        los = np.full((n, k), cfg.los_mode == "los")
    s = k if cfg.shadowing else 0
    g = _gains(d, los, cfg, z[:, :s] if cfg.shadowing else None)
    fading = z[:, s:].reshape(n, 2, k, m)  # real parts, then imaginary parts
    # (re + 1j*im) / sqrt(2) part by part: numpy divides a complex by a real
    # by multiplying with its reciprocal, so this is that quotient bitwise.
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(fading[:, 0], scale, out=h.real)
    np.multiply(fading[:, 1], scale, out=h.imag)
    return g, los


def draw_channels(cell: CellConfig, seed: int, trials: int) -> np.ndarray:
    """(trials, K, K) stack of effective-channel Gram matrices, one per trial
    substream, drawn `_DRAW_BLOCK_TRIALS` trials at a time into buffers
    allocated once per call, so the live (K, N) draws scale with the block,
    not with `trials`."""
    grams = np.empty((trials, cell.n_users, cell.n_users), dtype=complex)
    u, z, h = _draw_buffers(cell, min(_DRAW_BLOCK_TRIALS, trials))
    h_conj = np.empty_like(h)
    for start in range(0, trials, _DRAW_BLOCK_TRIALS):
        stop = min(start + _DRAW_BLOCK_TRIALS, trials)
        g, _ = _draw_trials(cell, [trial_rng(seed, t) for t in range(start, stop)], u, z, h)
        h_eff = h[:stop - start]
        h_eff *= np.sqrt(g)[..., None]
        # G[k, j] = h_k^H h_j, effective channels
        np.matmul(np.conjugate(h_eff, out=h_conj[:stop - start]), h_eff.transpose(0, 2, 1),
                  out=grams[start:stop])
    return grams
