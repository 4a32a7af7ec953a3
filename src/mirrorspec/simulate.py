"""Synthetic datasets: the constant-velocity advection benchmark and a
storm-like stack for the radar-style pipeline demo.

The advection benchmark integrates

    dxi/dt = -v . grad xi + Q(s),    xi(s, 0) = Q(s)

with a Gaussian source ``Q`` near the bottom edge of the unit square and a
constant rightward drift, in coefficient space at full spectral resolution.
For constant velocity the generator is block-diagonal (each cos/sin pair
rotates at its own rate and the corner modes are frozen), so the exact
one-step map is applied per mode, pairing coefficients through
``ModeOrdering.partner``, instead of exponentiating an N x N matrix.
White Gaussian perturbations are injected into the state and forcing
coefficients every step over the low-frequency support
``ModeOrdering(grid, noise_modes)``; the forcing perturbation accumulates
(random walk), matching the model's Brownian-forcing block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec
from .spectral import ModeOrdering, analyze, synthesize

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "forcing_field",
    "AdvectionRotation",
    "simulate_advection",
    "synthetic_storm_stack",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of the advection benchmark; defaults reproduce the
    100 x 100, 30-step dataset used throughout the comparison studies."""

    grid: GridSpec = GridSpec(100, 100)
    steps: int = 30
    delta: float = 1.0
    velocity: tuple[float, float] = (0.01, 0.0)
    source_center: tuple[float, float] = (0.1, 0.0)
    source_scale: float = 0.18
    source_amplitude: float = 3.0
    noise_alpha: float = 0.005
    noise_beta: float = 0.001
    noise_modes: int | None = 80
    seed: int = 20260809

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if not 0 < self.delta < np.inf:
            raise ValueError(f"delta must be finite and positive, got {self.delta}")
        if self.noise_modes is not None and self.noise_modes < 1:
            raise ValueError(f"noise_modes must be >= 1 or null, got {self.noise_modes}")
        if self.source_scale <= 0:
            raise ValueError("source_scale must be positive")
        if self.noise_alpha < 0 or self.noise_beta < 0:
            raise ValueError("noise variances must be non-negative")


@dataclass
class SimulationResult:
    fields: list[Field]
    alphas: np.ndarray
    betas: np.ndarray
    config: SimulationConfig


def forcing_field(cfg: SimulationConfig) -> Field:
    """Gaussian source ``amp / (2 pi scale^2) * exp(-|c - s|^2 / (2 scale^2))``."""
    x, y = cfg.grid.mesh()
    cx, cy = cfg.source_center
    r2 = (x - cx) ** 2 + (y - cy) ** 2
    peak = cfg.source_amplitude / (2 * np.pi * cfg.source_scale**2)
    return Field.from_pixels(cfg.grid, peak * np.exp(-r2 / (2 * cfg.source_scale**2)))


class AdvectionRotation:
    """Exact one-step coefficient map for constant-velocity advection.

    Each retained cos/sin pair rotates by ``omega = delta * 2 pi v.k``; corner
    modes (no sine partner on the grid) stay fixed, matching the assembled
    generator.  Equals ``expm(delta * P)`` applied to the coefficient vector,
    which the tests verify against the dense path on small grids.
    """

    def __init__(self, ordering: ModeOrdering, velocity, delta: float):
        vx, vy = velocity
        omega = delta * 2 * np.pi * (vx * ordering.kx + vy * ordering.ky)
        omega[ordering.weight == 1.0] = 0.0
        self.ordering = ordering
        self.cos = np.cos(omega)
        self.sin = np.sin(omega)
        sign = np.where(ordering.is_sin, 1.0, -1.0)
        self.cross = sign * self.sin

    def apply(self, alpha: np.ndarray) -> np.ndarray:
        # cos' = c*cos - s*sin ; sin' = s*cos + c*sin
        return self.cos * alpha + self.cross * alpha[self.ordering.partner]


def simulate_advection(cfg: SimulationConfig) -> SimulationResult:
    """Integrate the benchmark and return frames plus coefficient paths.

    ``alpha(t+1) = R alpha(t) + beta(t) + eps_alpha`` and
    ``beta(t+1) = beta(t) + eps_beta``, with ``alpha(0) = beta(0)`` the
    analysis of the forcing field.  Noise is drawn per step over the lowest
    ``noise_modes`` coefficients (all of them when ``None``); the run is a
    pure function of the config, including the seed.
    """
    ordering = ModeOrdering(cfg.grid)
    q = forcing_field(cfg)
    beta = analyze(q, ordering)
    alpha = beta.copy()
    rot = AdvectionRotation(ordering, cfg.velocity, cfg.delta)

    if cfg.noise_modes is None:
        support = np.arange(ordering.k)
    else:
        sub = ModeOrdering(ordering.grid, cfg.noise_modes)
        support = np.searchsorted(ordering.indices, sub.indices)
    rng = np.random.default_rng(cfg.seed)
    sd_a = np.sqrt(cfg.noise_alpha)
    sd_b = np.sqrt(cfg.noise_beta)

    alphas = np.empty((cfg.steps, ordering.k))
    betas = np.empty((cfg.steps, ordering.k))
    alphas[0], betas[0] = alpha, beta
    for t in range(1, cfg.steps):
        alpha = rot.apply(alpha) + beta
        if cfg.noise_alpha > 0:
            alpha[support] += sd_a * rng.standard_normal(support.size)
        if cfg.noise_beta > 0:
            beta = beta.copy()
            beta[support] += sd_b * rng.standard_normal(support.size)
        alphas[t], betas[t] = alpha, beta

    fields = [synthesize(ordering, a) for a in alphas]
    return SimulationResult(fields, alphas, betas, cfg)


def synthetic_storm_stack(
    grid: GridSpec = GridSpec(100, 100),
    steps: int = 10,
    seed: int = 7,
    n_blobs: int = 3,
    peak_dbz: float = 42.0,
) -> list[Field]:
    """Gaussian rain cells entering from the top-left corner and drifting
    toward the interior — a stand-in for a radar reflectivity sequence.

    Entirely synthetic: cells start near (0.1, 0.9), move at ~0.02/step down
    and to the right, and grow slowly, so the lower-right part of the domain
    stays signal-free while the top and left edges carry values (the boundary
    discontinuity that triggers ringing in truncated reconstructions).
    """
    rng = np.random.default_rng(seed)
    x, y = grid.mesh()
    centers = np.column_stack([
        rng.uniform(0.03, 0.18, n_blobs),
        rng.uniform(0.80, 0.95, n_blobs),
    ])
    vels = np.column_stack([
        rng.uniform(0.015, 0.025, n_blobs),
        rng.uniform(-0.020, -0.012, n_blobs),
    ])
    sigmas = rng.uniform(0.12, 0.16, n_blobs)
    amps = rng.uniform(0.5, 1.0, n_blobs) * peak_dbz
    growth = rng.uniform(1.01, 1.03, n_blobs)

    frames = []
    for t in range(steps):
        pix = np.zeros(grid.shape)
        for b in range(n_blobs):
            cx, cy = centers[b] + t * vels[b]
            amp = amps[b] * growth[b] ** t
            pix += amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigmas[b] ** 2))
        frames.append(Field.from_pixels(grid, pix))
    return frames
