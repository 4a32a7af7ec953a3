"""Block-matching motion estimation and the shear-based diffusivity field.

Velocity is recovered TREC-style: the first frame is tiled into overlapping
blocks, each block's displacement is the integer shift (within a search
radius) maximizing the normalized cross-correlation against the second
frame, and the resulting vector field is smoothed and interpolated to every
grid point.  Low-energy blocks inherit the vector of their neighborhood
instead of contributing spurious matches.

Diffusivity follows the deformation-magnitude rule

    D(s) = 0.28 (dx dy) sqrt((dvx/dx - dvy/dy)^2 + (dvx/dy + dvy/dx)^2)

taken as the isotropic diffusivity ``D = d I``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.ndimage as ndimage

from .galerkin import DiffusivityField, VelocityField
from .grid import Field

__all__ = ["MotionConfig", "estimate_velocity", "diffusivity_from_velocity"]


@dataclass(frozen=True)
class MotionConfig:
    block: int = 16
    overlap: float = 0.5
    search_radius: int = 8
    min_block_energy: float = 1e-4
    smooth_sigma: float = 2.0

    def __post_init__(self):
        if self.block < 4:
            raise ValueError("block must be >= 4 pixels")
        if not 0 <= self.overlap < 1:
            raise ValueError("overlap must lie in [0, 1)")
        if self.search_radius < 1:
            raise ValueError("search_radius must be >= 1")

    @property
    def stride(self) -> int:
        return max(1, round(self.block * (1.0 - self.overlap)))


def _block_displacement(a, b, r0, c0, blk, radius):
    """Best integer displacement of one block by normalized cross-correlation.

    Periodic wrap keeps every candidate window defined; ties resolve to the
    smallest displacement (then lexicographic) for determinism.
    """
    n2, n1 = a.shape
    rows = (r0 + np.arange(blk)) % n2
    cols = (c0 + np.arange(blk)) % n1
    patch = a[np.ix_(rows, cols)]
    pa = patch - patch.mean()
    na = np.sqrt((pa * pa).sum())
    if na == 0:
        return None
    best = None
    candidates = sorted(
        ((dy, dx) for dy in range(-radius, radius + 1) for dx in range(-radius, radius + 1)),
        key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]),
    )
    for dy, dx in candidates:
        cand = b[np.ix_((rows + dy) % n2, (cols + dx) % n1)]
        pb = cand - cand.mean()
        nb = np.sqrt((pb * pb).sum())
        if nb == 0:
            continue
        score = float((pa * pb).sum() / (na * nb))
        if best is None or score > best[0] + 1e-12:
            best = (score, dy, dx)
    return None if best is None else (best[1], best[2])


def estimate_velocity(frame_a: Field, frame_b: Field, cfg: MotionConfig = MotionConfig()) -> VelocityField:
    """Velocity field (domain lengths per step) carrying frame_a onto frame_b."""
    if frame_a.grid != frame_b.grid:
        raise ValueError("frames must share a grid")
    grid = frame_a.grid
    a, b = frame_a.pixels(), frame_b.pixels()
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        warnings.warn("degenerate (constant) frame; returning zero velocity", RuntimeWarning)
        return VelocityField.zero(grid)

    stride = cfg.stride
    r_starts = np.arange(0, grid.n2, stride)
    c_starts = np.arange(0, grid.n1, stride)
    vx_blk = np.zeros((len(r_starts), len(c_starts)))
    vy_blk = np.zeros_like(vx_blk)
    valid = np.zeros_like(vx_blk, dtype=bool)

    for bi, r0 in enumerate(r_starts):
        for bj, c0 in enumerate(c_starts):
            patch = a[np.ix_((r0 + np.arange(cfg.block)) % grid.n2,
                             (c0 + np.arange(cfg.block)) % grid.n1)]
            if patch.var() < cfg.min_block_energy:
                continue
            disp = _block_displacement(a, b, r0, c0, cfg.block, cfg.search_radius)
            if disp is None:
                continue
            dy, dx = disp
            vy_blk[bi, bj] = dy / grid.n2
            vx_blk[bi, bj] = dx / grid.n1
            valid[bi, bj] = True

    if not valid.any():
        warnings.warn("no block passed the energy threshold; returning zero velocity",
                      RuntimeWarning)
        return VelocityField.zero(grid)

    # low-energy blocks inherit the smoothed neighborhood vector
    # (normalized convolution over the valid blocks)
    weight = ndimage.gaussian_filter(valid.astype(float), sigma=1.0, mode="nearest")
    for comp in (vx_blk, vy_blk):
        filled = ndimage.gaussian_filter(np.where(valid, comp, 0.0), sigma=1.0, mode="nearest")
        comp[~valid] = (filled / np.maximum(weight, 1e-12))[~valid]

    sigma_blocks = cfg.smooth_sigma / stride
    if sigma_blocks > 0:
        vx_blk = ndimage.gaussian_filter(vx_blk, sigma=sigma_blocks, mode="nearest")
        vy_blk = ndimage.gaussian_filter(vy_blk, sigma=sigma_blocks, mode="nearest")

    # bilinear interpolation from block centers to every pixel
    half = (cfg.block - 1) / 2.0
    bi = np.clip((np.arange(grid.n2) - (r_starts[0] + half)) / stride, 0, len(r_starts) - 1)
    bj = np.clip((np.arange(grid.n1) - (c_starts[0] + half)) / stride, 0, len(c_starts) - 1)
    jj, ii = np.meshgrid(bj, bi)
    coords = np.stack([ii.ravel(), jj.ravel()])
    vx = ndimage.map_coordinates(vx_blk, coords, order=1, mode="nearest").reshape(grid.shape)
    vy = ndimage.map_coordinates(vy_blk, coords, order=1, mode="nearest").reshape(grid.shape)
    return VelocityField(grid, vx.flatten(order="F"), vy.flatten(order="F"))


def diffusivity_from_velocity(vel: VelocityField, delta_x: float, delta_y: float) -> DiffusivityField:
    """Isotropic diffusivity from the local shear/stretch magnitude."""
    if delta_x <= 0 or delta_y <= 0:
        raise ValueError("delta_x and delta_y must be positive")
    grid = vel.grid
    vx = vel.vx.reshape(grid.shape, order="F")
    vy = vel.vy.reshape(grid.shape, order="F")
    hx, hy = 1.0 / grid.n1, 1.0 / grid.n2
    dvx_dy, dvx_dx = np.gradient(vx, hy, hx)
    dvy_dy, dvy_dx = np.gradient(vy, hy, hx)
    mag = np.sqrt((dvx_dx - dvy_dy) ** 2 + (dvx_dy + dvy_dx) ** 2)
    d = 0.28 * delta_x * delta_y * mag
    return DiffusivityField.isotropic(grid, d.flatten(order="F"))
