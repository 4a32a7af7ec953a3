"""Block-matching motion estimation and the shear-based diffusivity field.

Velocity is recovered TREC-style: the first frame is tiled into overlapping
blocks, each block's displacement is the integer shift (within a search
radius) maximizing the normalized cross-correlation against the second
frame, and the resulting vector field is smoothed and interpolated to every
grid point.  Low-energy blocks inherit the vector of their neighborhood
instead of contributing spurious matches.

One array pass scores all ``(2r+1)^2`` candidate shifts of a block, taken
from a single periodic window of the second frame.  Candidates are ranked by
smallest displacement, then lexicographically in ``(dy, dx)``; walking them
in that order, a later candidate replaces the best only when its score is
higher by more than 1e-12, so near-ties resolve to the smallest shift.

Diffusivity follows the deformation-magnitude rule

    D(s) = 0.28 (dx dy) sqrt((dvx/dx - dvy/dy)^2 + (dvx/dy + dvy/dx)^2)

taken as the isotropic diffusivity ``D = d I``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.ndimage as ndimage
from numpy.lib.stride_tricks import sliding_window_view

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
        if not self.min_block_energy >= 0:
            raise ValueError("min_block_energy must be >= 0")
        if not self.smooth_sigma >= 0:
            raise ValueError("smooth_sigma must be >= 0")

    @property
    def stride(self) -> int:
        return max(1, round(self.block * (1.0 - self.overlap)))


def _candidate_shifts(radius):
    """The ``(2r+1)^2`` candidate shifts ``(dy, dx)`` as two arrays, smallest
    displacement first, then lexicographic."""
    d = np.arange(-radius, radius + 1)
    dy, dx = (g.ravel() for g in np.meshgrid(d, d, indexing="ij"))
    order = np.lexsort((dx, dy, dy * dy + dx * dx))
    return dy[order], dx[order]


def _block_displacement(patch, b, r0, c0, radius, shifts):
    """Best integer displacement of the block ``patch`` of the first frame,
    whose top-left pixel is ``(r0, c0)``, by normalized cross-correlation
    against frame ``b``; ``shifts`` comes from :func:`_candidate_shifts`.

    Periodic wrap keeps every candidate window defined.  Candidates with a
    flat window score nothing; the rest are walked in ``shifts`` order and a
    later one wins only by more than 1e-12.
    """
    pa = patch - patch.mean()
    na = np.sqrt((pa * pa).sum())
    if na == 0:
        return None
    blk = len(patch)
    n2, n1 = b.shape
    span = np.arange(blk + 2 * radius) - radius
    window = b[np.ix_((r0 + span) % n2, (c0 + span) % n1)]
    dy, dx = shifts
    # one contiguous row per candidate, in candidate order: each row's mean and
    # sums reduce exactly as the candidate's own (blk, blk) array would
    cand = sliding_window_view(window, patch.shape)[dy + radius, dx + radius].reshape(len(dy), -1)
    pb = cand - cand.mean(axis=1, keepdims=True)
    nb = np.sqrt((pb * pb).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = ((pa.ravel() * pb).sum(axis=1) / (na * nb)).tolist()
    best = None
    for i in np.flatnonzero(nb).tolist():
        if best is None or scores[i] > scores[best] + 1e-12:
            best = i
    return None if best is None else (int(dy[best]), int(dx[best]))


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

    shifts = _candidate_shifts(cfg.search_radius)
    offsets = np.arange(cfg.block)
    for bi, r0 in enumerate(r_starts):
        for bj, c0 in enumerate(c_starts):
            patch = a[np.ix_((r0 + offsets) % grid.n2, (c0 + offsets) % grid.n1)]
            if patch.var() < cfg.min_block_energy:
                continue
            disp = _block_displacement(patch, b, r0, c0, cfg.search_radius, shifts)
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
