"""Block-matching motion estimation and the shear-based diffusivity field.

Velocity is recovered TREC-style: the first frame is tiled into overlapping
blocks, each block's displacement is the integer shift (within a search
radius) maximizing the normalized cross-correlation against the second
frame, and the resulting vector field is smoothed and interpolated to every
grid point.  Low-energy blocks inherit the vector of their neighborhood
instead of contributing spurious matches.

Candidates are ranked by smallest displacement, then lexicographically in
``(dy, dx)``; walking them in that order, a later candidate replaces the best
only when its score is higher by more than 1e-12, so near-ties resolve to the
smallest shift.

The unit of work is the frame pair, not the block (the fast normalized
cross-correlation of Lewis, 1995).  Each periodic window of the second frame
is centred and normed once, one row of windows at a time, whatever number of
blocks score it; each block of the first frame is centred and normed once.
For each row of windows, one matrix product of the centred windows with the
centred blocks whose candidates land in that row gives all their score
numerators.  The means and norms reduce each window and block as one
contiguous row, as a block's own array would, so they and the flat-window
test are exact.  A numerator from the product may differ from the
elementwise sum by a few ulps, about 1e-16 in a score, so it can change a
winner only where two scores differ by the 1e-12 margin to within that.

Diffusivity follows the deformation-magnitude rule

    D(s) = 0.28 (dx dy) sqrt((dvx/dx - dvy/dy)^2 + (dvx/dy + dvy/dx)^2)

taken as the isotropic diffusivity ``D = d I``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .galerkin import DiffusivityField, VelocityField
from .grid import Field

__all__ = ["MotionConfig", "estimate_velocity", "diffusivity_from_velocity"]

MAX_SMOOTH_SIGMA = 1000.0
"""Largest ``MotionConfig.smooth_sigma``, in pixels.  :func:`_gaussian_matrix`
builds ``8 sigma / stride`` kernel offsets and an index array of that many per
block, so an unbounded sigma asks for unbounded memory.  1000 pixels, ten times
the side of the largest shipped grid, already smooths such a grid to nearly a
constant."""


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
        if not 0 <= self.smooth_sigma < np.inf:
            raise ValueError(f"smooth_sigma must be >= 0 and finite, got {self.smooth_sigma}")
        if self.smooth_sigma > MAX_SMOOTH_SIGMA:
            raise ValueError(f"smooth_sigma must be at most {MAX_SMOOTH_SIGMA:g} pixels, "
                             f"got {self.smooth_sigma}")

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


def _winners(scores, scorable):
    """Index of the walk's winner in each row of ``scores`` (candidates in walk
    order; only ``scorable`` ones compete) and whether the row has one: one
    walk over the candidates for every row at once."""
    best = np.zeros(len(scores), int)
    found = np.zeros(len(scores), bool)
    top = np.zeros(len(scores))
    for i, (score, live) in enumerate(zip(scores.T, scorable.T)):
        wins = live & (~found | (score > top + 1e-12))
        best[wins], top[wins] = i, score[wins]
        found |= wins
    return best, found


def _block_displacements(a, b, cfg):
    """Best integer displacement of every block of frame ``a`` by normalized
    cross-correlation against frame ``b``.

    Blocks start every ``cfg.stride`` pixels down and across.  Returns ``dy``,
    ``dx`` and ``valid``, each of shape ``(blocks down, blocks across)``; a
    block with too little energy, a flat block, and a block whose candidate
    windows are all flat have no displacement (``valid`` false, ``dy = dx = 0``).
    """
    n2, n1 = a.shape
    blk = cfg.block
    r_starts = np.arange(0, n2, cfg.stride)
    c_starts = np.arange(0, n1, cfg.stride)
    offsets = np.arange(blk)
    rows = (r_starts[:, None] + offsets) % n2
    cols = (c_starts[:, None] + offsets) % n1
    # one contiguous row per block: a strided view would reduce in another order
    patches = a[rows[:, None, :, None], cols[None, :, None, :]].reshape(-1, blk * blk)
    pa = patches - patches.mean(axis=1, keepdims=True)
    na = np.sqrt((pa * pa).sum(axis=1))
    live = np.flatnonzero(~(patches.var(axis=1) < cfg.min_block_energy) & (na != 0))

    dy, dx = _candidate_shifts(cfg.search_radius)
    block_r, block_c = np.divmod(live, len(c_starts))
    # top-left pixel of the window each (block, candidate) pair scores
    win_r = (r_starts[block_r, None] + dy) % n2
    win_c = ((c_starts[block_c, None] + dx) % n1).ravel()
    by_row = np.argsort(win_r, axis=None, kind="stable")
    bounds = np.searchsorted(win_r.ravel()[by_row], np.arange(n2 + 1))
    numer = np.empty(win_c.shape)
    nb = np.empty(win_c.shape)
    periodic = b[np.ix_(np.arange(n2 + blk - 1) % n2, np.arange(n1 + blk - 1) % n1)]
    windows_at = sliding_window_view(periodic, (blk, blk))
    for r in np.flatnonzero(np.diff(bounds)).tolist():
        # the n1 windows of row r, centred and normed once each
        windows = windows_at[r].reshape(n1, -1)
        pb = windows - windows.mean(axis=1, keepdims=True)
        pairs = by_row[bounds[r]:bounds[r + 1]]
        c = win_c[pairs]
        # the sort was stable, so each row's pairs come in block order
        k = pairs // len(dy)
        first = np.concatenate(([True], k[1:] != k[:-1]))
        users, user = k[first], np.cumsum(first) - 1
        numer[pairs] = (pa[live[users]] @ pb.T)[user, c]
        nb[pairs] = np.sqrt((pb * pb).sum(axis=1))[c]
    nb = nb.reshape(win_r.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = numer.reshape(win_r.shape) / (na[live, None] * nb)

    best, found = _winners(scores, nb != 0)

    shape = (len(r_starts), len(c_starts))
    disp_y, disp_x, valid = np.zeros(shape, int), np.zeros(shape, int), np.zeros(shape, bool)
    hit = live[found]
    disp_y.flat[hit] = dy[best[found]]
    disp_x.flat[hit] = dx[best[found]]
    valid.flat[hit] = True
    return disp_y, disp_x, valid


def _gaussian_matrix(m: int, sigma: float) -> np.ndarray:
    """``G`` (``m x m``) with ``G @ a`` the Gaussian smoothing of ``a`` along
    its first axis: the kernel truncated at 4 sigma and normalized, the ends
    clamped (``scipy.ndimage.gaussian_filter1d(a, sigma, axis=0, mode="nearest")``)."""
    radius = int(4.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * offsets**2)
    kernel = kernel / kernel.sum()
    g = np.zeros((m, m))
    at = np.arange(m)[:, None]
    np.add.at(g, (at, np.clip(at + offsets, 0, m - 1)), kernel)
    return g


def _smooth(a: np.ndarray, sigma: float) -> np.ndarray:
    """``a`` smoothed along both axes by :func:`_gaussian_matrix`:
    ``scipy.ndimage.gaussian_filter(a, sigma, mode="nearest")``."""
    return _gaussian_matrix(a.shape[0], sigma) @ a @ _gaussian_matrix(a.shape[1], sigma).T


def _linear_matrix(coords: np.ndarray, m: int) -> np.ndarray:
    """``B`` (``len(coords) x m``) with ``B @ a`` the linear interpolation of
    ``a`` along its first axis at ``coords``, clamped to ``[0, m - 1]``
    (``scipy.ndimage.map_coordinates`` of order 1, ``mode="nearest"``)."""
    coords = np.clip(coords, 0, m - 1)
    lo = np.floor(coords).astype(int)
    frac = coords - lo
    b = np.zeros((len(coords), m))
    at = np.arange(len(coords))
    np.add.at(b, (at, lo), 1.0 - frac)
    np.add.at(b, (at, np.minimum(lo + 1, m - 1)), frac)
    return b


def estimate_velocity(frame_a: Field, frame_b: Field, cfg: MotionConfig = MotionConfig()) -> VelocityField:
    """Velocity field (domain lengths per step) carrying frame_a onto frame_b;
    a flat frame, or a pair with no block to match, gives the zero field.

    The block vectors form a small grid (13 x 13 blocks on a 100 x 100
    frame), so the smoothing and the bilinear interpolation to every pixel
    run as small matrices applied on both sides, ``G_y @ v @ G_x.T`` and
    ``B_y @ v @ B_x.T`` (:func:`_gaussian_matrix`, :func:`_linear_matrix`).
    """
    if frame_a.grid != frame_b.grid:
        raise ValueError("frames must share a grid")
    grid = frame_a.grid
    stride = cfg.stride
    disp_y, disp_x, valid = _block_displacements(frame_a.pixels(), frame_b.pixels(), cfg)
    vy_blk = disp_y / grid.n2
    vx_blk = disp_x / grid.n1

    # blocks without a match (vector 0) take the normalized convolution of the valid ones
    weight = _smooth(valid.astype(float), 1.0)
    for comp in (vx_blk, vy_blk):
        filled = _smooth(comp, 1.0)
        comp[~valid] = (filled / np.maximum(weight, 1e-12))[~valid]

    sigma_blocks = cfg.smooth_sigma / stride
    if sigma_blocks > 0:
        vx_blk = _smooth(vx_blk, sigma_blocks)
        vy_blk = _smooth(vy_blk, sigma_blocks)

    # bilinear interpolation from block centers to every pixel
    half = (cfg.block - 1) / 2.0
    rows = _linear_matrix((np.arange(grid.n2) - half) / stride, valid.shape[0])
    cols = _linear_matrix((np.arange(grid.n1) - half) / stride, valid.shape[1])
    vx = rows @ vx_blk @ cols.T
    vy = rows @ vy_blk @ cols.T
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
    return DiffusivityField(grid, d.flatten(order="F"))
