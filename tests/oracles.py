"""Reference operators that only tests use."""

import numpy as np
import scipy.sparse as sparse

from mirrorspec.grid import DEFAULT_FLIP, FlipVariant, GridSpec, flip_vector_indices
from mirrorspec.kalman import StateSpaceModel


def flip_matrix(grid: GridSpec, variant: FlipVariant = DEFAULT_FLIP) -> sparse.csr_matrix:
    """The sparse ``4N x N`` permutation-like matrix ``R`` of the double flip.

    ``R @ f.values == flip_field(f).values`` for every field ``f``; each row
    holds a single 1 and each column sums to 4.  For an ``(n1, n2)`` grid it
    equals the Kronecker product of the two single-axis extension matrices,
    x-factor first (the factor order is fixed by the column-stacking
    convention, validated against the worked 2x2 example in the tests).
    """
    n = grid.n
    cols = flip_vector_indices(grid, variant)
    data = np.ones(4 * n)
    return sparse.csr_matrix((data, (np.arange(4 * n), cols)), shape=(4 * n, n))


def _rows(model: StateSpaceModel, block) -> np.ndarray:
    """The state positions ``(alpha, beta)`` of each of ``block``'s blocks."""
    return np.concatenate([block.index, block.index + model.k], axis=1)


def split(model: StateSpaceModel, mean: np.ndarray, cov: np.ndarray) -> list:
    """The filter state, one ``(mean, cov)`` per batch of ``model.blocks``, that
    gathers the dense ``2K`` mean and ``2K x 2K`` covariance; covariance between
    two blocks is dropped."""
    state = []
    for b in model.blocks:
        rows = _rows(model, b)
        state.append((mean[rows], cov[rows[:, :, None], rows[:, None, :]]))
    return state


def joined(model: StateSpaceModel, what) -> np.ndarray:
    """The dense ``2K x 2K`` covariance of the filter state ``what``, or, for
    ``what`` one of ``"phi"``, ``"v"``, ``"w_alpha"`` and ``"w_beta"``, the
    ``K x K`` matrix that the blocks' own matrices join to."""
    if isinstance(what, str):
        out = np.zeros((model.k, model.k))
        for b in model.blocks:
            out[b.index[:, :, None], b.index[:, None, :]] = getattr(b, what)
        return out
    out = np.zeros((2 * model.k, 2 * model.k))
    for b, (_, cov) in zip(model.blocks, what):
        rows = _rows(model, b)
        out[rows[:, :, None], rows[:, None, :]] = cov
    return out


def quadrature_transition(ordering, vel, dif) -> np.ndarray:
    """The Galerkin generator by grid quadrature: every retained mode at every
    grid point as an ``N x K`` table, and ``P = test' src / N`` scaled by
    ``w_j / (w_i c_i)``.  The tests hold
    :func:`mirrorspec.galerkin.assemble_transition` to it."""
    grid = ordering.grid
    x, y = grid.mesh()
    arg = 2 * np.pi * (x.flatten(order="F")[:, None] * ordering.kx
                       + y.flatten(order="F")[:, None] * ordering.ky)
    cos_all, sin_all = np.cos(arg), np.sin(arg)
    test = np.where(ordering.is_sin, sin_all, cos_all)
    ktx, kty = 2 * np.pi * ordering.kx, 2 * np.pi * ordering.ky
    psi = np.empty((ordering.k, ordering.k))
    for lo in range(0, ordering.k, 128):
        cols = slice(lo, lo + 128)
        a = vel.vx[:, None] * ktx[cols] + vel.vy[:, None] * kty[cols]
        quad = dif.d[:, None] * (ktx[cols] * ktx[cols]) + dif.d[:, None] * (kty[cols] * kty[cols])
        divk = dif.div_dx[:, None] * ktx[cols] + dif.div_dy[:, None] * kty[cols]
        cos_b, sin_b = cos_all[:, cols], sin_all[:, cols]
        src = np.where(ordering.is_sin[cols],
                       -a * cos_b - quad * sin_b + divk * cos_b,
                       a * sin_b - quad * cos_b - divk * sin_b)
        psi[:, cols] = test.T @ src
    psi /= grid.n
    return psi / (ordering.weight * ordering.cnorm)[:, None] * ordering.weight
