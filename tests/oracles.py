"""Reference operators that only tests use."""

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.sparse as sparse

from mirrorspec.grid import DEFAULT_FLIP, FlipVariant, GridSpec, flip_vector_indices
from mirrorspec.kalman import INIT_COV_SCALE, Channels, NoiseParams, StateSpaceModel


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


def band_analysis(band) -> np.ndarray:
    """A :class:`~mirrorspec.spectral.MirrorBand` as one dense ``dim S x n``
    matrix ``A`` on column-stacked field values: row ``s`` is ``scale[s]``
    times the outer product of the orthonormal DCT-II rows ``cols[s]`` along x
    and ``rows[s]`` along y (y varies fastest).  The rows are orthogonal with
    squared norms ``scale**2``, so the tests hold ``observe`` to ``A f``,
    ``reconstruct`` to ``(y / scale**2) A`` and ``transfer`` to
    ``A @ basis_matrix``."""
    g = band.grid
    cx = scipy.fft.dct(np.eye(g.n1), norm="ortho", axis=0)[band.cols]
    cy = scipy.fft.dct(np.eye(g.n2), norm="ortho", axis=0)[band.rows]
    outer = band.scale[:, None, None] * cx[:, :, None] * cy[:, None, :]
    return outer.reshape(band.k, g.n)


def _rows(model: StateSpaceModel, block) -> np.ndarray:
    """The state positions ``(alpha, beta)`` of ``block``'s coefficients."""
    return np.concatenate([block.positions, block.positions + model.k])


def _channel_rows(model: StateSpaceModel, ch: Channels) -> tuple[np.ndarray, np.ndarray]:
    """The state positions ``(alpha, beta)`` of each channel's real part and of
    its imaginary part, -1 (a spare last row) for a real channel's."""
    imag = np.full(ch.index.size, -1)
    imag[:ch.imag.size] = ch.imag
    return (np.column_stack([ch.index, ch.index + model.k]),
            np.column_stack([imag, np.where(imag < 0, -1, imag + model.k)]))


def split(model: StateSpaceModel, mean: np.ndarray, cov: np.ndarray) -> list:
    """The filter state, one ``(mean, cov)`` per part of ``model.parts``, that
    gathers the dense ``2K`` mean and ``2K x 2K`` covariance; covariance between
    two parts or channels is dropped.  A channel reads the real part of its
    complex covariance from the real-part rows and columns and the imaginary
    part from the imaginary-part rows, as a covariance in the algebra of
    rotations has it."""
    state = []
    for p in model.parts:
        if isinstance(p, Channels):
            re, im = _channel_rows(model, p)
            m, c = np.append(mean, 0.0), np.pad(cov, (0, 1))
            state.append((m[re] + 1j * m[im],
                          c[re[:, :, None], re[:, None, :]] + 1j * c[im[:, :, None], re[:, None, :]]))
        else:
            rows = _rows(model, p)
            state.append((mean[rows], cov[np.ix_(rows, rows)]))
    return state


def joined(model: StateSpaceModel, what) -> np.ndarray:
    """The dense ``2K x 2K`` covariance of the filter state ``what``, or, for
    ``what`` one of ``"phi"``, ``"v"``, ``"w_alpha"`` and ``"w_beta"``, the
    ``K x K`` matrix that the parts' own transitions and noise variances join
    to.  A channel's complex entry ``x`` is the rotation block
    ``[[Re x, -Im x], [Im x, Re x]]`` over its real and imaginary parts."""
    size = model.k if isinstance(what, str) else 2 * model.k
    out = np.zeros((size + 1, size + 1))  # the last row and column are spare
    for i, p in enumerate(model.parts):
        if isinstance(p, Channels):
            re, im = _channel_rows(model, p)
            if isinstance(what, str):
                x = np.broadcast_to(getattr(p, "lam" if what == "phi" else what),
                                    p.index.shape)[:, None, None]
                rows = np.column_stack([re[:, 0], im[:, 0]])
            else:
                x = what[i][1]
                rows = np.concatenate([re, im], axis=1)
            x = np.asarray(x, dtype=complex)
            out[rows[:, :, None], rows[:, None, :]] = np.block([[x.real, -x.imag],
                                                                [x.imag, x.real]])
        elif isinstance(what, str):
            out[np.ix_(p.positions, p.positions)] = (p.phi if what == "phi" else
                                                     getattr(p, what) * np.eye(p.positions.size))
        else:
            rows = _rows(model, p)
            out[np.ix_(rows, rows)] = what[i][1]
    return out[:-1, :-1]


def dense_init(first_obs: np.ndarray, noise: NoiseParams) -> tuple[np.ndarray, np.ndarray]:
    """The state that :func:`~mirrorspec.kalman.default_init` gives every
    model, as one dense ``2K`` mean and ``2K x 2K`` covariance: the first
    observation, zero forcing and ``INIT_COV_SCALE * max(sigma2_alpha,
    sigma2_beta) * I``."""
    k = len(first_obs)
    scale = INIT_COV_SCALE * max(noise.sigma2_alpha, noise.sigma2_beta)
    return np.concatenate([first_obs, np.zeros(k)]), scale * np.eye(2 * k)


@dataclass
class DensePass:
    """What :func:`dense_filter` returns: the pass's log-likelihood, sum of
    squared whitened innovations, smallest Cholesky diagonal of ``S``, the
    ``(steps, K)`` innovations (row 0 zero), the ``(steps + h, 2K)`` filtered
    then forecast means, the last filtered covariance, and the covariance
    after each forecast step."""

    loglik: float
    whitened_ss: float
    min_pivot: float
    innovations: np.ndarray
    means: np.ndarray
    final_cov: np.ndarray
    forecast_covs: list


def dense_filter(phi, v, w_alpha, w_beta, obs, mean, cov, h: int = 0) -> DensePass:
    """The textbook Kalman filter of the augmented transition
    ``G = [[phi, I], [0, I]]`` with state noise ``blockdiag(w_alpha, w_beta)``
    and observation ``(I_K, 0)`` with noise ``v``, all dense ``K x K``
    matrices, from the time-0 state ``(mean, cov)``, then ``h`` forecast
    steps.  ``S`` is factored by SciPy's Cholesky and the gain is
    ``cho_solve(S, P H')'``, the Joseph form updates the covariance."""
    obs = np.asarray(obs, dtype=float)
    k = len(phi)
    g = np.block([[phi, np.eye(k)], [np.zeros((k, k)), np.eye(k)]])
    w = np.block([[w_alpha, np.zeros((k, k))], [np.zeros((k, k)), w_beta]])
    means, innovations = [mean], np.zeros_like(obs)
    loglik, white_ss, pivot = 0.0, 0.0, np.inf
    for t in range(1, len(obs)):
        mean, cov = g @ mean, g @ cov @ g.T + w
        s = cov[:k, :k] + v
        e = obs[t] - mean[:k]
        chol = scipy.linalg.cho_factor(s, lower=True)
        white = scipy.linalg.solve_triangular(chol[0], e, lower=True)
        diag = np.diag(chol[0])
        pivot = min(pivot, diag.min())
        loglik += -0.5 * (k * np.log(2 * np.pi) + 2 * np.sum(np.log(diag)) + white @ white)
        white_ss += white @ white
        gain = scipy.linalg.cho_solve(chol, cov[:k, :].copy()).T
        mean = mean + gain @ e
        ap = cov - gain @ cov[:k, :]
        cov = ap - ap[:, :k] @ gain.T + gain @ v @ gain.T
        cov = 0.5 * (cov + cov.T)
        means.append(mean)
        innovations[t] = e
    final_cov, forecast_covs = cov, []
    for _ in range(h):
        mean, cov = g @ mean, g @ cov @ g.T + w
        means.append(mean)
        forecast_covs.append(cov)
    return DensePass(float(loglik), float(white_ss), float(pivot), innovations,
                     np.array(means), final_cov, forecast_covs)


def spectral_gradient(grid, values) -> tuple[np.ndarray, np.ndarray]:
    """``(d/dx, d/dy)`` of the trigonometric interpolant of column-stacked
    samples, by ``scipy.fft``: each DFT cell times ``2 pi i`` its signed
    wavenumber, and no derivative at a Nyquist index."""
    hat = scipy.fft.fft2(values.reshape(grid.shape, order="F"))
    my, mx = (scipy.fft.fftfreq(n, 1.0 / n) for n in grid.shape)
    mx[np.abs(mx) == grid.n1 / 2] = 0.0
    my[np.abs(my) == grid.n2 / 2] = 0.0
    return tuple(scipy.fft.ifft2(2j * np.pi * m * hat).real.flatten(order="F")
                 for m in (mx[None, :], my[:, None]))


def quadrature_transition(ordering, vel, dif) -> np.ndarray:
    """The Galerkin generator by grid quadrature: every retained mode at every
    grid point as an ``N x K`` table, and ``P = test' src / N`` scaled by
    ``w_j / (w_i c_i)``, ``c_i`` the grid mean of the test mode's squared
    cosine, with ``div D`` from :func:`spectral_gradient`.  The tests hold
    :func:`mirrorspec.galerkin.assemble_transition` to it."""
    grid = ordering.grid
    div_dx, div_dy = spectral_gradient(grid, dif.d)
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
        divk = div_dx[:, None] * ktx[cols] + div_dy[:, None] * kty[cols]
        cos_b, sin_b = cos_all[:, cols], sin_all[:, cols]
        src = np.where(ordering.is_sin[cols],
                       -a * cos_b - quad * sin_b + divk * cos_b,
                       a * sin_b - quad * cos_b - divk * sin_b)
        psi[:, cols] = test.T @ src
    psi /= grid.n
    c = np.mean(cos_all * cos_all, axis=0)
    return psi / (ordering.weight * c)[:, None] * ordering.weight
