"""Linear-Gaussian filtering, forecasting, and noise-variance estimation.

The state stacks the field coefficients and the forcing coefficients,
``theta = (alpha, beta)``, and evolves through the augmentation of the
one-step transition ``Phi`` (:func:`mirrorspec.dynamics.build_transition`)

    G = [[Phi, I],
         [0,   I]]

so one step maps ``(alpha, beta) -> (Phi alpha + beta, beta)``: the forcing
coefficients accumulate into the state as a random walk with constant mean.
Observations are coefficient vectors (fields are analyzed before entering the
filter), so the observation matrix is the identity on the ``alpha`` block.

A model is a set of independent blocks of coefficients (:class:`Blocks`), and
the filter runs each batch of equal-size blocks at once along a leading batch
axis, with NumPy's batched Cholesky factorization and solves:

- a dense model is one block of all K coefficients;
- a model of constant velocity and constant diffusivity is a batch of 2-blocks,
  one per cos/sin pair, plus a batch of 1-blocks, one per corner mode: its
  transition is block-diagonal in closed form
  (:func:`~mirrorspec.dynamics.block_transition`) and its noise is isotropic, so
  each block's 4x4 or 2x2 recursion is exact and a pass costs O(K) (the
  spectral Kalman filter of Sigrist, Kunsch & Stahel 2015, JRSS-B 77(1));
- the mirrored model is one dense block of K coefficients plus a batch of
  ``dim S - K`` leakage 1-blocks that run one model and share one covariance.

The direct model uses isotropic covariances ``sigma2 * I`` on its own
coefficient space, while the flipped model maps original-domain coefficient
noise through the band transfer ``H_S`` of
:class:`~mirrorspec.spectral.MirrorBand`, ``sigma2 * (H_S H_S^T + ridge I)``,
on both sides.

Covariance updates use the Joseph form with per-step symmetrization; a
failed innovation-covariance factorization aborts with a diagnostic rather
than silently producing garbage.

The noise fit profiles the scale out of the likelihood (the concentrated
likelihood of structural time-series models, Durbin & Koopman 2012, 2.10 and
7.3): with ``sigma2_obs = 0`` every covariance scales with ``sigma2_alpha`` at
a fixed ``r = sigma2_beta / sigma2_alpha``, leaving a 1-D search over ``r``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoiseParams",
    "Blocks",
    "StateSpaceModel",
    "FilterResult",
    "FilterError",
    "VarianceFit",
    "direct_model",
    "flipped_model",
    "default_init",
    "kf_filter",
    "kf_forecast",
    "estimate_variances",
]

VARIANCE_FLOOR = 1e-12
SUBSPACE_RIDGE = 1e-4  # isotropic floor on H H^T in flipped_model
INIT_COV_SCALE = 10.0  # default_init covariance over the larger noise variance
# search interval and tolerance of the variance fit in log(sigma2_beta / sigma2_alpha)
LOG_RATIO_BOUNDS = (np.log(1e-8), np.log(1e8))
LOG_RATIO_XATOL = 1e-3


class FilterError(RuntimeError):
    """Numerical breakdown inside the filter recursion."""


@dataclass(frozen=True)
class NoiseParams:
    """Process and observation noise variances."""

    sigma2_alpha: float
    sigma2_beta: float
    sigma2_obs: float = 0.0

    def __post_init__(self):
        if self.sigma2_alpha <= 0:
            raise ValueError("sigma2_alpha must be positive")
        if self.sigma2_beta <= 0:
            raise ValueError("sigma2_beta must be positive")
        if self.sigma2_obs < 0:
            raise ValueError("sigma2_obs must be non-negative")


BLOCK_MATRICES = ("phi", "v", "w_alpha", "w_beta")


@dataclass(frozen=True)
class Blocks:
    """``len(index)`` independent blocks of ``m`` alpha coefficients each.

    ``index[b]`` holds the positions of block ``b``'s coefficients in alpha.
    ``phi`` (the one-step transition), ``v``, ``w_alpha`` and ``w_beta`` stack
    the blocks' ``m x m`` matrices along a leading batch axis of length
    ``len(index)``, or of length 1 for one matrix that every block uses.  The
    filter keeps one covariance per block, or one for all of them when every
    matrix has batch length 1.
    """

    index: np.ndarray
    phi: np.ndarray
    v: np.ndarray
    w_alpha: np.ndarray
    w_beta: np.ndarray

    def __post_init__(self):
        index = np.asarray(self.index)
        if index.ndim != 2 or not np.issubdtype(index.dtype, np.integer):
            raise ValueError(f"index must be a 2-D integer array, got shape {index.shape}")
        object.__setattr__(self, "index", index)
        n, m = index.shape
        for name in BLOCK_MATRICES:
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim != 3 or a.shape[0] not in (1, n) or a.shape[1:] != (m, m):
                raise ValueError(f"{name} must stack {m} x {m} matrices for 1 or {n} blocks, "
                                 f"got shape {a.shape}")
            object.__setattr__(self, name, a)

    @property
    def covariances(self) -> int:
        """How many covariances the filter keeps for these blocks."""
        return max(len(getattr(self, name)) for name in BLOCK_MATRICES)

    @property
    def shared(self) -> bool:
        """Whether several blocks run one model and share one covariance."""
        return self.covariances == 1 < len(self.index)


def _isotropic(index: np.ndarray, phi: np.ndarray, noise: NoiseParams,
               tie_obs: bool = True) -> Blocks:
    """Blocks of transitions ``phi`` with the isotropic noise of :func:`direct_model`."""
    eye = np.eye(index.shape[1])[None]
    v_scale = noise.sigma2_obs + (noise.sigma2_alpha if tie_obs else 0.0)
    return Blocks(index, phi, v_scale * eye, noise.sigma2_alpha * eye, noise.sigma2_beta * eye)


def _dense(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(index, phi)`` of one block of all ``len(phi)`` coefficients."""
    k = len(phi)
    if np.shape(phi) != (k, k):
        raise ValueError(f"phi must be {k} x {k}, got {np.shape(phi)}")
    return np.arange(k)[None], np.asarray(phi, dtype=float)[None]


class StateSpaceModel:
    """Noise variances and the independent :class:`Blocks` that together hold
    the ``k`` alpha coefficients and their forcing; the observation map is the
    identity on the alpha block, ``(I_K, 0)``.

    ``StateSpaceModel(phi, noise, v, w_alpha, w_beta)`` is the dense model, one
    block of all ``len(phi)`` coefficients; :meth:`from_blocks` builds any other
    layout.  ``phi``, ``v`` and ``w_*`` read the ``K x K`` matrices of the
    coefficients with blocks of their own (the leading ones); ``channels``
    counts the coefficients after them whose blocks share one model.
    """

    def __init__(self, phi, noise: NoiseParams, v, w_alpha, w_beta):
        index, phi = _dense(phi)
        self.noise = noise
        self.blocks = (Blocks(index, phi, *(np.asarray(m, dtype=float)[None]
                                            for m in (v, w_alpha, w_beta))),)

    @classmethod
    def from_blocks(cls, noise: NoiseParams, blocks) -> StateSpaceModel:
        model = cls.__new__(cls)
        model.noise = noise
        model.blocks = tuple(b for b in blocks if b.index.size)
        return model

    @property
    def k(self) -> int:
        """Coefficients in each half of the state, leakage channels included."""
        return sum(b.index.size for b in self.blocks)

    @property
    def channels(self) -> int:
        """Coefficients whose blocks share one model (the leakage channels)."""
        return sum(b.index.size for b in self.blocks if b.shared)

    def _joined(self, name: str) -> np.ndarray:
        """The ``K x K`` matrix ``name`` of the coefficients before the channels."""
        k = self.k - self.channels
        out = np.zeros((k, k))
        for b in self.blocks:
            if not b.shared:
                out[b.index[:, :, None], b.index[:, None, :]] = getattr(b, name)
        return out

    phi = property(lambda self: self._joined("phi"))
    v = property(lambda self: self._joined("v"))
    w_alpha = property(lambda self: self._joined("w_alpha"))
    w_beta = property(lambda self: self._joined("w_beta"))


def direct_model(phi, noise: NoiseParams, tie_obs: bool = True) -> StateSpaceModel:
    """Model observing its own coefficients with isotropic noise.

    ``phi`` is the ``K x K`` transition (one dense block), or a block-diagonal
    one as its ``(index, phi)`` batches
    (:func:`~mirrorspec.dynamics.block_transition`).
    ``tie_obs`` makes the observation covariance share ``sigma2_alpha`` (the
    printed model structure); with it off, only ``sigma2_obs`` enters the
    observation side, which is the identifiable layout when observations are
    exact coefficient snapshots.
    """
    batches = [_dense(phi)] if isinstance(phi, np.ndarray) else phi
    return StateSpaceModel.from_blocks(
        noise, [_isotropic(index, p, noise, tie_obs) for index, p in batches])


def flipped_model(phi: np.ndarray, noise: NoiseParams, r: np.ndarray) -> StateSpaceModel:
    """Mirrored model of the original-domain transition ``Phi`` (K x K) on the
    band coordinates ``Q' y`` of a :class:`~mirrorspec.spectral.MirrorBand`,
    with ``r`` the complete ``dim S x K`` factor of ``H_S = Q r``.

    In that basis ``exp(delta H_S P pinv(H_S))`` is exactly
    ``blockdiag(R Phi R^-1, I)``, ``R = r[:K]``, and
    ``H_S H_S^T + ridge I`` is ``blockdiag(R R^T + ridge I, ridge I)``, so the
    ``dim S - K`` leakage channels are 1-blocks that share the K=1 random walk
    of :func:`direct_model`, its noise scaled by ``SUBSPACE_RIDGE``: the floor
    that keeps the leakage of mirrored observations off ``range(H_S)`` from
    collapsing the filter covariance.  The observation covariance shares
    ``sigma2_alpha`` as in :func:`direct_model`.
    """
    import scipy.linalg

    k, channels = len(phi), r.shape[0] - len(phi)
    r = r[:k]
    # R Phi R^-1 as the transpose of the solution X' of R' X' = (R Phi)'
    phi = scipy.linalg.solve_triangular(r, (r @ phi).T, trans="T").T
    hht = r @ r.T + SUBSPACE_RIDGE * np.eye(k)
    channel = NoiseParams(noise.sigma2_alpha * SUBSPACE_RIDGE,
                          noise.sigma2_beta * SUBSPACE_RIDGE, noise.sigma2_obs)
    return StateSpaceModel.from_blocks(noise, [
        Blocks(np.arange(k)[None], phi[None],
               (noise.sigma2_obs * np.eye(k) + noise.sigma2_alpha * hht)[None],
               (noise.sigma2_alpha * hht)[None], (noise.sigma2_beta * hht)[None]),
        _isotropic(np.arange(k, k + channels)[:, None], np.ones((1, 1, 1)), channel),
    ])


def default_init(first_obs: np.ndarray, noise: NoiseParams) -> tuple[np.ndarray, np.ndarray]:
    """Initial mean (first observation, zero forcing) and diagonal covariance."""
    k = first_obs.shape[0]
    mean = np.concatenate([first_obs, np.zeros(k)])
    cov = INIT_COV_SCALE * max(noise.sigma2_alpha, noise.sigma2_beta) * np.eye(2 * k)
    return mean, cov


@dataclass
class FilterResult:
    """Filtered means, the last step's covariance, the innovations
    log-likelihood and ``whitened_ss``, the sum of squared whitened
    innovations ``e' S^-1 e``."""

    means_array: np.ndarray
    loglik: float
    loglik_terms: np.ndarray
    innovations: np.ndarray
    whitened_ss: float
    final_cov: np.ndarray = field(repr=False)


def _t(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _predict(model, mean, cov):
    """One step of the augmented transition of ``model.phi``, ``w_alpha`` and
    ``w_beta``; a leading axis of ``mean`` and ``cov`` runs over blocks and
    broadcasts against the batch axis of :class:`Blocks`."""
    phi = model.phi
    k = phi.shape[-1]
    p11, p12, p22 = cov[..., :k, :k], cov[..., :k, k:], cov[..., k:, k:]
    x = phi @ p11
    y = phi @ p12
    top_right = y + p22
    out = np.empty_like(cov)
    out[..., :k, :k] = x @ _t(phi) + y + _t(y) + p22 + model.w_alpha
    out[..., :k, k:] = top_right
    out[..., k:, :k] = _t(top_right)
    out[..., k:, k:] = p22 + model.w_beta
    out = 0.5 * (out + _t(out))
    new_mean = np.empty_like(mean)
    new_mean[..., :k] = (phi @ mean[..., :k, None])[..., 0] + mean[..., k:]
    new_mean[..., k:] = mean[..., k:]
    return new_mean, out


def _update(block: Blocks, mean, cov, obs):
    """One update of a batch of blocks: ``mean`` and ``obs`` hold one row per
    block, ``cov`` one covariance per block or one that they share."""
    k = block.index.shape[1]
    s = cov[..., :k, :k] + block.v
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise FilterError(
            f"innovation covariance is not positive definite ({exc}); "
            "the model noise scales are likely degenerate"
        ) from exc
    innovation = obs - mean[..., :k]
    gain = _t(np.linalg.solve(s, cov[..., :k, :]))
    new_mean = mean + (gain @ innovation[..., None])[..., 0]
    # Joseph form: (I - G H) P (I - G H)^T + G V G^T with H = (I_K, 0)
    ap = cov - gain @ cov[..., :k, :]
    new_cov = ap - ap[..., :k] @ _t(gain) + gain @ block.v @ _t(gain)
    new_cov = 0.5 * (new_cov + _t(new_cov))
    white = np.linalg.solve(chol, innovation[..., None])
    # a covariance shared by n blocks enters the likelihood n times
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum() * (len(obs) / len(chol))
    white_ss = float(np.sum(white * white))
    ll = -0.5 * (innovation.size * np.log(2 * np.pi) + logdet + white_ss)
    return new_mean, new_cov, innovation, ll, white_ss


def _blocks(model: StateSpaceModel, mean, cov):
    """The ``(blocks, rows, mean, cov)`` batches the filter runs on a full
    state: ``rows`` are the state positions ``(alpha, beta)`` of each block,
    ``mean`` has one row per block and ``cov`` one covariance per block or,
    for blocks sharing one model, a single one.  Raises ValueError unless
    ``cov`` is exactly what these batches join back to."""
    batches = []
    for b in model.blocks:
        rows = np.concatenate([b.index, b.index + model.k], axis=1)
        own = rows[:b.covariances]
        batches.append((b, rows, mean[rows], cov[own[:, :, None], own[:, None, :]]))
    if not np.array_equal(_joined_cov(model, batches), cov):
        raise ValueError("the covariance must split into the model's blocks: no covariance "
                         "between two blocks (such as two cos/sin pairs, or range(H_S) and the "
                         "leakage channels), and one covariance on blocks that share it "
                         "(the leakage channels)")
    return batches


def _joined_cov(model: StateSpaceModel, batches) -> np.ndarray:
    """A new full covariance from the batches of :func:`_blocks`."""
    cov = np.zeros((2 * model.k, 2 * model.k))
    for _, rows, _, block_cov in batches:
        cov[rows[:, :, None], rows[:, None, :]] = block_cov
    return cov



def kf_filter(
    model: StateSpaceModel,
    observations: np.ndarray,
    init_mean: np.ndarray,
    init_cov: np.ndarray,
    *,
    update_first: bool = False,
) -> FilterResult:
    """Run the predict/update recursion over a sequence of observations.

    ``observations`` has one row per time step.  By default the initial mean
    is taken as the time-0 filtered state (the usual choice when it was built
    from the first observation) and updates start at step 1; pass
    ``update_first=True`` to assimilate row 0 as well.  ``init_cov`` must
    split exactly into the model's blocks, as :func:`default_init`'s does.
    """
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    mean = np.asarray(init_mean, dtype=float)
    cov = np.asarray(init_cov, dtype=float)
    if mean.shape != (2 * model.k,):
        raise ValueError(f"init_mean must have length {2 * model.k}")
    if cov.shape != (2 * model.k, 2 * model.k):
        raise ValueError("init_cov has wrong shape")

    batches = _blocks(model, mean, cov)
    steps = obs.shape[0]
    means = np.empty((steps, 2 * model.k))
    terms = []
    white_ss = 0.0
    innovations = np.zeros_like(obs)

    for t in range(steps):
        if t > 0:
            batches = [(b, rows, *_predict(b, m, c)) for b, rows, m, c in batches]
        if t > 0 or update_first:
            updates = [_update(b, m, c, obs[t, b.index]) for b, _, m, c in batches]
            batches = [(b, rows, *u[:2]) for (b, rows, _, _), u in zip(batches, updates)]
            for (b, *_), u in zip(batches, updates):
                innovations[t, b.index] = u[2]
            terms.append(sum(u[3] for u in updates))
            white_ss += sum(u[4] for u in updates)
        for _, rows, m, _ in batches:
            means[t, rows] = m

    terms = np.asarray(terms)
    return FilterResult(
        means_array=means,
        loglik=float(terms.sum()),
        loglik_terms=terms,
        innovations=innovations,
        whitened_ss=float(white_ss),
        final_cov=_joined_cov(model, batches),
    )


def kf_forecast(
    model: StateSpaceModel,
    last_state: np.ndarray,
    last_cov: np.ndarray,
    h: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate ``h`` steps ahead without updates; returns the ``h`` means
    and the covariance after the last step."""
    if h < 1:
        raise ValueError(f"forecast horizon must be >= 1, got {h}")
    batches = _blocks(model, np.asarray(last_state, dtype=float),
                      np.asarray(last_cov, dtype=float))
    means = np.empty((h, 2 * model.k))
    for i in range(h):
        batches = [(b, rows, *_predict(b, m, c)) for b, rows, m, c in batches]
        for _, rows, m, _ in batches:
            means[i, rows] = m
    return means, _joined_cov(model, batches)


@dataclass
class VarianceFit:
    """Outcome of the innovations-likelihood maximization.

    ``result`` is the full filter pass at ``params``; ``n_evaluations``
    counts every filter pass the fit made, that last one included."""

    params: NoiseParams
    result: FilterResult = field(repr=False)
    converged: bool
    n_evaluations: int

    @property
    def loglik(self) -> float:
        return self.result.loglik

    def diagnostics(self) -> dict:
        """What a run records about its fit: ``ratio`` is the fitted
        ``sigma2_beta / sigma2_alpha``, ``ratio_at_bound`` says whether it
        ended on an end of the search interval and ``n_scalars`` is the ``N``
        that the profiled scale divides by."""
        ratio = self.params.sigma2_beta / self.params.sigma2_alpha
        lo, hi = LOG_RATIO_BOUNDS
        log_ratio = np.log(ratio)
        return {
            "converged": self.converged,
            "n_evaluations": self.n_evaluations,
            "ratio": ratio,
            "ratio_at_bound": bool(min(log_ratio - lo, hi - log_ratio) <= LOG_RATIO_XATOL),
            "n_scalars": self.result.innovations.shape[1] * len(self.result.loglik_terms),
        }


def estimate_variances(
    model_factory,
    observations: np.ndarray,
    *,
    max_evaluations: int = 200,
) -> VarianceFit:
    """Maximize the innovations log-likelihood over the noise variances.

    ``model_factory(params)`` must return a :class:`StateSpaceModel`; every
    pass starts from :func:`default_init` at the first observation.  The fit
    holds ``sigma2_obs = 0``, and every covariance of the factory's models
    must scale with ``sigma2_alpha`` at a fixed ``r = sigma2_beta / sigma2_alpha``
    (both model layouts and :func:`default_init` do).  One filter pass at
    ``NoiseParams(1, r)`` then gives ``Q``, the squared whitened innovations
    over ``N`` scalars; ``sigma2_alpha = Q / N`` is the best scale at that
    ``r``, with profiled log-likelihood ``loglik + (Q - N log(Q/N) - N) / 2``.
    A bounded scalar search over ``log r`` maximizes it; a last pass at the
    fitted noise gives ``result``.  ``max_evaluations`` caps the passes; a
    fit stopped by the cap returns the best point seen, with a warning.
    """
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    if obs.shape[0] < 3:
        raise ValueError("variance estimation needs at least 3 time steps")
    if max_evaluations < 2:
        raise ValueError(f"the variance fit needs at least 2 evaluations, got {max_evaluations}")

    def run(params):
        return kf_filter(model_factory(params), obs, *default_init(obs[0], params))

    def scaled(log_ratio, scale):
        return NoiseParams(scale, scale * float(np.exp(log_ratio)))

    scales = {}

    def neg_profile(log_ratio):
        try:
            result = run(scaled(log_ratio, 1.0))
        except (FilterError, np.linalg.LinAlgError):
            return 1e30
        q, n = result.whitened_ss, obs.shape[1] * len(result.loglik_terms)
        scale = max(q / n, VARIANCE_FLOOR)
        profiled = result.loglik + 0.5 * (q - n * np.log(scale) - q / scale)
        if not np.isfinite(profiled):
            return 1e30
        scales[log_ratio] = scale
        return -profiled

    import scipy.optimize

    opt = scipy.optimize.minimize_scalar(
        neg_profile, bounds=LOG_RATIO_BOUNDS, method="bounded",
        options={"xatol": LOG_RATIO_XATOL, "maxiter": max_evaluations - 1},
    )
    if not opt.success:
        warnings.warn(
            "variance estimation stopped at its evaluation budget; returning best point seen",
            RuntimeWarning,
        )
    params = scaled(opt.x, scales.get(opt.x, 1.0))
    return VarianceFit(
        params=params,
        result=run(params),
        converged=bool(opt.success),
        n_evaluations=opt.nfev + 1,
    )
