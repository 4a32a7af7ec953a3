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

A model (:class:`StateSpaceModel`) is nothing but its independent blocks of
coefficients (:class:`Blocks`), and :func:`direct_model` builds every model.
The filter runs each batch of equal-size blocks at once along a leading batch
axis, with NumPy's batched Cholesky factorization and solves; the blocks of a
batch have their own transitions and share one set of noise covariances:

- a dense model is one block of all K coefficients;
- a model of constant velocity and constant diffusivity is a batch of 2-blocks,
  one per cos/sin pair, plus a batch of 1-blocks, one per corner mode: its
  transition is block-diagonal in closed form
  (:func:`~mirrorspec.dynamics.block_transition`) and its noise is isotropic, so
  each block's 4x4 or 2x2 recursion is exact and a pass costs O(K) (the
  spectral Kalman filter of Sigrist, Kunsch & Stahel 2015, JRSS-B 77(1));
- a mirrored model is either of these on the least-squares Fourier
  coefficients of its observations
  (:func:`~mirrorspec.evaluate.build_pipeline`), plus a batch of ``dim S - K``
  leakage 1-blocks, each with its own filter covariance.

Every model uses isotropic covariances ``sigma2 * I`` on its own coefficients;
a leakage channel scales them by ``SUBSPACE_RIDGE``.

Covariance updates use the Joseph form with per-step symmetrization; a
failed innovation-covariance factorization aborts with a diagnostic rather
than silently producing garbage.

The noise fit profiles the scale out of the likelihood (the concentrated
likelihood of structural time-series models, Durbin & Koopman 2012, 2.10 and
7.3): with ``sigma2_obs = 0`` every covariance scales with ``sigma2_alpha`` at
a fixed ``r = sigma2_beta / sigma2_alpha``, leaving a 1-D search over ``r``:
Brent's bounded search (Brent 1973, ch. 5) on ``log r``, in this module, so a
fit loads no SciPy.
"""

from __future__ import annotations

import math
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
    "default_init",
    "kf_filter",
    "kf_forecast",
    "estimate_variances",
]

VARIANCE_FLOOR = 1e-12
SUBSPACE_RIDGE = 1e-4  # noise scale of a leakage channel over the coefficients' one
INIT_COV_SCALE = 10.0  # default_init covariance over the larger noise variance
# search interval and tolerance of the variance fit in log(sigma2_beta / sigma2_alpha)
LOG_RATIO_BOUNDS = (np.log(1e-8), np.log(1e8))
LOG_RATIO_XATOL = 1e-3


class FilterError(RuntimeError):
    """Numerical breakdown inside the filter recursion."""


@dataclass(frozen=True)
class NoiseParams:
    """Process and observation noise variances, all finite."""

    sigma2_alpha: float
    sigma2_beta: float
    sigma2_obs: float = 0.0

    def __post_init__(self):
        for name in ("sigma2_alpha", "sigma2_beta"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not 0 <= self.sigma2_obs < np.inf:
            raise ValueError(f"sigma2_obs must be finite and non-negative, got {self.sigma2_obs}")


@dataclass(frozen=True)
class Blocks:
    """``len(index)`` independent blocks of ``m`` alpha coefficients each.

    ``index[b]`` holds the positions of block ``b``'s coefficients in alpha
    and ``phi[b]`` its ``m x m`` one-step transition; ``v``, ``w_alpha`` and
    ``w_beta`` are the ``m x m`` noise covariances that every block of the
    batch shares.  The filter keeps one covariance per block.
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
        for name, shape in (("phi", (n, m, m)), ("v", (m, m)), ("w_alpha", (m, m)),
                            ("w_beta", (m, m))):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            object.__setattr__(self, name, a)


def _isotropic(index: np.ndarray, phi: np.ndarray, noise: NoiseParams,
               tie_obs: bool = True) -> Blocks:
    """Blocks of transitions ``phi`` with the isotropic noise of :func:`direct_model`."""
    eye = np.eye(index.shape[1])
    v_scale = noise.sigma2_obs + (noise.sigma2_alpha if tie_obs else 0.0)
    return Blocks(index, phi, v_scale * eye, noise.sigma2_alpha * eye, noise.sigma2_beta * eye)


@dataclass(frozen=True)
class StateSpaceModel:
    """The independent :class:`Blocks` that together hold the ``k`` alpha
    coefficients and their forcing; the observation map is the identity on
    the alpha block, ``(I_K, 0)``.  ``phi``, ``v`` and ``w_*`` read the
    ``k x k`` matrices that the blocks join to.
    """

    blocks: tuple[Blocks, ...]

    @property
    def k(self) -> int:
        """Coefficients in each half of the state, leakage channels included."""
        return sum(b.index.size for b in self.blocks)

    def _joined(self, name: str) -> np.ndarray:
        """The ``k x k`` matrix ``name`` of all blocks."""
        out = np.zeros((self.k, self.k))
        for b in self.blocks:
            out[b.index[:, :, None], b.index[:, None, :]] = getattr(b, name)
        return out

    phi = property(lambda self: self._joined("phi"))
    v = property(lambda self: self._joined("v"))
    w_alpha = property(lambda self: self._joined("w_alpha"))
    w_beta = property(lambda self: self._joined("w_beta"))


def direct_model(phi, noise: NoiseParams, tie_obs: bool = True,
                 leakage: int = 0) -> StateSpaceModel:
    """Model observing its own coefficients with isotropic noise.

    ``phi`` is the ``K x K`` transition (one dense block), or a block-diagonal
    one as its ``(index, phi)`` batches
    (:func:`~mirrorspec.dynamics.block_transition`).
    ``tie_obs`` makes the observation covariance share ``sigma2_alpha`` (the
    printed model structure); with it off, only ``sigma2_obs`` enters the
    observation side, which is the identifiable layout when observations are
    exact coefficient snapshots.

    ``leakage`` appends that many channels after the K coefficients, the part
    of a mirrored observation off the span of the original modes: 1-blocks of
    the random walk ``phi = 1`` with the noise variances scaled by
    ``SUBSPACE_RIDGE``, the floor that keeps the filter covariance of these
    channels from collapsing.
    """
    if isinstance(phi, np.ndarray):
        k = len(phi)
        if phi.shape != (k, k):
            raise ValueError(f"phi must be {k} x {k}, got {phi.shape}")
        phi = [(np.arange(k)[None], phi[None])]
    blocks = [_isotropic(index, p, noise, tie_obs) for index, p in phi]
    k = sum(b.index.size for b in blocks)
    channel = NoiseParams(noise.sigma2_alpha * SUBSPACE_RIDGE,
                          noise.sigma2_beta * SUBSPACE_RIDGE, noise.sigma2_obs)
    blocks.append(_isotropic(np.arange(k, k + leakage)[:, None], np.ones((leakage, 1, 1)),
                             channel, tie_obs))
    return StateSpaceModel(tuple(b for b in blocks if b.index.size))


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


def _predict(block: Blocks, mean, cov):
    """One step of the augmented transition of ``block.phi``, ``w_alpha`` and
    ``w_beta``; a leading axis of ``mean``, ``cov`` and ``phi`` runs over the
    blocks of the batch."""
    phi = block.phi
    k = phi.shape[-1]
    p11, p12, p22 = cov[..., :k, :k], cov[..., :k, k:], cov[..., k:, k:]
    x = phi @ p11
    y = phi @ p12
    top_right = y + p22
    out = np.empty_like(cov)
    out[..., :k, :k] = x @ _t(phi) + y + _t(y) + p22 + block.w_alpha
    out[..., :k, k:] = top_right
    out[..., k:, :k] = _t(top_right)
    out[..., k:, k:] = p22 + block.w_beta
    out = 0.5 * (out + _t(out))
    new_mean = np.empty_like(mean)
    new_mean[..., :k] = (phi @ mean[..., :k, None])[..., 0] + mean[..., k:]
    new_mean[..., k:] = mean[..., k:]
    return new_mean, out


def _update(block: Blocks, mean, cov, obs):
    """One update of a batch of blocks: ``mean``, ``cov`` and ``obs`` hold
    one row or covariance per block."""
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
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum()
    white_ss = float(np.sum(white * white))
    ll = -0.5 * (innovation.size * np.log(2 * np.pi) + logdet + white_ss)
    return new_mean, new_cov, innovation, ll, white_ss


def _blocks(model: StateSpaceModel, mean, cov):
    """The ``(blocks, rows, mean, cov)`` batches the filter runs on a full
    state: ``rows`` are the state positions ``(alpha, beta)`` of each block,
    ``mean`` has one row and ``cov`` one covariance per block.  Raises
    ValueError unless ``cov`` is exactly what these batches join back to."""
    batches = []
    for b in model.blocks:
        rows = np.concatenate([b.index, b.index + model.k], axis=1)
        batches.append((b, rows, mean[rows], cov[rows[:, :, None], rows[:, None, :]]))
    # the blocks' rows partition the state, so every nonzero of cov lies in
    # a block exactly when the blocks gather all of them
    if np.count_nonzero(cov) != sum(np.count_nonzero(c) for *_, c in batches):
        raise ValueError("the covariance must split into the model's blocks: no covariance "
                         "between two blocks (such as two cos/sin pairs, or a coefficient and "
                         "a leakage channel)")
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
) -> FilterResult:
    """Run the predict/update recursion over a sequence of observations.

    ``observations`` has one row per time step.  The initial mean is the
    time-0 filtered state (:func:`default_init` builds it from the first
    observation), so updates start at step 1.  ``init_cov`` must split
    exactly into the model's blocks, as :func:`default_init`'s does.
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

    means[0] = mean
    for t in range(1, steps):
        batches = [(b, rows, *_predict(b, m, c)) for b, rows, m, c in batches]
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
    (:func:`direct_model` and :func:`default_init` do).  One filter pass at
    ``NoiseParams(1, r)`` then gives ``Q``, the squared whitened innovations
    over ``N`` scalars; ``sigma2_alpha = Q / N`` is the best scale at that
    ``r``, with profiled log-likelihood ``loglik + (Q - N log(Q/N) - N) / 2``.
    Brent's bounded search over ``log r`` (:func:`_bounded_minimum`)
    maximizes it; a last pass at the fitted noise gives ``result``.
    ``max_evaluations`` caps the passes; a fit stopped by the cap returns
    the best point seen, with a warning.
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

    x, _, nfev, converged = _bounded_minimum(neg_profile, *LOG_RATIO_BOUNDS,
                                             LOG_RATIO_XATOL, max_evaluations - 1)
    if not converged:
        warnings.warn(
            "variance estimation stopped at its evaluation budget; returning best point seen",
            RuntimeWarning,
        )
    params = scaled(x, scales.get(x, 1.0))
    return VarianceFit(params=params, result=run(params), converged=converged,
                       n_evaluations=nfev + 1)


def _sign(v: float) -> float:
    """The sign of ``v``, 1.0 for zero (SciPy's ``np.sign(v) + (v == 0)``)."""
    return -1.0 if v < 0 else 1.0


def _bounded_minimum(func, lo: float, hi: float, xatol: float, maxfun: int):
    """Minimize ``func`` on ``[lo, hi]`` by Brent's bounded search (Brent 1973,
    *Algorithms for Minimization without Derivatives*, ch. 5): a parabola
    through the three best points where it lands well inside the bracket,
    else a golden-section step, until the bracket is within about ``xatol``.

    A step-for-step port of SciPy's ``minimize_scalar(method="bounded")``
    (``fminbound``), ``maxfun`` being its ``maxiter``.  Returns ``(x, fun,
    nfev, converged)``: ``x`` is the very float ``func`` was called with at
    its best value ``fun``; ``converged`` is False when the budget stopped
    the search or a NaN appeared.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    # xf is the best point, nfc the second best and fulc the previous second best
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    nfev = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    stopped = False
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        nfev += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if nfev >= maxfun:
            stopped = True
            break
    nan = math.isnan(xf) or math.isnan(fx) or math.isnan(fu)
    return xf, fx, nfev, not (stopped or nan)
