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

A filter state is held the same way, from :func:`default_init` through
:func:`kf_filter` to :func:`kf_forecast`: one ``(mean, cov)`` per batch of
``model.blocks``, of shapes ``(n, 2m)`` and ``(n, 2m, 2m)`` for ``n`` blocks of
``m`` coefficients, so no ``2K x 2K`` covariance is formed.  Only the filtered
means are joined, into the ``(steps, 2K)`` rows of ``FilterResult.means_array``.

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


def _isotropic(index: np.ndarray, phi: np.ndarray, noise: NoiseParams) -> Blocks:
    """Blocks of transitions ``phi`` with the isotropic noise of :func:`direct_model`."""
    eye = np.eye(index.shape[1])
    return Blocks(index, phi, (noise.sigma2_obs + noise.sigma2_alpha) * eye,
                  noise.sigma2_alpha * eye, noise.sigma2_beta * eye)


@dataclass(frozen=True)
class StateSpaceModel:
    """The independent :class:`Blocks` that together hold the ``k`` alpha
    coefficients and their forcing; the observation map is the identity on
    the alpha block, ``(I_K, 0)``.  A filter state is one ``(mean, cov)`` per
    batch of ``blocks`` (:func:`default_init`).
    """

    blocks: tuple[Blocks, ...]

    @property
    def k(self) -> int:
        """Coefficients in each half of the state, leakage channels included."""
        return sum(b.index.size for b in self.blocks)


def direct_model(phi, noise: NoiseParams, leakage: int = 0) -> StateSpaceModel:
    """Model observing its own coefficients with isotropic noise.

    ``phi`` is the ``K x K`` transition (one dense block), or a block-diagonal
    one as its ``(index, phi)`` batches
    (:func:`~mirrorspec.dynamics.block_transition`).  The observation
    covariance is ``(sigma2_obs + sigma2_alpha) I``.

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
    blocks = [_isotropic(index, p, noise) for index, p in phi]
    k = sum(b.index.size for b in blocks)
    channel = NoiseParams(noise.sigma2_alpha * SUBSPACE_RIDGE,
                          noise.sigma2_beta * SUBSPACE_RIDGE, noise.sigma2_obs)
    blocks.append(_isotropic(np.arange(k, k + leakage)[:, None], np.ones((leakage, 1, 1)),
                             channel))
    return StateSpaceModel(tuple(b for b in blocks if b.index.size))


def default_init(model: StateSpaceModel, first_obs: np.ndarray,
                 noise: NoiseParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """The initial filter state: for each batch of ``model.blocks``, the mean
    ``(n, 2m)`` of the first observation and zero forcing, and the covariance
    ``(n, 2m, 2m)`` ``INIT_COV_SCALE * max(sigma2_alpha, sigma2_beta) * I``."""
    first_obs = np.asarray(first_obs, dtype=float)
    if first_obs.shape != (model.k,):
        raise ValueError(f"first_obs must have length {model.k}, got shape {first_obs.shape}")
    scale = INIT_COV_SCALE * max(noise.sigma2_alpha, noise.sigma2_beta)
    state = []
    for b in model.blocks:
        n, m = b.index.shape
        mean = np.concatenate([first_obs[b.index], np.zeros((n, m))], axis=1)
        state.append((mean, np.tile(scale * np.eye(2 * m), (n, 1, 1))))
    return state


@dataclass
class FilterResult:
    """Filtered means as ``(steps, 2K)`` rows ``(alpha, beta)``, the
    innovations log-likelihood, ``whitened_ss``, the sum of squared whitened
    innovations ``e' S^-1 e``, and ``final_state``, the last step's state as
    one ``(mean, cov)`` per batch of the model's blocks."""

    means_array: np.ndarray
    loglik: float
    loglik_terms: np.ndarray
    innovations: np.ndarray
    whitened_ss: float
    final_state: list = field(repr=False)


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


def _checked(model: StateSpaceModel, state) -> list[tuple[np.ndarray, np.ndarray]]:
    """``state`` as float arrays; raises ValueError naming the batch unless it
    holds one ``(mean, cov)`` of its block's shape per batch of ``model.blocks``."""
    state = list(state)
    if len(state) != len(model.blocks):
        raise ValueError(f"the state must hold one (mean, cov) per batch of blocks: "
                         f"{len(model.blocks)}, got {len(state)}")
    out = []
    for i, (b, (mean, cov)) in enumerate(zip(model.blocks, state)):
        n, m = b.index.shape
        mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
        if mean.shape != (n, 2 * m) or cov.shape != (n, 2 * m, 2 * m):
            raise ValueError(f"batch {i} of the state must have a mean of shape {(n, 2 * m)} "
                             f"and a covariance of shape {(n, 2 * m, 2 * m)}, "
                             f"got {mean.shape} and {cov.shape}")
        out.append((mean, cov))
    return out


def _rows(model: StateSpaceModel, block: Blocks) -> np.ndarray:
    """The state positions ``(alpha, beta)`` of each of ``block``'s blocks."""
    return np.concatenate([block.index, block.index + model.k], axis=1)


def kf_filter(model: StateSpaceModel, observations: np.ndarray, state) -> FilterResult:
    """Run the predict/update recursion over a sequence of observations.

    ``observations`` has one row per time step.  ``state`` is the time-0
    filtered state, one ``(mean, cov)`` per batch of ``model.blocks``
    (:func:`default_init` builds it from the first observation), so updates
    start at step 1.
    """
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    state = _checked(model, state)
    rows = [_rows(model, b) for b in model.blocks]
    steps = obs.shape[0]
    means = np.empty((steps, 2 * model.k))
    terms = []
    white_ss = 0.0
    innovations = np.zeros_like(obs)

    for r, (m, _) in zip(rows, state):
        means[0, r] = m
    for t in range(1, steps):
        updates = [_update(b, *_predict(b, m, c), obs[t, b.index])
                   for b, (m, c) in zip(model.blocks, state)]
        state = [u[:2] for u in updates]
        for b, r, u in zip(model.blocks, rows, updates):
            means[t, r] = u[0]
            innovations[t, b.index] = u[2]
        terms.append(sum(u[3] for u in updates))
        white_ss += sum(u[4] for u in updates)

    terms = np.asarray(terms)
    return FilterResult(
        means_array=means,
        loglik=float(terms.sum()),
        loglik_terms=terms,
        innovations=innovations,
        whitened_ss=float(white_ss),
        final_state=state,
    )


def kf_forecast(model: StateSpaceModel, state, h: int) -> tuple[np.ndarray, list]:
    """Propagate ``state`` (one ``(mean, cov)`` per batch, as
    :attr:`FilterResult.final_state`) ``h`` steps ahead without updates;
    returns the ``(h, 2K)`` means and the state after the last step."""
    if h < 1:
        raise ValueError(f"forecast horizon must be >= 1, got {h}")
    state = _checked(model, state)
    rows = [_rows(model, b) for b in model.blocks]
    means = np.empty((h, 2 * model.k))
    for i in range(h):
        state = [_predict(b, m, c) for b, (m, c) in zip(model.blocks, state)]
        for r, (m, _) in zip(rows, state):
            means[i, r] = m
    return means, state


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
        model = model_factory(params)
        return kf_filter(model, obs, default_init(model, obs[0], params))

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
