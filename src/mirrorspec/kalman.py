"""Linear-Gaussian filtering, forecasting, and noise-variance estimation.

The state stacks the field coefficients and the forcing coefficients,
``theta = (alpha, beta)``, and evolves through the augmented transition of
:mod:`mirrorspec.dynamics`.  Observations are coefficient vectors (fields are
analyzed before entering the filter), so the observation matrix is the
identity on the ``alpha`` block.

Two noise layouts are provided: the direct model uses isotropic covariances
``sigma2 * I`` on its own coefficient space, while the flipped model maps
original-domain coefficient noise through the band transfer ``H_S`` of
:class:`~mirrorspec.spectral.MirrorBand`, ``sigma2 * (H_S H_S^T + ridge I)``,
on both sides; its ``dim S`` coefficients (the band's) are filtered exactly as
a K-coefficient block plus ``dim S - K`` leakage channels sharing a 2x2 covariance.

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
import scipy.linalg
import scipy.optimize

from .dynamics import DiscreteTransition

__all__ = [
    "NoiseParams",
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


@dataclass(frozen=True)
class StateSpaceModel:
    """Transition and expanded noise covariances; the observation map is the
    identity on the alpha block, ``(I_K, 0)``.

    ``transition``, ``v`` and ``w_*`` act on the first ``transition.k``
    coefficients; ``leakage`` is the K=1 model of each of the ``channels`` after them.
    """

    transition: DiscreteTransition
    noise: NoiseParams
    v: np.ndarray
    w_alpha: np.ndarray
    w_beta: np.ndarray
    leakage: StateSpaceModel | None = None
    channels: int = 0

    def __post_init__(self):
        k = self.transition.k
        for name in ("v", "w_alpha", "w_beta"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (k, k):
                raise ValueError(f"{name} must be {k} x {k}, got {m.shape}")
            object.__setattr__(self, name, m)

    @property
    def k(self) -> int:
        """Coefficients in each half of the state, leakage channels included."""
        return self.transition.k + self.channels


def direct_model(transition: DiscreteTransition, noise: NoiseParams,
                 tie_obs: bool = True) -> StateSpaceModel:
    """Model observing its own coefficients with isotropic noise.

    ``tie_obs`` makes the observation covariance share ``sigma2_alpha`` (the
    printed model structure); with it off, only ``sigma2_obs`` enters the
    observation side, which is the identifiable layout when observations are
    exact coefficient snapshots.
    """
    k = transition.k
    eye = np.eye(k)
    v_scale = noise.sigma2_obs + (noise.sigma2_alpha if tie_obs else 0.0)
    return StateSpaceModel(
        transition=transition,
        noise=noise,
        v=v_scale * eye,
        w_alpha=noise.sigma2_alpha * eye,
        w_beta=noise.sigma2_beta * eye,
    )


def flipped_model(transition: DiscreteTransition, noise: NoiseParams,
                  r: np.ndarray) -> StateSpaceModel:
    """Mirrored model of the original-domain ``transition`` ``Phi`` (K) on the
    band coordinates ``Q' y`` of a :class:`~mirrorspec.spectral.MirrorBand`,
    with ``r`` the complete ``dim S x K`` factor of ``H_S = Q r``.

    In that basis ``exp(delta H_S P pinv(H_S))`` is exactly
    ``blockdiag(R Phi R^-1, I)``, ``R = r[:K]``, and
    ``H_S H_S^T + ridge I`` is ``blockdiag(R R^T + ridge I, ridge I)``, so the
    ``dim S - K`` leakage channels each follow the K=1 random walk of
    :func:`direct_model`, its noise scaled by ``SUBSPACE_RIDGE``: the floor
    that keeps the leakage of mirrored observations off ``range(H_S)`` from
    collapsing the filter covariance.  The observation covariance shares
    ``sigma2_alpha`` as in :func:`direct_model`.
    """
    k, channels = transition.k, r.shape[0] - transition.k
    r = r[:k]
    # R Phi R^-1 as the transpose of the solution X' of R' X' = (R Phi)'
    phi = scipy.linalg.solve_triangular(r, (r @ transition.phi).T, trans="T").T
    hht = r @ r.T + SUBSPACE_RIDGE * np.eye(k)
    channel = NoiseParams(noise.sigma2_alpha * SUBSPACE_RIDGE,
                          noise.sigma2_beta * SUBSPACE_RIDGE, noise.sigma2_obs)
    return StateSpaceModel(
        transition=DiscreteTransition(phi),
        noise=noise,
        v=noise.sigma2_obs * np.eye(k) + noise.sigma2_alpha * hht,
        w_alpha=noise.sigma2_alpha * hht,
        w_beta=noise.sigma2_beta * hht,
        leakage=direct_model(DiscreteTransition(np.eye(1)), channel),
        channels=channels,
    )


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


def _predict(model: StateSpaceModel, mean, cov):
    k = model.transition.k
    phi = model.transition.phi
    p11, p12, p22 = cov[:k, :k], cov[:k, k:], cov[k:, k:]
    x = phi @ p11
    y = phi @ p12
    top_left = x @ phi.T + y + y.T + p22 + model.w_alpha
    top_right = y + p22
    out = np.empty_like(cov)
    out[:k, :k] = top_left
    out[:k, k:] = top_right
    out[k:, :k] = top_right.T
    out[k:, k:] = p22 + model.w_beta
    out = 0.5 * (out + out.T)
    return model.transition.step(mean), out


def _update(model: StateSpaceModel, mean, cov, obs):
    """One update; ``mean`` may carry a trailing axis of channels sharing ``cov``."""
    k = model.transition.k
    s = cov[:k, :k] + model.v
    try:
        chol = scipy.linalg.cho_factor(s, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise FilterError(
            f"innovation covariance is not positive definite ({exc}); "
            "the model noise scales are likely degenerate"
        ) from exc
    innovation = obs - mean[:k]
    gain = scipy.linalg.cho_solve(chol, cov[:, :k].T, check_finite=False).T
    new_mean = mean + gain @ innovation
    # Joseph form: (I - G H) P (I - G H)^T + G V G^T with H = (I_K, 0)
    ap = cov - gain @ cov[:k, :]
    new_cov = ap - ap[:, :k] @ gain.T + gain @ model.v @ gain.T
    new_cov = 0.5 * (new_cov + new_cov.T)
    white = scipy.linalg.solve_triangular(
        chol[0], innovation, lower=True, check_finite=False
    ).ravel()
    logdet = 2.0 * np.sum(np.log(np.diag(chol[0])))
    white_ss = white @ white
    ll = -0.5 * (white.size * np.log(2 * np.pi) + white.size // k * logdet + white_ss)
    return new_mean, new_cov, innovation.ravel(), ll, white_ss


def _blocks(model: StateSpaceModel, mean, cov):
    """The ``(model, mean, cov)`` blocks the filter runs on a full state: the
    first ``transition.k`` coefficients, then any leakage channels as one
    ``(2, channels)`` mean with one 2x2 covariance.  Raises ValueError unless
    ``cov`` is exactly what these blocks join back to."""
    kr, halves, quarters = model.transition.k, mean.reshape(2, -1), cov.reshape(2, model.k, 2, -1)
    blocks = [(model, halves[:, :kr].ravel(), quarters[:, :kr, :, :kr].reshape(2 * kr, -1))]
    if model.leakage is not None:
        blocks.append((model.leakage, halves[:, kr:], quarters[:, kr, :, kr]))
        if not np.array_equal(_joined_cov(model, blocks), cov):
            raise ValueError("a flipped model's covariance must not couple range(H_S) with the "
                             "leakage channels and must be the same on every channel")
    return blocks


def _joined_cov(model: StateSpaceModel, blocks) -> np.ndarray:
    """A new full covariance from the blocks of :func:`_blocks`."""
    k, kr = model.k, model.transition.k
    cov = np.zeros((2, k, 2, k))
    cov[:, :kr, :, :kr] = blocks[0][2].reshape(2, kr, 2, kr)
    for _, _, channel_cov in blocks[1:]:
        cov[:, kr:, :, kr:] = np.einsum("ij,ab->iajb", channel_cov, np.eye(k - kr))
    return cov.reshape(2 * k, 2 * k)


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
    ``update_first=True`` to assimilate row 0 as well.  A flipped model's
    ``init_cov`` must split exactly into its blocks, as :func:`default_init`'s does.
    """
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    mean = np.asarray(init_mean, dtype=float)
    cov = np.asarray(init_cov, dtype=float)
    if mean.shape != (2 * model.k,):
        raise ValueError(f"init_mean must have length {2 * model.k}")
    if cov.shape != (2 * model.k, 2 * model.k):
        raise ValueError("init_cov has wrong shape")

    blocks = _blocks(model, mean, cov)
    steps = obs.shape[0]
    means = np.empty((steps, 2 * model.k))
    terms = []
    white_ss = 0.0
    innovations = np.zeros_like(obs)

    for t in range(steps):
        if t > 0:
            blocks = [(b, *_predict(b, m, c)) for b, m, c in blocks]
        if t > 0 or update_first:
            rows = np.split(obs[t], [model.transition.k])
            updates = [_update(b, m, c, row) for (b, m, c), row in zip(blocks, rows)]
            blocks = [(b, *u[:2]) for (b, _, _), u in zip(blocks, updates)]
            innovations[t] = np.concatenate([u[2] for u in updates])
            terms.append(sum(u[3] for u in updates))
            white_ss += sum(u[4] for u in updates)
        means[t] = np.concatenate([m.reshape(2, -1) for _, m, _ in blocks], axis=1).ravel()

    terms = np.asarray(terms)
    return FilterResult(
        means_array=means,
        loglik=float(terms.sum()),
        loglik_terms=terms,
        innovations=innovations,
        whitened_ss=float(white_ss),
        final_cov=_joined_cov(model, blocks),
    )


def kf_forecast(
    model: StateSpaceModel,
    last_state: np.ndarray,
    last_cov: np.ndarray,
    h: int,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Propagate ``h`` steps ahead without updates."""
    if h < 1:
        raise ValueError(f"forecast horizon must be >= 1, got {h}")
    blocks = _blocks(model, np.asarray(last_state, dtype=float), np.asarray(last_cov, dtype=float))
    means = np.empty((h, 2 * model.k))
    covs = []
    for i in range(h):
        blocks = [(b, *_predict(b, m, c)) for b, m, c in blocks]
        means[i] = np.concatenate([m.reshape(2, -1) for _, m, _ in blocks], axis=1).ravel()
        covs.append(_joined_cov(model, blocks))
    return means, covs


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
    init_factory=None,
    *,
    max_evaluations: int = 200,
) -> VarianceFit:
    """Maximize the innovations log-likelihood over the noise variances.

    ``model_factory(params)`` must return a :class:`StateSpaceModel`;
    ``init_factory(params)`` returns ``(init_mean, init_cov)`` and defaults to
    :func:`default_init` applied to the first observation.  The fit holds
    ``sigma2_obs = 0``, and every covariance the two factories return must
    scale with ``sigma2_alpha`` at a fixed ``r = sigma2_beta / sigma2_alpha``
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

    if init_factory is None:
        def init_factory(params):
            return default_init(obs[0], params)

    def run(params):
        model = model_factory(params)
        mean0, cov0 = init_factory(params)
        return kf_filter(model, obs, mean0, cov0)

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
