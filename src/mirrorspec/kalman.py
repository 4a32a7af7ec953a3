"""Linear-Gaussian filtering, forecasting, and noise-variance estimation.

The state stacks the field coefficients and the forcing coefficients,
``theta = (alpha, beta)``, and evolves through the augmented transition of
:mod:`mirrorspec.dynamics`.  Observations are coefficient vectors (fields are
analyzed before entering the filter), so the observation matrix is the
identity on the ``alpha`` block.

Two noise layouts are provided: the direct model uses isotropic covariances
``sigma2 * I`` on its own coefficient space, while the flipped model maps
original-domain coefficient noise through the flip transfer,
``sigma2 * H H^T``, on both the observation and process sides.

Covariance updates use the Joseph form with per-step symmetrization; a
failed innovation-covariance factorization aborts with a diagnostic rather
than silently producing garbage.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .dynamics import AugmentedState, DiscreteTransition
from .spectral import FlipTransfer, ModeOrdering, SpectralState

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
    identity on the alpha block, ``(I_K, 0)``."""

    ordering: ModeOrdering
    transition: DiscreteTransition
    noise: NoiseParams
    v: np.ndarray
    w_alpha: np.ndarray
    w_beta: np.ndarray

    def __post_init__(self):
        k = self.transition.k
        for name in ("v", "w_alpha", "w_beta"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (k, k):
                raise ValueError(f"{name} must be {k} x {k}, got {m.shape}")
            object.__setattr__(self, name, m)

    @property
    def k(self) -> int:
        return self.transition.k


def direct_model(ordering: ModeOrdering, transition: DiscreteTransition,
                 noise: NoiseParams, tie_obs: bool = True) -> StateSpaceModel:
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
        ordering=ordering,
        transition=transition,
        noise=noise,
        v=v_scale * eye,
        w_alpha=noise.sigma2_alpha * eye,
        w_beta=noise.sigma2_beta * eye,
    )


def flipped_model(transition: DiscreteTransition, noise: NoiseParams,
                  transfer: FlipTransfer, tie_obs: bool = True,
                  subspace_ridge: float = 1e-4) -> StateSpaceModel:
    """Flipped-domain model with noise mapped through the flip transfer.

    ``H H^T`` is rank-deficient (rank = original-domain budget), which makes
    the exact printed covariances degenerate: flipped observations carry
    leakage off ``range(H)`` that the model would otherwise assign zero
    variance, collapsing the filter covariance.  ``subspace_ridge`` adds the
    small isotropic floor that represents that truncation leakage; set it to
    0 to recover the strict rank-deficient form.
    """
    h = transfer.matrix
    k = transition.k
    hht = h @ h.T + subspace_ridge * np.eye(k)
    v = noise.sigma2_obs * np.eye(k)
    if tie_obs:
        v = v + noise.sigma2_alpha * hht
    return StateSpaceModel(
        ordering=transfer.flipped_ordering,
        transition=transition,
        noise=noise,
        v=v,
        w_alpha=noise.sigma2_alpha * hht,
        w_beta=noise.sigma2_beta * hht,
    )


def default_init(first_obs: np.ndarray, noise: NoiseParams,
                 cov_scale: float = 10.0) -> tuple[np.ndarray, np.ndarray]:
    """Initial mean (first observation, zero forcing) and diagonal covariance."""
    k = first_obs.shape[0]
    mean = np.concatenate([first_obs, np.zeros(k)])
    cov = cov_scale * max(noise.sigma2_alpha, noise.sigma2_beta) * np.eye(2 * k)
    return mean, cov


@dataclass
class FilterResult:
    """Filtered means, covariances, and the innovations log-likelihood."""

    ordering: ModeOrdering
    means_array: np.ndarray
    covariances: list[np.ndarray] | None
    loglik: float
    loglik_terms: np.ndarray
    innovations: np.ndarray
    final_cov: np.ndarray = field(repr=False, default=None)

    @property
    def means(self) -> list[AugmentedState]:
        k = self.ordering.k
        return [
            AugmentedState(SpectralState(self.ordering, m[:k]), m[k:])
            for m in self.means_array
        ]


def _predict(model: StateSpaceModel, mean, cov):
    k = model.k
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
    k = model.k
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
    )
    logdet = 2.0 * np.sum(np.log(np.diag(chol[0])))
    ll = -0.5 * (len(obs) * np.log(2 * np.pi) + logdet + white @ white)
    return new_mean, new_cov, innovation, ll


def kf_filter(
    model: StateSpaceModel,
    observations: np.ndarray,
    init_mean: np.ndarray,
    init_cov: np.ndarray,
    *,
    update_first: bool = False,
    store_covariances: bool = True,
) -> FilterResult:
    """Run the predict/update recursion over a sequence of observations.

    ``observations`` has one row per time step.  By default the initial mean
    is taken as the time-0 filtered state (the usual choice when it was built
    from the first observation) and updates start at step 1; pass
    ``update_first=True`` to assimilate row 0 as well.
    """
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    mean = np.asarray(init_mean, dtype=float).copy()
    cov = np.asarray(init_cov, dtype=float).copy()
    if mean.shape != (2 * model.k,):
        raise ValueError(f"init_mean must have length {2 * model.k}")
    if cov.shape != (2 * model.k, 2 * model.k):
        raise ValueError("init_cov has wrong shape")

    steps = obs.shape[0]
    means = np.empty((steps, 2 * model.k))
    covs: list[np.ndarray] | None = [] if store_covariances else None
    terms = []
    innovations = np.zeros_like(obs)

    if update_first:
        mean, cov, innovations[0], ll = _update(model, mean, cov, obs[0])
        terms.append(ll)
    means[0] = mean
    if store_covariances:
        covs.append(cov.copy())

    for t in range(1, steps):
        mean, cov = _predict(model, mean, cov)
        mean, cov, innovations[t], ll = _update(model, mean, cov, obs[t])
        terms.append(ll)
        means[t] = mean
        if store_covariances:
            covs.append(cov.copy())

    terms = np.asarray(terms)
    return FilterResult(
        ordering=model.ordering,
        means_array=means,
        covariances=covs,
        loglik=float(terms.sum()),
        loglik_terms=terms,
        innovations=innovations,
        final_cov=cov,
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
    mean = np.asarray(last_state, dtype=float).copy()
    cov = np.asarray(last_cov, dtype=float).copy()
    means = np.empty((h, mean.shape[0]))
    covs = []
    for i in range(h):
        mean, cov = _predict(model, mean, cov)
        means[i] = mean
        covs.append(cov.copy())
    return means, covs


@dataclass
class VarianceFit:
    """Outcome of the innovations-likelihood maximization."""

    params: NoiseParams
    loglik: float
    converged: bool
    n_evaluations: int
    grid_logliks: dict


def estimate_variances(
    model_factory,
    observations: np.ndarray,
    init_factory=None,
    *,
    fit_obs: bool = False,
    grid_alpha=(1e-4, 1e-3, 1e-2),
    grid_beta=(1e-4, 1e-3, 1e-2),
    grid_obs=(1e-8,),
    max_evaluations: int = 200,
) -> VarianceFit:
    """Maximize the innovations log-likelihood over the noise variances.

    ``model_factory(params)`` must return a :class:`StateSpaceModel`;
    ``init_factory(params)`` returns ``(init_mean, init_cov)`` and defaults to
    :func:`default_init` applied to the first observation.  A coarse
    log-scale grid seeds a Nelder-Mead search in log-variance space, so the
    returned likelihood is never below the best grid point.  Non-convergence
    within the budget returns the best point seen, with a warning.
    """
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    if obs.shape[0] < 3:
        raise ValueError("variance estimation needs at least 3 time steps")

    if init_factory is None:
        def init_factory(params):
            return default_init(obs[0], params)

    def params_from_log(x):
        vals = np.maximum(np.exp(x), VARIANCE_FLOOR)
        s_obs = vals[2] if fit_obs else 0.0
        return NoiseParams(float(vals[0]), float(vals[1]), float(s_obs))

    n_eval = 0

    def negloglik(x):
        nonlocal n_eval
        n_eval += 1
        params = params_from_log(x)
        try:
            model = model_factory(params)
            mean0, cov0 = init_factory(params)
            result = kf_filter(model, obs, mean0, cov0, store_covariances=False)
        except (FilterError, np.linalg.LinAlgError):
            return 1e30
        if not np.isfinite(result.loglik):
            return 1e30
        return -result.loglik

    grid_logliks = {}
    best_x, best_f = None, np.inf
    obs_starts = grid_obs if fit_obs else (0.0,)
    for sa in grid_alpha:
        for sb in grid_beta:
            for so in obs_starts:
                x = np.log([sa, sb, max(so, VARIANCE_FLOOR)])
                f = negloglik(x)
                grid_logliks[(sa, sb, so)] = -f
                if f < best_f:
                    best_x, best_f = x, f

    budget = max(max_evaluations - n_eval, 10)
    dim = 3 if fit_obs else 2
    opt = scipy.optimize.minimize(
        lambda z: negloglik(np.concatenate([z, best_x[2:]]) if dim == 2 else z),
        best_x[:dim],
        method="Nelder-Mead",
        options={"maxfev": budget, "xatol": 1e-3, "fatol": 1e-6},
    )
    if opt.fun <= best_f:
        final_x = np.concatenate([opt.x, best_x[2:]]) if dim == 2 else opt.x
        best_f = opt.fun
    else:
        final_x = best_x
    if not opt.success:
        warnings.warn(
            "variance estimation stopped before convergence; returning best point seen",
            RuntimeWarning,
        )
    return VarianceFit(
        params=params_from_log(final_x),
        loglik=-best_f,
        converged=bool(opt.success),
        n_evaluations=n_eval,
        grid_logliks=grid_logliks,
    )
