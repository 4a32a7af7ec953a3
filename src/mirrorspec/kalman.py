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

A model (:class:`StateSpaceModel`) is nothing but its independent parts, each
with its own scalar noise variances: the observation noise ``v`` and the state
noises ``w_alpha`` and ``w_beta``, per coefficient.  :func:`direct_model`
builds a coefficient part and, for a mirrored model, a leakage part:

- a :class:`Block` holds a dense transition (an estimated velocity or a
  variable diffusivity) of all K coefficients, filtered through the Cholesky
  factor of its innovation covariance;
- :class:`Channels` hold a transition of constant velocity and constant
  diffusivity, where every Fourier mode is an eigenfunction
  (:func:`~mirrorspec.dynamics.block_transition`): a cos/sin pair
  ``(a_c, a_s)`` is one complex scalar ``a_c + i a_s`` that a step multiplies
  by ``lambda = rho e^{i omega}``, and a corner mode a real one.  Isotropic
  noise and an isotropic initial covariance keep the pair's 4x4 covariance of
  ``(alpha, beta)`` in the algebra of rotations, ``P11 = p11 I``,
  ``P22 = p22 I`` and ``P12 = c I + d J`` with ``J`` the quarter turn, which
  is the complex ``p12 = c + i d``.  So each channel's filter is exact on the
  numbers ``p11``, ``p22`` and ``p12``, its innovation covariance
  ``S = p11 + v`` is a scalar, and a pass is a few elementwise array
  operations per step with no ``np.linalg`` call (the spectral Kalman filter
  of Sigrist, Kunsch & Stahel 2015, JRSS-B 77(1));
- a mirrored model is either of these on the least-squares Fourier
  coefficients of its observations
  (:func:`~mirrorspec.evaluate.build_pipeline`), plus a leakage part of
  ``dim S - K`` real channels: random walks ``lambda = 1`` whose noise
  variances are the coefficients' ones scaled by ``SUBSPACE_RIDGE``.

A filter state is held the same way, from :func:`default_init` through
:func:`kf_filter` to :func:`kf_forecast`: one ``(mean, cov)`` per part of
``model.parts``.  For a block of ``m`` coefficients they are of shapes
``(2m,)`` and ``(2m, 2m)``; for ``n`` channels they are the complex means
``(n, 2)`` of ``(alpha, beta)`` and the Hermitian covariances ``(n, 2, 2)``,
``[[p11, p12], [conj(p12), p22]]``.  So no ``2K x 2K`` covariance of a whole
model is formed; only the filtered means are joined, into the ``(steps, 2K)``
rows of ``FilterResult.means_array``.

A block's covariance update is ``P - G S G'`` with the optimal gain ``G``,
equal to the Joseph form (a guard against a suboptimal gain) in exact
arithmetic, and a channel's is its scalar closed form (``p11 v / S``,
``p12 v / S``, ``p22 - |p12|^2 / S``).  An innovation covariance that is not
positive definite aborts the pass with a diagnostic rather than silently
producing garbage, and :attr:`FilterResult.min_pivot` records how close a
pass came to that.

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
    "Block",
    "Channels",
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
SUBSPACE_RIDGE = 1e-4  # noise scale of the leakage part over the coefficients' one
INIT_COV_SCALE = 10.0  # default_init covariance over the larger noise variance
# search interval and tolerance of the variance fit in log(sigma2_beta / sigma2_alpha)
LOG_RATIO_BOUNDS = (np.log(1e-8), np.log(1e8))
LOG_RATIO_XATOL = 1e-3
FIT_BUDGET = 40  # default cap on a variance fit's filter passes, its kept pass included
MIN_FIT_BUDGET = 3  # the search makes two passes before it checks its cap, the fit one more
LOG_2PI = math.log(2 * math.pi)


class FilterError(RuntimeError):
    """Numerical breakdown inside the filter recursion."""


def _not_positive_definite(detail) -> FilterError:
    return FilterError(f"innovation covariance is not positive definite ({detail}); "
                       "the model noise scales are likely degenerate")


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
class Block:
    """The dense block of a model's ``m = len(phi)`` coefficients, the first
    ``m`` entries of alpha (a mirrored model's leakage part follows them).

    ``phi`` is their ``m x m`` one-step transition; ``v``, ``w_alpha`` and
    ``w_beta`` are the noise variances of each coefficient, so the noise
    covariances are ``v I``, ``w_alpha I`` and ``w_beta I``.
    """

    phi: np.ndarray
    v: float
    w_alpha: float
    w_beta: float

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
            raise ValueError(f"phi must be square, got shape {phi.shape}")
        object.__setattr__(self, "phi", phi)

    @property
    def positions(self) -> np.ndarray:
        """The alpha positions of the coefficients, the first ``len(phi)``."""
        return np.arange(len(self.phi))

    def _state_shapes(self):
        m = len(self.phi)
        return (2 * m,), (2 * m, 2 * m), float

    def _init(self, first_obs: np.ndarray, scale: float):
        m = len(self.phi)
        return np.concatenate([first_obs[:m], np.zeros(m)]), scale * np.eye(2 * m)

    def _filter(self, obs: np.ndarray, mean, cov):
        """One pass over ``obs``: the ``(steps, k)`` alpha and beta means and
        ``(steps - 1, k)`` innovations in ``positions`` order, the per-update
        log-likelihood terms, the whitened sum, the smallest innovation pivot
        and the last state."""
        steps, m = len(obs), len(self.phi)
        y = obs[:, :m]
        means = np.empty((steps, 2 * m))
        means[0] = mean
        innovations = np.empty((steps - 1, m))
        terms = np.empty(steps - 1)
        white_ss, pivot = 0.0, math.inf
        for t in range(1, steps):
            mean, cov, innovations[t - 1], terms[t - 1], ss, pv = _update(
                self, *_predict(self, mean, cov), y[t])
            means[t] = mean
            white_ss += ss
            pivot = min(pivot, pv)
        return means[:, :m], means[:, m:], innovations, terms, white_ss, pivot, (mean, cov)

    def _forecast(self, mean, cov, h: int):
        m = len(self.phi)
        means = np.empty((h, 2 * m))
        for i in range(h):
            mean, cov = _predict(self, mean, cov)
            means[i] = mean
        return means[:, :m], means[:, m:], (mean, cov)


@dataclass(frozen=True)
class Channels:
    """``len(index)`` independent scalar channels of the alpha coefficients.

    The first ``len(imag)`` channels are complex, cos/sin pairs: channel ``c``
    holds ``a[index[c]] + i a[imag[c]]``.  The rest are real, corner modes
    or leakage channels, each holding ``a[index[c]]``.  One step multiplies
    channel ``c`` by ``lam[c]`` (real past the pairs); ``v``, ``w_alpha`` and
    ``w_beta`` are the noise variances of every channel, per real component
    of a pair.
    """

    index: np.ndarray
    imag: np.ndarray
    lam: np.ndarray
    v: float
    w_alpha: float
    w_beta: float

    def __post_init__(self):
        for name in ("index", "imag"):
            a = np.asarray(getattr(self, name))
            if a.ndim != 1 or not np.issubdtype(a.dtype, np.integer):
                raise ValueError(f"{name} must be a 1-D integer array, got shape {a.shape}")
            object.__setattr__(self, name, a)
        n, p = self.index.size, self.imag.size
        if p > n:
            raise ValueError(f"{p} imaginary parts for {n} channels")
        lam = np.asarray(self.lam, dtype=complex)
        if lam.shape != (n,) or lam[p:].imag.any():
            raise ValueError(f"lam must be {n} multipliers, real past the first {p}")
        object.__setattr__(self, "lam", lam)

    @property
    def positions(self) -> np.ndarray:
        """The alpha positions of the real parts, then of the imaginary ones."""
        return np.concatenate([self.index, self.imag])

    def _complex(self, x: np.ndarray) -> np.ndarray:
        """The channels' complex values in the coefficient rows ``x[..., :]``."""
        out = x[..., self.index].astype(complex)
        out.imag[..., :self.imag.size] = x[..., self.imag]
        return out

    def _real(self, z: np.ndarray) -> np.ndarray:
        """Complex channel values back to coefficients, in ``positions`` order."""
        return np.concatenate([z.real, z[..., :self.imag.size].imag], axis=-1)

    def _state_shapes(self):
        n = self.index.size
        return (n, 2), (n, 2, 2), complex

    def _init(self, first_obs: np.ndarray, scale: float):
        n = self.index.size
        mean = np.stack([self._complex(first_obs), np.zeros(n)], axis=1)
        return mean, np.tile(scale * np.eye(2, dtype=complex), (n, 1, 1))

    def _predict(self, rho2, z, w, p11, p22, p12):
        """One step of every channel; ``rho2 = |lam|^2``."""
        lp = self.lam * p12
        return (self.lam * z + w, w, rho2 * p11 + 2.0 * lp.real + p22 + self.w_alpha,
                p22 + self.w_beta, lp + p22)

    @staticmethod
    def _unpacked(mean, cov):
        return mean[:, 0], mean[:, 1], cov[:, 0, 0].real, cov[:, 1, 1].real, cov[:, 0, 1]

    @staticmethod
    def _packed(z, w, p11, p22, p12):
        cov = np.empty((len(z), 2, 2), dtype=complex)
        cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 0], cov[:, 1, 1] = p11, p12, p12.conj(), p22
        return np.stack([z, w], axis=1), cov

    def _filter(self, obs: np.ndarray, mean, cov):
        """:meth:`Block._filter` of the channels."""
        steps, n, p = len(obs), self.index.size, self.imag.size
        y = self._complex(obs)
        rho2, v = (self.lam * self.lam.conj()).real, self.v
        z, w, p11, p22, p12 = self._unpacked(mean, cov)
        zs, ws = np.empty((steps, n), complex), np.empty((steps, n), complex)
        zs[0], ws[0] = z, w
        es, ss = np.empty((steps - 1, n), complex), np.empty((steps - 1, n))
        # a breakdown is reported after the loop; until then it only yields NaN
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for t in range(1, steps):
                z, w, p11, p22, p12 = self._predict(rho2, z, w, p11, p22, p12)
                s = p11 + v
                e = y[t] - z
                inv = 1.0 / s
                z = z + p11 * inv * e
                w = w + p12.conj() * inv * e
                p22 = p22 - (p12.real**2 + p12.imag**2) * inv
                shrink = v * inv
                p11, p12 = p11 * shrink, p12 * shrink
                zs[t], ws[t], es[t - 1], ss[t - 1] = z, w, e, s
        pivot = ss.min() if ss.size else math.inf
        if not pivot > 0:
            raise _not_positive_definite(f"a channel has S = {pivot:g}")
        logs = np.log(ss)
        white = (es.real**2 + es.imag**2) / ss
        terms = -0.5 * ((n + p) * LOG_2PI + logs.sum(1) + logs[:, :p].sum(1) + white.sum(1))
        return (self._real(zs), self._real(ws), self._real(es), terms, float(white.sum()),
                math.sqrt(pivot), self._packed(z, w, p11, p22, p12))

    def _forecast(self, mean, cov, h: int):
        state = self._unpacked(mean, cov)
        rho2 = (self.lam * self.lam.conj()).real
        zs, ws = np.empty((h, self.index.size), complex), np.empty((h, self.index.size), complex)
        for i in range(h):
            state = self._predict(rho2, *state)
            zs[i], ws[i] = state[:2]
        return self._real(zs), self._real(ws), self._packed(*state)


@dataclass(frozen=True)
class StateSpaceModel:
    """The independent parts, :class:`Block` and :class:`Channels`, that
    together hold the ``k`` alpha coefficients and their forcing; the
    observation map is the identity on the alpha block, ``(I_K, 0)``.  A
    filter state is one ``(mean, cov)`` per part of ``parts``
    (:func:`default_init`).
    """

    parts: tuple

    @property
    def k(self) -> int:
        """Coefficients in each half of the state, leakage channels included."""
        return sum(p.positions.size for p in self.parts)


def direct_model(phi, noise: NoiseParams, leakage: int = 0) -> StateSpaceModel:
    """Model observing its own coefficients with isotropic noise.

    ``phi`` is the ``K x K`` transition (one dense block), or a closed-form
    one as the ``(index, imag, lam)`` of its channels
    (:func:`~mirrorspec.dynamics.block_transition`).  The observation noise
    variance is ``sigma2_obs + sigma2_alpha``.

    ``leakage`` adds a part of that many real channels after the K
    coefficients, the part of a mirrored observation off the span of the
    original modes: random walks ``lam = 1`` with the noise variances
    ``sigma2_obs + r sigma2_alpha``, ``r sigma2_alpha`` and ``r sigma2_beta``,
    ``r = SUBSPACE_RIDGE`` being the floor that keeps the filter covariance of
    these channels from collapsing.
    """
    noises = (noise.sigma2_obs + noise.sigma2_alpha, noise.sigma2_alpha, noise.sigma2_beta)
    if isinstance(phi, np.ndarray):
        k = len(phi)
        if phi.shape != (k, k):
            raise ValueError(f"phi must be {k} x {k}, got {phi.shape}")
        parts = [Block(phi, *noises)]
    else:
        index, imag, lam = phi
        k = index.size + imag.size
        parts = [Channels(index, imag, lam, *noises)] if index.size else []
    if leakage:
        r = SUBSPACE_RIDGE
        parts.append(Channels(np.arange(k, k + leakage), np.arange(0), np.ones(leakage),
                              noise.sigma2_obs + noise.sigma2_alpha * r,
                              noise.sigma2_alpha * r, noise.sigma2_beta * r))
    return StateSpaceModel(tuple(parts))


def default_init(model: StateSpaceModel, first_obs: np.ndarray,
                 noise: NoiseParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """The initial filter state: for each part of ``model.parts``, the mean
    of the first observation and zero forcing, and the covariance
    ``INIT_COV_SCALE * max(sigma2_alpha, sigma2_beta) * I``."""
    first_obs = np.asarray(first_obs, dtype=float)
    if first_obs.shape != (model.k,):
        raise ValueError(f"first_obs must have length {model.k}, got shape {first_obs.shape}")
    scale = INIT_COV_SCALE * max(noise.sigma2_alpha, noise.sigma2_beta)
    return [p._init(first_obs, scale) for p in model.parts]


@dataclass
class FilterResult:
    """Filtered means as ``(steps, 2K)`` rows ``(alpha, beta)``, the
    innovations log-likelihood, ``whitened_ss``, the sum of squared whitened
    innovations ``e' S^-1 e``, ``min_pivot``, the smallest innovation pivot of
    the pass (the smallest Cholesky diagonal of a block's ``S``, or
    ``sqrt(S)`` of a channel; ``inf`` without an update), and
    ``final_state``, the last step's state as one ``(mean, cov)`` per part of
    the model."""

    means_array: np.ndarray
    loglik: float
    loglik_terms: np.ndarray
    innovations: np.ndarray
    whitened_ss: float
    min_pivot: float
    final_state: list = field(repr=False)


def _predict(block: Block, mean, cov):
    """One step of the augmented transition of ``block.phi`` with the state
    noise variances ``w_alpha`` and ``w_beta``."""
    phi = block.phi
    k = len(phi)
    p11, p12, p22 = cov[:k, :k], cov[:k, k:], cov[k:, k:]
    x = phi @ p11
    y = phi @ p12
    top_right = y + p22
    out = np.empty_like(cov)
    out[:k, :k] = x @ phi.T + y + y.T + p22 + block.w_alpha * np.eye(k)
    out[:k, k:] = top_right
    out[k:, :k] = top_right.T
    out[k:, k:] = p22 + block.w_beta * np.eye(k)
    out = 0.5 * (out + out.T)
    new_mean = np.empty_like(mean)
    new_mean[:k] = phi @ mean[:k] + mean[k:]
    new_mean[k:] = mean[k:]
    return new_mean, out


def _update(block: Block, mean, cov, obs):
    """One update of a block: returns the new mean and covariance, the
    innovation, the log-likelihood term, ``e' S^-1 e`` and the smallest
    Cholesky diagonal of ``S = L L'``.  With ``[U | w] = L^-1 [P[:k, :] | e]``
    the mean gains ``U' w``, the covariance loses ``G S G' = U'U`` for the
    optimal gain ``G = U' L^-1``, and ``e' S^-1 e = w'w``."""
    k = len(block.phi)
    s = cov[:k, :k] + block.v * np.eye(k)
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise _not_positive_definite(exc) from exc
    innovation = obs - mean[:k]
    solved = np.linalg.solve(chol, np.concatenate([cov[:k, :], innovation[:, None]], axis=1))
    u, w = solved[:, :-1], solved[:, -1]
    # U.T @ U of one array runs as an exactly symmetric rank-k product (syrk)
    new_cov = cov - u.T @ u
    diag = np.diagonal(chol)
    white_ss = float(w @ w)
    ll = -0.5 * (innovation.size * LOG_2PI + 2.0 * np.log(diag).sum() + white_ss)
    return mean + u.T @ w, new_cov, innovation, ll, white_ss, float(diag.min())


def _checked(model: StateSpaceModel, state) -> list[tuple[np.ndarray, np.ndarray]]:
    """``state`` as arrays; raises ValueError naming the part unless it holds
    one ``(mean, cov)`` of its part's shapes per part of ``model.parts``."""
    state = list(state)
    if len(state) != len(model.parts):
        raise ValueError(f"the state must hold one (mean, cov) per part: "
                         f"{len(model.parts)}, got {len(state)}")
    out = []
    for i, (p, (mean, cov)) in enumerate(zip(model.parts, state)):
        mean_shape, cov_shape, dtype = p._state_shapes()
        mean, cov = np.asarray(mean, dtype=dtype), np.asarray(cov, dtype=dtype)
        if mean.shape != mean_shape or cov.shape != cov_shape:
            raise ValueError(f"part {i} of the state must have a mean of shape {mean_shape} "
                             f"and a covariance of shape {cov_shape}, "
                             f"got {mean.shape} and {cov.shape}")
        out.append((mean, cov))
    return out


def kf_filter(model: StateSpaceModel, observations: np.ndarray, state) -> FilterResult:
    """Run the predict/update recursion over a sequence of observations.

    ``observations`` has one row per time step.  ``state`` is the time-0
    filtered state, one ``(mean, cov)`` per part of ``model.parts``
    (:func:`default_init` builds it from the first observation), so updates
    start at step 1.  The parts are independent, so each runs its whole pass
    in turn.
    """
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    state = _checked(model, state)
    k = model.k
    means = np.empty((obs.shape[0], 2 * k))
    innovations = np.zeros_like(obs)
    terms = np.zeros(obs.shape[0] - 1)
    white_ss, pivot, final = 0.0, math.inf, []
    for p, (mean, cov) in zip(model.parts, state):
        alpha, beta, part_innovations, part_terms, part_ss, part_pivot, last = p._filter(
            obs, mean, cov)
        rows = p.positions
        means[:, rows], means[:, k + rows], innovations[1:, rows] = alpha, beta, part_innovations
        terms += part_terms
        white_ss += part_ss
        pivot = min(pivot, part_pivot)
        final.append(last)
    return FilterResult(
        means_array=means,
        loglik=float(terms.sum()),
        loglik_terms=terms,
        innovations=innovations,
        whitened_ss=float(white_ss),
        min_pivot=float(pivot),
        final_state=final,
    )


def kf_forecast(model: StateSpaceModel, state, h: int) -> tuple[np.ndarray, list]:
    """Propagate ``state`` (one ``(mean, cov)`` per part, as
    :attr:`FilterResult.final_state`) ``h`` steps ahead without updates;
    returns the ``(h, 2K)`` means and the state after the last step."""
    if h < 1:
        raise ValueError(f"forecast horizon must be >= 1, got {h}")
    state = _checked(model, state)
    k = model.k
    means = np.empty((h, 2 * k))
    final = []
    for p, (mean, cov) in zip(model.parts, state):
        alpha, beta, last = p._forecast(mean, cov, h)
        means[:, p.positions], means[:, k + p.positions] = alpha, beta
        final.append(last)
    return means, final


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
    max_evaluations: int = FIT_BUDGET,
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
    if max_evaluations < MIN_FIT_BUDGET:
        raise ValueError(f"the variance fit needs at least {MIN_FIT_BUDGET} evaluations, "
                         f"got {max_evaluations}")

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
