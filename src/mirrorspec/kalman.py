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
``p12 v / S``, ``p22 - |p12|^2 / S``).  A part reports a breakdown through
its smallest innovation pivot, NaN or 0 where a block's Cholesky factorization
of ``S`` fails or a channel's ``S`` is not positive, and :func:`kf_filter` alone
turns a breakdown into a :class:`FilterError`: when a pivot is not positive,
or when the pass's log-likelihood is not finite, as observations too large
for the model make it.  So no pass silently produces garbage, and
:attr:`FilterResult.min_pivot` records how close a pass came to a breakdown.

The noise fit profiles the scale out of the likelihood (the concentrated
likelihood of structural time-series models, Durbin & Koopman 2012, 2.10 and
7.3): with ``sigma2_obs = 0`` every covariance scales with ``sigma2_alpha`` at
a fixed ``r = sigma2_beta / sigma2_alpha``, leaving a 1-D search over ``r``:
a grid of ``log r`` over the whole search interval, then grids that refine
around its best point.  A grid of channel parts is one pass along a leading
axis of their noise and state, and the first grid's profile is part of the
fit's record, so a run shows whether its fit sits on a peak, a kink or a
bound.  A first grid without a finite point fails the fit with a
:class:`FilterError`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

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
GRID_POINTS = 33  # points of each grid over log r; the first holds both bounds and r = 1
FIT_BUDGET = 40  # default cap on a variance fit's filter passes, a grid being one
MIN_FIT_BUDGET = 3  # the first grid, one refining grid (r to about 7%) and the last pass
LOG_2PI = math.log(2 * math.pi)


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
        and the last state.  Where the Cholesky factorization of an ``S``
        fails the pass stops, with a NaN pivot and NaN terms from that step."""
        steps, m = len(obs), len(self.phi)
        y = obs[:, :m]
        means = np.empty((steps, 2 * m))
        means[0] = mean
        innovations = np.empty((steps - 1, m))
        terms = np.full(steps - 1, np.nan)
        white_ss, pivot = 0.0, math.inf
        # a breakdown is reported by the pivot or the likelihood; until then it only yields inf
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(1, steps):
                try:
                    mean, cov, innovations[t - 1], terms[t - 1], ss, pv = _update(
                        self, *_predict(self, mean, cov), y[t])
                except np.linalg.LinAlgError:
                    pivot = math.nan
                    break
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
        return (mean[..., 0], mean[..., 1], cov[..., 0, 0].real, cov[..., 1, 1].real,
                cov[..., 0, 1])

    @staticmethod
    def _packed(z, w, p11, p22, p12):
        cov = np.empty(p11.shape + (2, 2), dtype=complex)
        cov[..., 0, 0], cov[..., 0, 1], cov[..., 1, 0], cov[..., 1, 1] = p11, p12, p12.conj(), p22
        return np.stack([z, w], axis=-1), cov

    def _filter(self, obs: np.ndarray, mean, cov):
        """:meth:`Block._filter` of the channels, one pass per index of any
        leading axes of the state and the noise variances, which the outputs
        carry after the step axis; the pivot is NaN where an ``S`` was not
        positive."""
        steps, n, p = len(obs), self.index.size, self.imag.size
        y = self._complex(obs)
        rho2, v = (self.lam * self.lam.conj()).real, self.v
        z, w, p11, p22, p12 = self._unpacked(mean, cov)
        zs, ws = np.empty((steps,) + p11.shape, complex), np.empty((steps,) + p11.shape, complex)
        zs[0], ws[0] = z, w
        es, ss = np.empty((steps - 1,) + p11.shape, complex), np.empty((steps - 1,) + p11.shape)
        # a breakdown is reported by the pivot; until then it only yields NaN
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
            pivot = np.sqrt(ss.min(axis=(0, -1))) if ss.size else math.inf
            logs = np.log(ss)
            white = (es.real**2 + es.imag**2) / ss
            terms = -0.5 * ((n + p) * LOG_2PI + logs.sum(-1) + logs[..., :p].sum(-1)
                            + white.sum(-1))
        return (self._real(zs), self._real(ws), self._real(es), terms, white.sum(axis=(0, -1)),
                pivot, self._packed(z, w, p11, p22, p12))

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
    Cholesky diagonal of ``S = L L'``; raises LinAlgError when ``S`` is not
    positive definite.  With ``[U | w] = L^-1 [P[:k, :] | e]``
    the mean gains ``U' w``, the covariance loses ``G S G' = U'U`` for the
    optimal gain ``G = U' L^-1``, and ``e' S^-1 e = w'w``."""
    k = len(block.phi)
    chol = np.linalg.cholesky(cov[:k, :k] + block.v * np.eye(k))
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
    in turn.  Raises :class:`FilterError` when a part's innovation pivot is
    not positive or the log-likelihood of the pass is not finite.
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
        if not part_pivot > 0:
            raise FilterError(f"innovation covariance is not positive definite (pivot "
                              f"{part_pivot}); the model noise scales are likely degenerate, "
                              f"or the observations too large for them (largest "
                              f"|observation| {np.abs(obs).max():.3g})")
        rows = p.positions
        means[:, rows], means[:, k + rows], innovations[1:, rows] = alpha, beta, part_innovations
        terms += part_terms
        white_ss += part_ss
        pivot = min(pivot, part_pivot)
        final.append(last)
    loglik = float(terms.sum())
    if not math.isfinite(loglik):
        raise FilterError(f"the log-likelihood of the filter pass is not finite ({loglik}); "
                          "the observations are likely too large for the model noise")
    return FilterResult(
        means_array=means,
        loglik=loglik,
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
    counts the fit's filter passes, one per grid of ``log r`` and the last
    pass; ``profile`` holds the first grid's ``log_ratio`` values and their
    profiled ``loglik`` (None where the pass failed)."""

    params: NoiseParams
    result: FilterResult = field(repr=False)
    converged: bool
    n_evaluations: int
    profile: dict = field(repr=False)

    @property
    def loglik(self) -> float:
        return self.result.loglik

    def diagnostics(self) -> dict:
        """What a run records about its fit: ``ratio`` is the fitted
        ``sigma2_beta / sigma2_alpha``, ``ratio_at_bound`` says whether it
        ended on an end of the search interval, ``n_scalars`` is the ``N``
        that the profiled scale divides by and ``profile`` shows whether the
        fit sits on a peak, a kink or a bound."""
        ratio = self.params.sigma2_beta / self.params.sigma2_alpha
        lo, hi = LOG_RATIO_BOUNDS
        log_ratio = np.log(ratio)
        return {
            "converged": self.converged,
            "n_evaluations": self.n_evaluations,
            "ratio": ratio,
            "ratio_at_bound": bool(min(log_ratio - lo, hi - log_ratio) <= LOG_RATIO_XATOL),
            "n_scalars": self.result.innovations.shape[1] * len(self.result.loglik_terms),
            "profile": self.profile,
        }


def _grid_pass(model_factory, obs: np.ndarray, log_ratios: np.ndarray):
    """The log-likelihood and the whitened sum of squares of the
    :func:`kf_filter` pass from :func:`default_init` at ``NoiseParams(1, r)``
    for each ``log r`` of ``log_ratios``; the log-likelihood is NaN where a
    pivot of the pass is not positive.

    The factory's model and initial state at ``r = 1`` are scaled to each
    ``r``, ``w_beta`` by ``r`` and the covariance by ``max(1, r)``, as
    :func:`direct_model` and :func:`default_init` scale them.  A
    :class:`Channels` part runs the whole grid as one pass, with the grid as
    a leading axis of ``w_beta`` and of the state; a :class:`Block` runs the
    points one after another."""
    unit = NoiseParams(1.0, 1.0)
    model = model_factory(unit)
    ratios = np.exp(log_ratios)
    loglik, white_ss = np.zeros(ratios.size), np.zeros(ratios.size)
    for part, (mean, cov) in zip(model.parts, default_init(model, obs[0], unit)):
        if isinstance(part, Channels):
            grid = replace(part, w_beta=part.w_beta * ratios[:, None])
            terms, ss, pivot = grid._filter(
                obs, mean, np.multiply.outer(np.maximum(1.0, ratios), cov))[3:6]
            terms = terms.sum(0)
        else:
            terms, ss, pivot = map(np.array, zip(*(
                replace(part, w_beta=part.w_beta * r)._filter(obs, mean, max(1.0, r) * cov)[3:6]
                for r in ratios)))
            terms = terms.sum(-1)
        loglik += np.where(pivot > 0, terms, np.nan)
        white_ss += ss
    return loglik, white_ss


def _best(values: np.ndarray) -> int:
    """The index of the largest of a grid's values, the one nearest the middle
    among equal ones; 0 when none is finite."""
    top = values.max()
    if top == -np.inf:
        return 0
    ties = np.flatnonzero(values == top)
    return int(ties[np.argmin(np.abs(ties - (values.size - 1) // 2))])


def _grid_maximum(func, lo: float, hi: float, xatol: float, max_grids: int):
    """Maximize ``func``, which maps a grid to its values (``-inf`` where it
    fails), on ``[lo, hi]``: the first grid of ``GRID_POINTS`` spans it, each
    later one the neighbours of the best point so far, until they are within
    ``xatol`` of it.  Of equal best values the one nearest the grid's middle
    wins (on a refining grid the best point so far), so a flat profile ends
    on the middle of the interval.  A best point on an end of a grid ends the
    search, and so does a grid without a finite value.

    Returns ``(x, value, grids, converged, first)``: the best point of the
    last grid and its value, the calls of ``func``, False when ``max_grids``
    stopped the search, and the first grid with its values."""
    x = np.linspace(lo, hi, GRID_POINTS)
    values = func(x)
    first, grids = (x, values), 1
    best = _best(values)
    while 0 < best < GRID_POINTS - 1 and x[1] - x[0] > xatol:
        if grids == max_grids:
            return x[best], values[best], grids, False, first
        x = np.linspace(x[best - 1], x[best + 1], GRID_POINTS)
        values = func(x)
        grids += 1
        best = _best(values)
    return x[best], values[best], grids, True, first


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
    must scale with ``sigma2_alpha`` at a fixed ``r = sigma2_beta / sigma2_alpha``,
    while at ``sigma2_alpha = 1`` only ``w_beta`` changes with ``r``, in
    proportion (:func:`direct_model` and :func:`default_init` do both).  One
    filter pass at ``NoiseParams(1, r)`` then gives ``Q``, the squared
    whitened innovations over ``N`` scalars; ``sigma2_alpha = Q / N`` is the
    best scale at that ``r``, with profiled log-likelihood
    ``loglik + (Q - N log(Q/N) - N) / 2``.  Refining grids over ``log r``
    (:func:`_grid_maximum`, each grid one :func:`_grid_pass`) maximize it; a
    last pass at the fitted noise gives ``result``.  ``max_evaluations`` caps
    the passes, a grid being one and that last one included; a fit stopped
    by the cap returns the best point seen, with a warning.  Raises
    :class:`FilterError` when no point of the first grid has a finite
    profiled log-likelihood.
    """
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    if obs.shape[0] < 3:
        raise ValueError("variance estimation needs at least 3 time steps")
    if max_evaluations < MIN_FIT_BUDGET:
        raise ValueError(f"the variance fit needs at least {MIN_FIT_BUDGET} evaluations, "
                         f"got {max_evaluations}")
    n = obs.shape[1] * (obs.shape[0] - 1)
    scales = {}

    def profiled_loglik(log_ratios):
        loglik, q = _grid_pass(model_factory, obs, log_ratios)
        scale = np.maximum(q / n, VARIANCE_FLOOR)
        # a failed or overflowed pass makes its point NaN or infinite: it scores -inf
        with np.errstate(invalid="ignore"):
            profiled = loglik + 0.5 * (q - n * np.log(scale) - q / scale)
        scales.update(zip(log_ratios.tolist(), scale.tolist()))
        return np.where(np.isfinite(profiled), profiled, -np.inf)

    x, value, grids, converged, first = _grid_maximum(
        profiled_loglik, *LOG_RATIO_BOUNDS, LOG_RATIO_XATOL, max_evaluations - 1)
    if value == -np.inf:
        raise FilterError(f"the profiled log-likelihood is not finite at any of the "
                          f"{GRID_POINTS} points of the variance fit's first grid, r from "
                          f"1e-8 to 1e8; the observations are likely too large for the model")
    if not converged:
        warnings.warn(
            "variance estimation stopped at its evaluation budget; returning best point seen",
            RuntimeWarning,
        )
    scale = scales[float(x)]
    params = NoiseParams(scale, scale * float(np.exp(x)))
    model = model_factory(params)
    result = kf_filter(model, obs, default_init(model, obs[0], params))
    return VarianceFit(params=params, result=result, converged=converged,
                       n_evaluations=grids + 1,
                       profile={"log_ratio": first[0].tolist(),
                                "loglik": [v if v > -np.inf else None
                                           for v in first[1].tolist()]})
