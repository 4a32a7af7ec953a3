"""Error metrics, region-restricted MAE, and the multi-model comparison runner.

``run_comparison`` drives the full pipeline for a list of model variants on
one dataset: optional Hamming windowing, spectral truncation (of the mirror
extension, through its DCT-II band on the original grid, for a mirrored
model), noise-variance fitting, Kalman filtering over the training window,
forecasting beyond it, and region-restricted MAE scoring against the
unmodified dataset frames.  The Gibbs comparison is one such run: the
``gibbs-strip`` profile scores the ringing of direct truncation against the
mirrored model in a quiet strip.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import block_transition, build_transition
from .galerkin import DiffusivityField, VelocityField, assemble_transition
from .grid import Field
from .kalman import (
    FIT_BUDGET,
    FilterResult,
    NoiseParams,
    StateSpaceModel,
    default_init,
    direct_model,
    estimate_variances,
    kf_filter,
    kf_forecast,
)
from .preprocess import apply_window, hamming2d
from .spectral import MirrorBand, ModeOrdering, analyze, synthesize

__all__ = [
    "Region",
    "ModelSpec",
    "ComparisonReport",
    "FittedModel",
    "mae",
    "fit_and_filter",
    "check_comparison",
    "run_comparison",
]

# flipped-domain coefficients per original-domain one: the matched budget of
# the doubled grid (same frequency band, four times the area) sets the MirrorBand
K_STAR_FACTOR = 4


@dataclass(frozen=True)
class Region:
    """Axis-aligned box in domain units, bounds inclusive."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]

    def __post_init__(self):
        for lo, hi in (self.x_range, self.y_range):
            if not (0.0 <= lo <= hi < 1.0):
                raise ValueError(f"range [{lo}, {hi}] must satisfy 0 <= lo <= hi < 1")

    def mask(self, grid) -> np.ndarray:
        x, y = grid.mesh()
        return (
            (x >= self.x_range[0]) & (x <= self.x_range[1])
            & (y >= self.y_range[0]) & (y <= self.y_range[1])
        )


WHOLE_DOMAIN = Region((0.0, 0.999999), (0.0, 0.999999))


def mae(truth: Field, estimate: Field, region: Region | None = None) -> float:
    """Mean absolute error over the grid points inside ``region``."""
    if truth.grid != estimate.grid:
        raise ValueError("fields live on different grids")
    diff = np.abs(truth.values - estimate.values)
    if region is None:
        return float(diff.mean())
    m = region.mask(truth.grid).flatten(order="F")
    if not m.any():
        raise ValueError("region contains no grid points")
    return float(diff[m].mean())


@dataclass(frozen=True)
class ModelSpec:
    """One comparison entry: mirror extension on/off, windowing on/off, and
    the retained coefficient budget (flipped-domain budget when flipped)."""

    label: str
    k: int
    flip: bool = False
    window: bool = False

    def __post_init__(self):
        # a flipped model keeps k // K_STAR_FACTOR original-domain coefficients
        low = K_STAR_FACTOR if self.flip else 1
        if self.k < low:
            raise ValueError(f"model {self.label!r}: k must be at least {low}"
                             f"{' when flipped' if self.flip else ''}, got {self.k}")


@dataclass
class ComparisonReport:
    """MAE per (model, time, region) plus reproducibility metadata."""

    entries: dict
    models: list[str]
    times: list[int]
    regions: list[str]
    metadata: dict = field(default_factory=dict)

    def value(self, model: str, time: int, region: str) -> float:
        return self.entries[(model, time, region)]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("model,time,region,mae\n")
        for model in self.models:
            for time in self.times:
                for region in self.regions:
                    v = self.entries[(model, time, region)]
                    buf.write(f"{model},{time},{region},{v:.17g}\n")
        return buf.getvalue()

    def summary(self) -> str:
        lines = ["mean absolute error by model and time"]
        for region in self.regions:
            lines.append(f"[region {region}]")
            header = "model".ljust(14) + "".join(f"t={t:>4d}   " for t in self.times)
            lines.append(header)
            for model in self.models:
                row = model.ljust(14)
                for time in self.times:
                    row += f"{self.entries[(model, time, region)]:8.3f} "
                lines.append(row)
        return "\n".join(lines)


def _coerce_velocity(grid, velocity) -> VelocityField:
    if velocity is None:
        return VelocityField.zero(grid)
    if isinstance(velocity, VelocityField):
        return velocity
    vx, vy = velocity
    return VelocityField.constant(grid, vx, vy)


@dataclass
class ModelPipeline:
    """Everything needed to filter one model variant: the ``spec`` it was
    built for, the observation map from raw frames to ``k`` coefficients, the
    model factory over noise parameters, ``to_field`` from coefficients back
    to a field and, for a mirrored model, ``leakage`` from observation rows to
    ``leakage_fraction``."""

    spec: ModelSpec
    k: int
    observe: object
    factory: object
    to_field: object
    leakage: object = None

    def observations(self, frames) -> np.ndarray:
        return np.array([self.observe(f) for f in frames])

    def reconstruct(self, state: np.ndarray) -> Field:
        """The field of a filter state's leading ``k`` entries (alpha)."""
        return self.to_field(state[:self.k])


def _constant_coefficients(vel: VelocityField, dif: DiffusivityField):
    """``((vx, vy), d)`` when the velocity samples are all equal and so are
    the diffusivity samples, else None."""
    if np.all(vel.vx == vel.vx[0]) and np.all(vel.vy == vel.vy[0]) and np.all(dif.d == dif.d[0]):
        return (vel.vx[0], vel.vy[0]), dif.d[0]
    return None


def _median_share(part: np.ndarray, whole: np.ndarray) -> float:
    """Median over rows of ``|part| / |whole|``, skipping rows where ``whole``
    is zero (a dry frame); 0.0 when every row is.  It is the mean of the one
    or two middle values of a sort, as ``np.median`` would import ``numpy.ma``."""
    norm = np.linalg.norm(whole, axis=1)
    share = np.sort(np.linalg.norm(part, axis=1)[norm > 0] / norm[norm > 0])
    return float(share[(share.size - 1) // 2:share.size // 2 + 1].mean()) if share.size else 0.0


def band_coordinates(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``T = [H_S | Q2]`` and its inverse ``[R^-1 Q1'; Q2']`` from the complete
    QR ``H_S = [Q1 | Q2] [R; 0]``: ``Q`` is orthogonal, so the inverse takes
    one solve on the ``K x K`` block ``R`` and no inverse of ``T``."""
    k = h.shape[1]
    q, r = np.linalg.qr(h, mode="complete")
    t_inv = np.vstack([np.linalg.solve(r[:k], q[:, :k].T), q[:, k:].T])
    return np.column_stack([h, q[:, k:]]), t_inv


def build_pipeline(
    grid,
    spec: ModelSpec,
    *,
    velocity=None,
    diffusivity: DiffusivityField | None = None,
    delta: float = 1.0,
) -> ModelPipeline:
    """Assemble the physics, transforms, and model factory for one spec: the
    :func:`~mirrorspec.kalman.direct_model` of the original-domain transition
    over ``spec.k`` modes, or over ``spec.k // K_STAR_FACTOR`` when flipped.

    A flipped model observes the ``MirrorBand`` ``y`` of ``spec.k`` in the
    coordinates of ``T = [H_S | Q2]``: ``H_S`` is the band transfer of the K
    modes and ``Q2`` the orthonormal complement of its range, from the
    complete QR of ``H_S``.  ``T^-1 y = (z, Q2' y)`` holds the least-squares
    Fourier coefficients ``z`` of the band, which the original dynamics run
    on (the conjugation ``H_S P pinv(H_S)`` is ``P`` on ``z``), and the
    ``dim S - K`` leakage channels off ``range(H_S)``; a state maps back to
    the band by ``T``.

    A model of constant coefficients (equal velocity samples and equal
    diffusivity samples) gets its transition in closed form as
    cos/sin-pair and corner channels (:func:`~mirrorspec.dynamics.block_transition`);
    every other model assembles the Galerkin generator and exponentiates it."""
    vel = _coerce_velocity(grid, velocity)
    dif = diffusivity if diffusivity is not None else DiffusivityField.zero(grid)
    window = hamming2d(grid) if spec.window else None
    ordering = ModeOrdering(grid, spec.k // K_STAR_FACTOR if spec.flip else spec.k)
    constant = _constant_coefficients(vel, dif)
    if constant is not None:
        phi = block_transition(ordering, constant[0], delta, constant[1])
    else:
        phi = build_transition(assemble_transition(ordering, vel, dif), delta)

    def windowed(f):
        return f if window is None else apply_window(f, window)

    if not spec.flip:
        return ModelPipeline(spec, ordering.k, lambda f: analyze(windowed(f), ordering),
                             lambda params: direct_model(phi, params),
                             lambda coeffs: synthesize(ordering, coeffs))
    band = MirrorBand(grid, spec.k)
    t, t_inv = band_coordinates(band.transfer(ordering))
    return ModelPipeline(
        spec,
        band.k,
        lambda f: t_inv @ band.observe(windowed(f)),
        lambda params: direct_model(phi, params, leakage=band.k - ordering.k),
        lambda coeffs: band.reconstruct(t @ coeffs),
        lambda obs: _median_share(obs[:, ordering.k:], obs @ t.T),
    )


@dataclass
class FittedModel:
    """What :func:`fit_and_filter` gives: the state-space ``model`` built with
    the noise used, its filter ``result`` over the training observations, and
    ``record``, what a run records about the model."""

    model: StateSpaceModel
    result: FilterResult
    record: dict


def fit_and_filter(pipeline: ModelPipeline, train_obs: np.ndarray, noise: NoiseParams | None = None,
                   *, fit_budget: int = FIT_BUDGET) -> FittedModel:
    """Fit the noise variances when ``noise`` is None, then filter.

    The filter starts from :func:`~mirrorspec.kalman.default_init` at the
    first observation, and the result's ``final_state`` is the per-part state
    that :func:`~mirrorspec.kalman.kf_forecast` takes; a fit's last pass is
    that filter.

    The record, which every command that builds a model logs, holds as ``k``
    the coefficients the model observes per frame (the budget rounded down and
    capped by :class:`~mirrorspec.spectral.ModeOrdering`, or a mirrored model's
    band size), ``flip`` and ``window``, the noise used, the pass's
    ``loglik`` and ``min_pivot`` (the filter health of
    :class:`~mirrorspec.kalman.FilterResult`; None when no update ran) and
    the fit's :meth:`~mirrorspec.kalman.VarianceFit.diagnostics`.  A mirrored
    model adds ``leakage_fraction``: the median, over training frames of
    nonzero norm, of the share of the band observation's norm outside
    ``range(H_S)`` (0.0 when every frame is zero).
    """
    fit = None
    if noise is None:
        fit = estimate_variances(pipeline.factory, train_obs, max_evaluations=fit_budget)
        noise = fit.params
    model = pipeline.factory(noise)
    result = fit.result if fit else kf_filter(model, train_obs,
                                              default_init(model, train_obs[0], noise))
    record = {
        "k": pipeline.k, "flip": pipeline.spec.flip, "window": pipeline.spec.window,
        **asdict(noise),
        "loglik": result.loglik,
        "min_pivot": result.min_pivot if result.loglik_terms.size else None,
        **(fit.diagnostics() if fit else {}),
    }
    if pipeline.leakage is not None:
        record["leakage_fraction"] = pipeline.leakage(train_obs)
    return FittedModel(model, result, record)


def _repeated(items: list) -> str:
    """The items that occur more than once, sorted and comma-joined ("" if none)."""
    return ", ".join(map(str, sorted({x for x in items if items.count(x) > 1})))


def check_comparison(model_specs, n_frames: int, train_steps: int, eval_times,
                     fit: bool, regions: dict[str, Region], grid) -> None:
    """Raise ValueError naming the bad argument unless there is a model, the
    model labels and the evaluation times are distinct, every region holds a
    point of ``grid`` and a dataset of ``n_frames`` frames can score this
    comparison (``fit``: noise fitted)."""
    if not model_specs:
        raise ValueError("models must list at least one model, got none")
    if repeated := _repeated([spec.label for spec in model_specs]):
        raise ValueError(f"model labels must be unique, repeated: {repeated}")
    low = 3 if fit else 2
    if not low <= train_steps <= n_frames:
        raise ValueError(f"train_steps must be in [{low}, {n_frames}], got {train_steps}")
    if not eval_times or not all(type(t) is int and 0 <= t < n_frames for t in eval_times):
        raise ValueError(f"eval_times must be a non-empty list of frame indices in "
                         f"[0, {n_frames}), got {eval_times}")
    if repeated := _repeated(eval_times):
        raise ValueError(f"eval_times must be distinct, repeated: {repeated}")
    for name, region in regions.items():
        if not region.mask(grid).any():
            raise ValueError(f"region {name!r} holds no point of the "
                             f"{grid.n1} x {grid.n2} grid")


def run_comparison(
    dataset: list[Field],
    model_specs: list[ModelSpec],
    train_steps: int,
    eval_times: list[int],
    regions: dict[str, Region],
    *,
    velocity=None,
    diffusivity: DiffusivityField | None = None,
    delta: float = 1.0,
    noise: NoiseParams | None = None,
    fit_budget: int = FIT_BUDGET,
) -> ComparisonReport:
    """Score every model spec on the dataset.

    ``noise=None`` fits the noise variances of each model on its training
    observations; given noise is used as-is for every model.  ``eval_times``
    beyond ``train_steps - 1`` are forecast; the rest come from the filtered
    trajectory.  See :func:`fit_and_filter` for the fit and the filter, and
    for the record of each model that ``metadata["models"]`` holds by label.
    """
    grid = dataset[0].grid
    check_comparison(model_specs, len(dataset), train_steps, eval_times, noise is None,
                     regions, grid)

    entries = {}
    metadata = {"models": {}, "train_steps": train_steps, "delta": delta}
    for spec in model_specs:
        pipeline = build_pipeline(grid, spec, velocity=velocity, diffusivity=diffusivity,
                                  delta=delta)
        fitted = fit_and_filter(pipeline, pipeline.observations(dataset[:train_steps]), noise,
                                fit_budget=fit_budget)
        metadata["models"][spec.label] = fitted.record

        horizon = max(eval_times) - (train_steps - 1)
        if horizon >= 1:
            fmeans, _ = kf_forecast(fitted.model, fitted.result.final_state, horizon)

        for time in eval_times:
            state = (fitted.result.means_array[time] if time < train_steps
                     else fmeans[time - train_steps])
            recon = pipeline.reconstruct(state)
            for region_name, region in regions.items():
                entries[(spec.label, time, region_name)] = mae(dataset[time], recon, region)

    return ComparisonReport(
        entries=entries,
        models=[s.label for s in model_specs],
        times=sorted(eval_times),
        regions=list(regions.keys()),
        metadata=metadata,
    )

