"""Command-line surface: reproducible pipelines over frame stacks.

Every command reads a :class:`~mirrorspec.config.RunConfig` (named profile or
JSON path), writes its outputs under ``--out`` with the config hash embedded
in filenames, and drops a machine-readable run log (parameters, library
versions, wall time).  Exit codes: 0 success, 2 configuration error,
3 numerical failure.  No command imports SciPy: the runtime needs NumPy and
click alone, and a run starts without paying SciPy's import time.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .config import ConfigError, RunConfig
from .evaluate import ModelSpec, build_pipeline, check_comparison, fit_and_filter, run_comparison
from .galerkin import DiffusivityField, VelocityField
from .grid import Field, flip_field
from .gridstack import GridStack, StackError, load_stack, render_heatmap, save_stack
from .kalman import FilterError, NoiseParams, kf_forecast
from .motion import MotionConfig, diffusivity_from_velocity, estimate_velocity
from .preprocess import reflectivity_to_rain
from .simulate import simulate_advection, synthetic_storm_stack

NUMERICAL_ERRORS = (FilterError, np.linalg.LinAlgError, FloatingPointError)


class _Run:
    """Collects outputs and writes the run log on success.

    ``tag``, when given, goes before the config hash in the run log's name, so
    that runs of one command and config on different inputs keep their own logs."""

    def __init__(self, command: str, config: RunConfig, out: str, tag: str = ""):
        self.command = command
        self.config = config
        self.tag = f"{tag}-" if tag else ""
        self.out = Path(out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.outputs: list[str] = []
        self.started = time.time()

    def path(self, stem: str, suffix: str = "") -> Path:
        p = self.out / f"{stem}-{self.config.hash}{suffix}"
        self.outputs.append(str(p))
        return p

    def finish(self, **extra):
        versions = {"mirrorspec": __version__, "python": platform.python_version(),
                    "numpy": np.__version__}
        log = {
            "command": self.command,
            "config_hash": self.config.hash,
            "config": self.config.data,
            "outputs": self.outputs,
            "wall_time_s": round(time.time() - self.started, 3),
            "versions": versions,
            **extra,
        }
        path = self.out / f"runlog-{self.command}-{self.tag}{self.config.hash}.json"
        path.write_text(json.dumps(log, indent=2, default=str, allow_nan=False) + "\n")


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _exits_on_config_error(fn):
    """Map configuration problems raised anywhere in a command to exit 2."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, StackError) as exc:
            _fail(2, str(exc))

    return wrapper


def _seeded(cfg: RunConfig, seed) -> RunConfig:
    """``cfg`` with its seed replaced by ``--seed`` when one is given: the run
    log then records the seed used, and the config hash in every output name
    covers it, so two seeds never write under the same name."""
    return cfg if seed is None else RunConfig({**cfg.data, "seed": seed})


def _with_steps(cfg: RunConfig, steps) -> RunConfig:
    """``cfg`` with the step count of its dataset (``storm.steps`` or
    ``simulation.steps``) replaced by ``--steps`` when one is given, so that,
    as with ``--seed``, the run log and every output name record it."""
    if steps is None:
        return cfg
    section = "storm" if cfg.data["dataset"] == "storm" else "simulation"
    return RunConfig({**cfg.data, section: {**cfg.data.get(section, {}), "steps": steps}})


def _generate_dataset(cfg: RunConfig) -> GridStack:
    """The config's dataset as a stack.  Frames that overflow are a fault of
    the section that set them, so they raise a ConfigError naming it."""
    storm = cfg.data["dataset"] == "storm"
    grid = cfg.grid()
    sim = None if storm else cfg.simulation()
    try:
        frames = (synthetic_storm_stack(grid, seed=cfg.data["seed"], **cfg.data.get("storm", {}))
                  if storm else simulate_advection(sim).fields)
    except ValueError as exc:
        raise ConfigError(f"config.{'storm' if storm else 'simulation'}: {exc}") from exc
    return GridStack.from_fields(frames, delta=1.0 if storm else sim.delta,
                                 units=cfg.data["units"], config_hash=cfg.hash)


def _estimated_physics(mcfg: MotionConfig, a: Field, b: Field):
    """Block-matching velocity from frame ``a`` to frame ``b`` and the shear
    diffusivity it implies at the block stride."""
    vel = estimate_velocity(a, b, mcfg)
    grid = a.grid
    return vel, diffusivity_from_velocity(vel, mcfg.stride / grid.n1, mcfg.stride / grid.n2)


def _physics(cfg: RunConfig, stack: GridStack) -> tuple[VelocityField, DiffusivityField | None]:
    """Velocity and diffusivity of every model built from ``cfg`` and
    ``stack``: the configured constant velocity without diffusivity, or the
    estimate from the first two frames with its shear diffusivity."""
    if cfg.data["velocity"]["mode"] == "constant":
        vx, vy = cfg.data["velocity"]["value"]
        return VelocityField.constant(stack.grid, vx, vy), None
    if stack.steps < 2:
        _fail(2, "velocity estimation needs at least 2 frames")
    return _estimated_physics(cfg.motion(), stack.frames[0], stack.frames[1])


def _model_flags(fn):
    """The stack, config, output and model flags of ``fit``, ``filter`` and ``predict``."""
    for flag in reversed((
        click.argument("stack_path", type=click.Path(exists=True)),
        click.option("--config", default="advection"),
        click.option("--out", required=True, type=click.Path()),
        click.option("--k", type=click.IntRange(min=1), default=None),
        click.option("--flip", "use_flip", type=click.BOOL, default=False, show_default=True),
        click.option("--window", type=click.BOOL, default=False, show_default=True),
        click.option("--steps", type=click.IntRange(min=1), default=None,
                     help="training steps (default: all)"),
    )):
        fn = flag(fn)
    return fn


def _model_run(command, stack_path, config, out, k, flip, window):
    """The config, stack, run and model spec of a command given :func:`_model_flags`."""
    cfg = RunConfig.load(config)
    stack = load_stack(stack_path)
    run = _Run(command, cfg, out)
    k = k if k is not None else cfg.data["truncation"]["k"]
    label = f"{'window-' if window else ''}{'flip' if flip else 'direct'}{k}"
    try:
        return cfg, stack, run, ModelSpec(label=label, k=k, flip=flip, window=window)
    except ValueError as exc:
        _fail(2, str(exc))


def _fitted_model(cfg: RunConfig, stack: GridStack, spec: ModelSpec, steps,
                  noise: NoiseParams | None):
    """Build ``spec`` from the config and stack, then fit (when ``noise`` is
    None) and filter it over the first ``steps`` frames (all when None).
    Returns the pipeline and :func:`fit_and_filter`'s
    :class:`~mirrorspec.evaluate.FittedModel`."""
    steps = stack.steps if steps is None else steps
    if steps > stack.steps:
        _fail(2, f"--steps {steps} exceeds the {stack.steps} frames of the stack")
    if noise is None and steps < 3:
        _fail(2, f"the variance fit needs at least 3 training frames, got {steps}")
    velocity, diffusivity = _physics(cfg, stack)
    pipeline = build_pipeline(stack.grid, spec, velocity=velocity, diffusivity=diffusivity,
                              delta=stack.delta)
    return pipeline, fit_and_filter(pipeline, pipeline.observations(stack.frames[:steps]),
                                    noise, fit_budget=cfg.data["fit"]["budget"])


@click.group()
@click.version_option(__version__)
def main():
    """Spectral spatio-temporal modeling with mirror-extension Gibbs suppression."""


@main.command()
@click.option("--config", default="advection", help="profile name or JSON path")
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="override the config seed")
@click.option("--steps", type=click.IntRange(min=1), default=None,
              help="override the number of steps")
@_exits_on_config_error
def simulate(config, out, seed, steps):
    """Generate a synthetic dataset and save it as a frame stack."""
    cfg = _with_steps(_seeded(RunConfig.load(config), seed), steps)
    run = _Run("simulate", cfg, out)
    try:
        stack = _generate_dataset(cfg)
        save_stack(stack, run.path("stack-simulated"))
    except NUMERICAL_ERRORS as exc:
        _fail(3, f"simulation failed: {exc}")
    run.finish(seed=cfg.data["seed"], steps=stack.steps)
    click.echo(f"wrote {stack.steps} frames under {run.outputs[0]}")


@main.command()
@click.argument("stack_path", type=click.Path(exists=True))
@click.option("--config", default="advection")
@click.option("--out", required=True, type=click.Path())
@_exits_on_config_error
def flip(stack_path, config, out):
    """Mirror-extend every frame of a stack onto the doubled grid."""
    cfg = RunConfig.load(config)
    stack = load_stack(stack_path)
    run = _Run("flip", cfg, out)
    variant = cfg.flip_variant()
    flipped = GridStack.from_fields(
        [flip_field(f, variant) for f in stack.frames],
        delta=stack.delta, units=stack.units, config_hash=cfg.hash,
    )
    save_stack(flipped, run.path("stack-flipped"))
    run.finish()
    click.echo(f"wrote flipped stack under {run.outputs[0]}")


@main.command()
@click.argument("stack_path", type=click.Path(exists=True))
@click.option("--config", default="storm")
@click.option("--out", required=True, type=click.Path())
@_exits_on_config_error
def velocity(stack_path, config, out):
    """Estimate motion between consecutive frames; write velocity and
    diffusivity stacks."""
    cfg = RunConfig.load(config)
    mcfg = cfg.motion()
    stack = load_stack(stack_path)
    if stack.steps < 2:
        _fail(2, "velocity estimation needs at least 2 frames")
    run = _Run("velocity", cfg, out)
    # per frame pair only what is written: vx, vy, d and the top speed
    vx, vy, d, speeds = [], [], [], []
    try:
        for a, b in zip(stack.frames[:-1], stack.frames[1:]):
            vel, dif = _estimated_physics(mcfg, a, b)
            vx.append(vel.vx)
            vy.append(vel.vy)
            d.append(dif.d)
            speeds.append(float(vel.speed().max()))
    except NUMERICAL_ERRORS as exc:
        _fail(3, f"motion estimation failed: {exc}")
    meta = dict(delta=stack.delta, config_hash=cfg.hash)
    for values, units, name in ((vx, "domain/step", "stack-velocity-x"),
                                (vy, "domain/step", "stack-velocity-y"),
                                (d, "domain^2/step", "stack-diffusivity")):
        save_stack(GridStack.from_fields([Field(stack.grid, v) for v in values],
                                         units=units, **meta), run.path(name))
    run.finish(max_speed=max(speeds))
    click.echo(f"wrote velocity/diffusivity stacks under {out}")


@main.command()
@_model_flags
@_exits_on_config_error
def fit(stack_path, config, out, k, use_flip, window, steps):
    """Maximum-likelihood noise variances for one model variant."""
    cfg, stack, run, spec = _model_run("fit", stack_path, config, out, k, use_flip, window)
    try:
        _, fitted = _fitted_model(cfg, stack, spec, steps, noise=None)
    except NUMERICAL_ERRORS as exc:
        _fail(3, f"variance estimation failed: {exc}")
    payload = json.dumps({"model": spec.label, **fitted.record}, indent=2, allow_nan=False)
    run.path("noise", ".json").write_text(payload + "\n")
    run.finish(model=spec.label, **fitted.record)
    click.echo(payload)


def _save_fields(run, cfg, stack, stem, fields):
    """Save a model's fields as a stack with the time step and units of ``stack``."""
    save_stack(GridStack.from_fields(fields, delta=stack.delta, units=stack.units,
                                     config_hash=cfg.hash), run.path(stem))


@main.command(name="filter")
@_model_flags
@_exits_on_config_error
def filter_cmd(stack_path, config, out, k, use_flip, window, steps):
    """Kalman-filter a stack and write the reconstructed frames."""
    cfg, stack, run, spec = _model_run("filter", stack_path, config, out, k, use_flip, window)
    try:
        pipeline, fitted = _fitted_model(cfg, stack, spec, steps, cfg.noise())
        means = fitted.result.means_array
        _save_fields(run, cfg, stack, f"stack-filtered-{spec.label}",
                     [pipeline.reconstruct(m) for m in means])
    except NUMERICAL_ERRORS as exc:
        _fail(3, f"filtering failed: {exc}")
    run.finish(model=spec.label, **fitted.record)
    click.echo(f"filtered {len(means)} frames as model {spec.label}")


@main.command()
@_model_flags
@click.option("--horizon", type=click.IntRange(min=1), default=3, show_default=True)
@_exits_on_config_error
def predict(stack_path, config, out, k, use_flip, window, steps, horizon):
    """Filter a stack, then forecast ``--horizon`` steps past the data."""
    cfg, stack, run, spec = _model_run("predict", stack_path, config, out, k, use_flip, window)
    try:
        pipeline, fitted = _fitted_model(cfg, stack, spec, steps, cfg.noise())
        means, _ = kf_forecast(fitted.model, fitted.result.final_state, horizon)
        fields = [pipeline.reconstruct(m) for m in means]
    except NUMERICAL_ERRORS as exc:
        _fail(3, f"forecasting failed: {exc}")
    _save_fields(run, cfg, stack, f"stack-predicted-{spec.label}", fields)
    run.finish(model=spec.label, horizon=horizon, **fitted.record)
    click.echo(f"wrote {horizon} forecast frames for model {spec.label}")


@main.command()
@click.argument("stack_path", type=click.Path(exists=True), required=False)
@click.option("--config", default="gibbs-strip")
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="override the config seed of the simulated data (no STACK_PATH)")
@click.option("--region", default=None, help="extra region as x0,x1,y0,y1")
@_exits_on_config_error
def evaluate(stack_path, config, out, seed, region):
    """Run the multi-model comparison and write the MAE report CSV."""
    if stack_path and seed is not None:
        _fail(2, "--seed seeds the data evaluate simulates; it cannot apply to STACK_PATH")
    cfg = _seeded(RunConfig.load(config), seed)
    run = _Run("evaluate", cfg, out)
    specs = cfg.model_specs()
    regions = cfg.regions()
    if region is not None:
        try:
            x0, x1, y0, y1 = (float(v) for v in region.split(","))
            from .evaluate import Region

            regions["cli"] = Region((x0, x1), (y0, y1))
        except ValueError as exc:
            _fail(2, f"--region must be x0,x1,y0,y1 within [0,1): {exc}")
    stack = load_stack(stack_path) if stack_path else _generate_dataset(cfg)
    comp, noise = cfg.data["comparison"], cfg.noise()
    try:
        check_comparison(specs, stack.steps, comp["train_steps"], comp["eval_times"],
                         noise is None, regions, stack.grid)
    except ValueError as exc:
        _fail(2, f"config.comparison: {exc}")
    try:
        velocity, diffusivity = _physics(cfg, stack)
        report = run_comparison(
            stack.frames, specs,
            train_steps=comp["train_steps"],
            eval_times=list(comp["eval_times"]),
            regions=regions,
            velocity=velocity,
            diffusivity=diffusivity,
            delta=stack.delta,
            noise=noise,
            fit_budget=cfg.data["fit"]["budget"],
        )
    except NUMERICAL_ERRORS as exc:
        _fail(3, f"comparison failed: {exc}")
    run.path("report", ".csv").write_text(report.to_csv())
    run.path("summary", ".txt").write_text(report.summary() + "\n")
    run.finish(models=report.metadata["models"])
    click.echo(report.summary())


@main.command()
@click.argument("stack_path", type=click.Path(exists=True))
@click.option("--config", default="advection")
@click.option("--out", required=True, type=click.Path())
@click.option("--frame", type=int, default=0, show_default=True)
@click.option("--scale", default=None, help="min,max (default: config or auto)")
@_exits_on_config_error
def render(stack_path, config, out, frame, scale):
    """Render one frame as a portable graymap with a scale sidecar.

    The image, its sidecar and the run log are named from the frame, a digest
    of the input stack's grid and frame values, and the config hash: frames of
    two stacks rendered into one ``--out`` keep their own files, and a stack
    rendered again, from any path, gets the same names."""
    cfg = RunConfig.load(config)
    stack = load_stack(stack_path)
    if not 0 <= frame < stack.steps:
        _fail(2, f"frame {frame} out of range [0, {stack.steps})")
    digest = hashlib.sha256(f"{stack.grid.n1}x{stack.grid.n2}".encode())
    for f in stack.frames:
        digest.update(f.values.tobytes())
    tag = digest.hexdigest()[:12]
    run = _Run("render", cfg, out, tag)
    if scale is not None:
        try:
            lo, hi = (float(v) for v in scale.split(","))
        except ValueError:
            _fail(2, "--scale must be min,max")
        bounds = (lo, hi)
    else:
        cfg_scale = cfg.data["render"]["scale"]
        bounds = None if cfg_scale == "auto" else tuple(cfg_scale)
    try:
        render_heatmap(stack.frames[frame], run.path(f"frame-{frame:04d}-{tag}", ".pgm"), bounds)
    except ValueError as exc:
        _fail(2, f"--scale: {exc}")
    run.finish(frame=frame, stack=str(Path(stack_path).resolve()))
    click.echo(f"rendered frame {frame} to {run.outputs[0]}")


@main.command(name="convert-rain")
@click.argument("stack_path", type=click.Path(exists=True))
@click.option("--config", default="storm")
@click.option("--out", required=True, type=click.Path())
@_exits_on_config_error
def convert_rain(stack_path, config, out):
    """Convert a reflectivity (dBZ) stack to rain rate (mm/hr)."""
    cfg = RunConfig.load(config)
    stack = load_stack(stack_path)
    if stack.units != "dBZ":
        _fail(2, f"expected a dBZ stack, manifest says units={stack.units!r}")
    run = _Run("convert-rain", cfg, out)
    frames = []
    for i, f in enumerate(stack.frames):
        try:
            frames.append(reflectivity_to_rain(f))
        except ValueError as exc:
            _fail(2, f"frame {i}: {exc}")
    rain = GridStack.from_fields(frames, delta=stack.delta, units="mm/hr",
                                 config_hash=cfg.hash)
    save_stack(rain, run.path("stack-rain"))
    run.finish()
    click.echo(f"wrote rain-rate stack under {run.outputs[0]}")


if __name__ == "__main__":
    main()
