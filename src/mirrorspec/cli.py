"""Command-line surface: reproducible pipelines over frame stacks.

Every command reads a :class:`~mirrorspec.config.RunConfig` (named profile or
JSON path), writes its outputs under ``--out`` with the config hash embedded
in filenames, and drops a machine-readable run log (parameters, library
versions, wall time).  A command refuses by raising; one decorator maps the
exception to an exit code: 2 for a bad configuration, stack or flag, and 3 for
a numerical breakdown (a :class:`~mirrorspec.kalman.FilterError` or a
``LinAlgError``) as ``<command> failed: ...``, which writes no output.
No command imports SciPy: the runtime needs NumPy and click alone, and a run
starts without paying SciPy's import time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, _section
from .evaluate import (ModelSpec, Region, build_pipeline, check_comparison, fit_and_filter,
                       run_comparison)
from .galerkin import DiffusivityField, VelocityField
from .grid import Field, flip_field
from .gridstack import GridStack, StackError, load_stack, render_heatmap, save_stack
from .kalman import MIN_FIT_FRAMES, FilterError, NoiseParams, kf_forecast
from .motion import MotionConfig, diffusivity_from_velocity, estimate_velocity
from .preprocess import reflectivity_to_rain
from .simulate import simulate_advection, synthetic_storm_stack


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

    def save(self, stem: str, frames: list[Field], *, delta: float, units: str):
        """Save ``frames`` as the stack ``stem``, tagged with the config hash."""
        save_stack(GridStack.from_fields(frames, delta=delta, units=units,
                                         config_hash=self.config.hash), self.path(stem))

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


def _exits_on_error(fn):
    """The one place a command exits on error, with one ``error:`` line: exit 2
    for a bad configuration, stack or flag raised anywhere in it, 3 for a breakdown."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, StackError) as exc:
            code, message = 2, str(exc)
        except (FilterError, np.linalg.LinAlgError) as exc:
            code, message = 3, f"{click.get_current_context().info_name} failed: {exc}"
        click.echo(f"error: {message}", err=True)
        sys.exit(code)

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
    if cfg.data["dataset"] == "storm":
        frames = _section("config.storm", synthetic_storm_stack, cfg.grid(),
                          seed=cfg.data["seed"], **cfg.data.get("storm", {}))
        return GridStack.from_fields(frames, units=cfg.data["units"])
    sim = cfg.simulation()
    frames = _section("config.simulation", simulate_advection, sim).fields
    return GridStack.from_fields(frames, delta=sim.delta, units=cfg.data["units"])


def _frame_pairs(stack: GridStack):
    """The consecutive frame pairs of ``stack``, over which motion is estimated."""
    if stack.steps < 2:
        raise StackError("velocity estimation needs at least 2 frames")
    return zip(stack.frames[:-1], stack.frames[1:])


def _estimated_physics(mcfg: MotionConfig, a: Field, b: Field):
    """Block-matching velocity from frame ``a`` to frame ``b`` and the shear
    diffusivity it implies at the block stride."""
    vel = estimate_velocity(a, b, mcfg)
    return vel, diffusivity_from_velocity(vel, mcfg.stride / a.grid.n1, mcfg.stride / a.grid.n2)


def _physics(cfg: RunConfig, stack: GridStack) -> tuple[VelocityField, DiffusivityField | None]:
    """Velocity and diffusivity of every model built from ``cfg`` and
    ``stack``: the configured constant velocity without diffusivity, or the
    estimate from the first two frames with its shear diffusivity."""
    if cfg.data["velocity"]["mode"] == "constant":
        vx, vy = cfg.data["velocity"]["value"]
        return VelocityField.constant(stack.grid, vx, vy), None
    return _estimated_physics(cfg.motion(), *next(_frame_pairs(stack)))


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
    """The config, stack, run and model spec of a command given :func:`_model_flags`;
    the run log is tagged with the model label, so runs of several models into
    one ``--out`` keep their own logs."""
    cfg = RunConfig.load(config)
    stack = load_stack(stack_path)
    k = k if k is not None else cfg.data["truncation"]["k"]
    label = f"{'window-' if window else ''}{'flip' if flip else 'direct'}{k}"
    try:
        spec = ModelSpec(label=label, k=k, flip=flip, window=window)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, stack, _Run(command, cfg, out, label), spec


def _fitted_model(cfg: RunConfig, stack: GridStack, spec: ModelSpec, steps,
                  noise: NoiseParams | None):
    """Build ``spec`` from the config and stack, then fit (when ``noise`` is
    None) and filter it over the first ``steps`` frames (all when None).
    Returns the pipeline and :func:`fit_and_filter`'s
    :class:`~mirrorspec.evaluate.FittedModel`."""
    steps = stack.steps if steps is None else steps
    if steps > stack.steps:
        raise ConfigError(f"--steps {steps} exceeds the {stack.steps} frames of the stack")
    if noise is None and steps < MIN_FIT_FRAMES:
        raise ConfigError(f"the variance fit needs at least {MIN_FIT_FRAMES} training frames, "
                          f"got {steps}")
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
@_exits_on_error
def simulate(config, out, seed, steps):
    """Generate a synthetic dataset and save it as a frame stack."""
    cfg = _with_steps(_seeded(RunConfig.load(config), seed), steps)
    run = _Run("simulate", cfg, out)
    stack = _generate_dataset(cfg)
    run.save("stack-simulated", stack.frames, delta=stack.delta, units=stack.units)
    run.finish(seed=cfg.data["seed"], steps=stack.steps)
    click.echo(f"wrote {stack.steps} frames under {run.outputs[0]}")


@main.command()
@click.argument("stack_path", type=click.Path(exists=True))
@click.option("--config", default="advection")
@click.option("--out", required=True, type=click.Path())
@_exits_on_error
def flip(stack_path, config, out):
    """Mirror-extend every frame of a stack onto the doubled grid."""
    cfg = RunConfig.load(config)
    stack = load_stack(stack_path)
    run = _Run("flip", cfg, out)
    variant = cfg.flip_variant()
    run.save("stack-flipped", [flip_field(f, variant) for f in stack.frames],
             delta=stack.delta, units=stack.units)
    run.finish()
    click.echo(f"wrote flipped stack under {run.outputs[0]}")


@main.command()
@click.argument("stack_path", type=click.Path(exists=True))
@click.option("--config", default="storm")
@click.option("--out", required=True, type=click.Path())
@_exits_on_error
def velocity(stack_path, config, out):
    """Estimate motion between consecutive frames; write velocity and
    diffusivity stacks."""
    cfg = RunConfig.load(config)
    mcfg = cfg.motion()
    stack = load_stack(stack_path)
    pairs = _frame_pairs(stack)
    run = _Run("velocity", cfg, out)
    physics = [_estimated_physics(mcfg, a, b) for a, b in pairs]
    for stem, units, values in (("stack-velocity-x", "domain/step", [v.vx for v, _ in physics]),
                                ("stack-velocity-y", "domain/step", [v.vy for v, _ in physics]),
                                ("stack-diffusivity", "domain^2/step", [d.d for _, d in physics])):
        run.save(stem, [Field(stack.grid, x) for x in values], delta=stack.delta, units=units)
    run.finish(max_speed=max(float(v.speed().max()) for v, _ in physics))
    click.echo(f"wrote velocity/diffusivity stacks under {out}")


@main.command()
@_model_flags
@_exits_on_error
def fit(stack_path, config, out, k, use_flip, window, steps):
    """Maximum-likelihood noise variances for one model variant."""
    cfg, stack, run, spec = _model_run("fit", stack_path, config, out, k, use_flip, window)
    _, fitted = _fitted_model(cfg, stack, spec, steps, noise=None)
    payload = json.dumps({"model": spec.label, **fitted.record}, indent=2, allow_nan=False)
    run.path(f"noise-{spec.label}", ".json").write_text(payload + "\n")
    run.finish(model=spec.label, **fitted.record)
    click.echo(payload)


@main.command(name="filter")
@_model_flags
@_exits_on_error
def filter_cmd(stack_path, config, out, k, use_flip, window, steps):
    """Kalman-filter a stack and write the reconstructed frames."""
    cfg, stack, run, spec = _model_run("filter", stack_path, config, out, k, use_flip, window)
    pipeline, fitted = _fitted_model(cfg, stack, spec, steps, cfg.noise())
    means = fitted.result.means_array
    run.save(f"stack-filtered-{spec.label}", [pipeline.reconstruct(m) for m in means],
             delta=stack.delta, units=stack.units)
    run.finish(model=spec.label, **fitted.record)
    click.echo(f"filtered {len(means)} frames as model {spec.label}")


@main.command()
@_model_flags
@click.option("--horizon", type=click.IntRange(min=1), default=3, show_default=True)
@_exits_on_error
def predict(stack_path, config, out, k, use_flip, window, steps, horizon):
    """Filter a stack, then forecast ``--horizon`` steps past the data."""
    cfg, stack, run, spec = _model_run("predict", stack_path, config, out, k, use_flip, window)
    pipeline, fitted = _fitted_model(cfg, stack, spec, steps, cfg.noise())
    means, _ = kf_forecast(fitted.model, fitted.result.final_state, horizon)
    run.save(f"stack-predicted-{spec.label}", [pipeline.reconstruct(m) for m in means],
             delta=stack.delta, units=stack.units)
    run.finish(model=spec.label, horizon=horizon, **fitted.record)
    click.echo(f"wrote {horizon} forecast frames for model {spec.label}")


@main.command()
@click.argument("stack_path", type=click.Path(exists=True), required=False)
@click.option("--config", default="gibbs-strip")
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="override the config seed of the simulated data (no STACK_PATH)")
@click.option("--region", default=None, help="extra region as x0,x1,y0,y1")
@_exits_on_error
def evaluate(stack_path, config, out, seed, region):
    """Run the multi-model comparison and write the MAE report CSV."""
    if stack_path and seed is not None:
        raise ConfigError("--seed seeds the data evaluate simulates; it cannot apply to "
                          "STACK_PATH")
    cfg = _seeded(RunConfig.load(config), seed)
    run = _Run("evaluate", cfg, out)
    specs = cfg.model_specs()
    regions = cfg.regions()
    if region is not None:
        if "cli" in regions:
            raise ConfigError("--region adds the region 'cli', which config.regions "
                              "already names")
        try:
            x0, x1, y0, y1 = (float(v) for v in region.split(","))
            regions["cli"] = Region((x0, x1), (y0, y1))
        except ValueError as exc:
            raise ConfigError(f"--region must be x0,x1,y0,y1 within [0,1): {exc}") from exc
    stack = load_stack(stack_path) if stack_path else _generate_dataset(cfg)
    comp, noise = cfg.data["comparison"], cfg.noise()
    _section("config.comparison", check_comparison, specs, stack.steps, comp["train_steps"],
             comp["eval_times"], noise is None, regions, stack.grid)
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
@_exits_on_error
def render(stack_path, config, out, frame, scale):
    """Render one frame as a portable graymap with a scale sidecar.

    The image, its sidecar and the run log are named from the frame, a digest
    of the input stack's grid and frame values, and the config hash: frames of
    two stacks rendered into one ``--out`` keep their own files, and a stack
    rendered again, from any path, gets the same names."""
    cfg = RunConfig.load(config)
    stack = load_stack(stack_path)
    if not 0 <= frame < stack.steps:
        raise ConfigError(f"frame {frame} out of range [0, {stack.steps})")
    digest = hashlib.sha256(f"{stack.grid.n1}x{stack.grid.n2}".encode())
    for f in stack.frames:
        digest.update(f.values.tobytes())
    tag = digest.hexdigest()[:12]
    run = _Run("render", cfg, out, tag)
    if scale is not None:
        try:
            lo, hi = (float(v) for v in scale.split(","))
        except ValueError as exc:
            raise ConfigError("--scale must be min,max") from exc
        bounds = (lo, hi)
    else:
        cfg_scale = cfg.data["render"]["scale"]
        bounds = None if cfg_scale == "auto" else tuple(cfg_scale)
    _section("--scale", render_heatmap, stack.frames[frame],
             run.path(f"frame-{frame:04d}-{tag}", ".pgm"), bounds)
    run.finish(frame=frame, stack=str(Path(stack_path).resolve()))
    click.echo(f"rendered frame {frame} to {run.outputs[0]}")


@main.command(name="convert-rain")
@click.argument("stack_path", type=click.Path(exists=True))
@click.option("--config", default="storm")
@click.option("--out", required=True, type=click.Path())
@_exits_on_error
def convert_rain(stack_path, config, out):
    """Convert a reflectivity (dBZ) stack to rain rate (mm/hr)."""
    cfg = RunConfig.load(config)
    stack = load_stack(stack_path)
    if stack.units != "dBZ":
        raise StackError(f"expected a dBZ stack, manifest says units={stack.units!r}")
    run = _Run("convert-rain", cfg, out)
    run.save("stack-rain", [_section(f"frame {i}", reflectivity_to_rain, f)
                            for i, f in enumerate(stack.frames)],
             delta=stack.delta, units="mm/hr")
    run.finish()
    click.echo(f"wrote rain-rate stack under {run.outputs[0]}")


if __name__ == "__main__":
    main()
