"""The benchmark's three CLI workloads: set-up, commands and output checks.

Each workload is a closed loop with one client: an iteration runs its
``mirrorspec`` commands one after another, each in a fresh Python process,
as a CLI user would.  The workload seed reaches the program only through
``mirrorspec simulate --seed``; the program sees nothing but the generated
stacks and configs.

``RECORD`` says for each workload why it was chosen, which layers do most
and little of its work, and what the baseline read on a 2-vCPU Intel Xeon
KVM guest with OpenBLAS 0.3.31 under its default threading (2 threads, no
thread variable set).  A later performance change names the workload that
should move and the ones that should not.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

RECORD = {
    "advection-fit": {
        "why": "The paper's headline comparison: a direct model against the mirrored (flip) "
               "model with the 40-evaluation variance fit, on the 100x100x30 drifting-source "
               "stack.  flip100 runs the flipped-model mechanism; direct25 in the same run "
               "does not.",
        "most_work": ["kalman: the two fits, 80 filter passes at K=99 and K=25 (over 95%)"],
        "little_work": ["gridstack (one load)", "spectral", "galerkin", "dynamics", "cli"],
        "scaled_from": "The shipped advection profile pairs direct100 with flip400 and takes "
                       "about 102 s per iteration (the flip400 fit about 88 s), more than a "
                       "run can hold, so the pair is scaled to direct25/flip100: same grid, "
                       "stack, regions, eval times and fit budget, state sizes K=25 and K=99.",
        "baseline": {"run_s": "12.07 (11.8-13.5 over seeds 101-110)", "peak_rss_mib": 134,
                     "kalman.fit_evals": 80, "kalman.kf_filter.calls": 82,
                     "kalman.fit_converged_ratio": 0, "kalman.kf_filter.k99.call_ms": 236,
                     "kalman.kf_filter.k25.call_ms": 3.6,
                     "mae_out": "9.2-12.1", "gibbs_ratio": "0.15-0.36"},
    },
    "storm-radar": {
        "why": "The README's radar chain (velocity, convert-rain, evaluate) on a synthetic "
               "storm of six rain cells: the only workload with estimated, spatially varying "
               "velocity and shear diffusivity.",
        "most_work": ["kalman: the flip200 and direct50 fits (about 45%)",
                      "motion: 10 block-matching calls (about 40%)"],
        "little_work": ["galerkin (variable-coefficient quadrature, under 1%)", "gridstack",
                        "preprocess"],
        "baseline": {"run_s": "19.51 (15.3-24.8 over seeds 101-110)", "peak_rss_mib": 172,
                     "velocity_s": "6.3-10.8", "evaluate_s": "7.8-14.1",
                     "kalman.fit_evals": 80, "kalman.kf_filter.calls": 82,
                     "kalman.fit_converged_ratio": 0, "kalman.kf_filter.k199.call_ms": 184,
                     "kalman.kf_filter.k49.call_ms": 2.5, "motion.estimate_velocity.calls": 10,
                     "mae_out": "1.19-1.96", "gibbs_ratio": "0.31-0.56"},
    },
    "stack-io": {
        "why": "Stack writes beside reads plus process start-up: simulate, flip (a 200x200x30 "
               "stack), filter and predict with fixed noise (no fit), render.",
        "most_work": ["cli: 5 interpreter starts and imports (about 2.9 s)",
                      "gridstack: 4 saves, 35.6 MB (about 1.4 s), 4 loads, 23.3 MB (0.35 s)"],
        "little_work": ["kalman: two K=99 passes, no fit, no flipped model (about 0.9 s)"],
        "baseline": {"run_s": "7.26 (6.8-8.4 over seeds 101-110)", "peak_rss_mib": 155,
                     "kalman.fit_evals": 0, "kalman.kf_filter.calls": 2,
                     "mae_out": 4.227},
    },
}

ADVECTION_CONFIG = {
    "dataset": "advection",
    "fit": {"enabled": True, "budget": 40},
    "comparison": {
        "models": [
            {"label": "direct25", "k": 25},
            {"label": "flip100", "k": 100, "flip": True},
        ],
        "train_steps": 20,
        "eval_times": [11, 12, 13, 14, 15, 16, 17, 18, 19, 20],
    },
}
QUIET_STRIP = "0.0,0.99,0.95,0.99"
# The storm profile's stack with six rain cells instead of three.  Block
# matching skips blocks without signal, so its work follows the area the cells
# cover.  Over seeds 1-20 the count of matched blocks has an interquartile
# range of 9% of its median with three cells and 5% with six.  Only simulate
# reads this config; velocity, convert-rain and evaluate run the storm profile.
STORM_CONFIG = {"dataset": "storm", "units": "dBZ",
                "storm": {"steps": 10, "n_blobs": 6, "peak_dbz": 42.0}}
# Fixed noise variances, so filter and predict run no fit.
STACK_IO_CONFIG = {"noise": {"sigma2_alpha": 1e-3, "sigma2_beta": 1e-3}}


class CheckFailed(Exception):
    """An output of a command is missing or wrong."""


@dataclass
class Step:
    """One CLI command of an iteration.  ``args`` builds its arguments from the
    iteration directory once the earlier steps have run; ``check`` validates
    its outputs and returns any quality readings."""

    command: str
    args: Callable[[Path], list[str]]
    check: Callable[[Path], dict]

    def out(self, it_dir: Path, index: int) -> Path:
        return it_dir / f"{index:02d}-{self.command}"


@dataclass
class Workload:
    name: str
    setup_commands: list[list[str]]
    steps: list[Step]


def _one(directory: Path, pattern: str) -> Path:
    found = sorted(directory.glob(pattern))
    if len(found) != 1:
        raise CheckFailed(f"expected one {pattern} under {directory}, found {len(found)}")
    return found[0]


def _stack(path: Path, steps: int, shape: tuple[int, int]):
    from mirrorspec.gridstack import load_stack
    import numpy as np

    stack = load_stack(path)
    if stack.steps != steps or stack.grid.shape != shape:
        raise CheckFailed(f"{path.name}: {stack.steps} frames of {stack.grid.shape}, "
                          f"expected {steps} of {shape}")
    for i, frame in enumerate(stack.frames):
        if not np.all(np.isfinite(frame.values)):
            raise CheckFailed(f"{path.name}: frame {i} has non-finite values")
    return stack


def _report(out: Path, models, times, regions, quiet: str) -> dict:
    """Check the MAE report and return its quality readings.

    Every (model, time, region) cell must be present and finite, and the
    mirrored model (the second) must beat the direct one (the first) in the
    quiet region at every eval time."""
    cells = {}
    with open(_one(out, "report-*.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            cells[(row["model"], int(row["time"]), row["region"])] = float(row["mae"])
    expected = {(m, t, r) for m in models for t in times for r in regions}
    if set(cells) != expected:
        raise CheckFailed(f"report cells differ: missing {sorted(expected - set(cells))[:3]}, "
                          f"extra {sorted(set(cells) - expected)[:3]}")
    if not all(math.isfinite(v) for v in cells.values()):
        raise CheckFailed("report has non-finite MAE cells")
    direct, mirrored = models
    ratios = []
    for t in times:
        d, m = cells[(direct, t, quiet)], cells[(mirrored, t, quiet)]
        if not m < d:
            raise CheckFailed(f"t={t}: {mirrored} quiet MAE {m:.4g} not below {direct} {d:.4g}")
        ratios.append(m / d)
    whole = [v for (_, _, r), v in cells.items() if r == "whole"]
    return {"mae_out": sum(whole) / len(whole), "gibbs_ratio": sum(ratios) / len(ratios)}


def advection_fit(setup_dir: Path, seed: int) -> Workload:
    config = setup_dir / "advection-fit.json"
    config.write_text(json.dumps(ADVECTION_CONFIG))
    sim = setup_dir / "sim"
    comp = ADVECTION_CONFIG["comparison"]
    models = [m["label"] for m in comp["models"]]

    def evaluate_args(it_dir):
        return [str(_one(sim, "stack-simulated-*")), "--config", str(config),
                "--region", QUIET_STRIP]

    def evaluate_check(out):
        return _report(out, models, comp["eval_times"], ["whole", "cli"], "cli")

    return Workload(
        "advection-fit",
        [["simulate", "--config", str(config), "--seed", str(seed), "--out", str(sim)]],
        [Step("evaluate", evaluate_args, evaluate_check)],
    )


def storm_radar(setup_dir: Path, seed: int) -> Workload:
    import numpy as np

    config = setup_dir / "storm-radar.json"
    config.write_text(json.dumps(STORM_CONFIG))
    sim = setup_dir / "sim"
    grid = (100, 100)

    def stack_path(it_dir):
        return [str(_one(sim, "stack-simulated-*")), "--config", "storm"]

    def velocity_check(out):
        for stem in ("velocity-x", "velocity-y", "diffusivity"):
            _stack(_one(out, f"stack-{stem}-*"), 9, grid)
        return {}

    def rain_check(out):
        from mirrorspec.preprocess import reflectivity_to_rain

        rain = _stack(_one(out, "stack-rain-*"), 10, grid)
        dbz = _stack(_one(sim, "stack-simulated-*"), 10, grid)
        for i, (r, z) in enumerate(zip(rain.frames, dbz.frames)):
            if not np.array_equal(r.values, reflectivity_to_rain(z).values):
                raise CheckFailed(f"rain frame {i} differs from reflectivity_to_rain")
        return {}

    def evaluate_check(out):
        return _report(out, ["direct50", "flip200"], [5, 6, 7, 8, 9],
                       ["whole", "quiet-quadrant"], "quiet-quadrant")

    return Workload(
        "storm-radar",
        [["simulate", "--config", str(config), "--seed", str(seed), "--out", str(sim)]],
        [Step("velocity", stack_path, velocity_check),
         Step("convert-rain", stack_path, rain_check),
         Step("evaluate", stack_path, evaluate_check)],
    )


def stack_io(setup_dir: Path, seed: int) -> Workload:
    import numpy as np
    from mirrorspec.config import RunConfig
    from mirrorspec.evaluate import mae
    from mirrorspec.grid import flip_field
    from mirrorspec.simulate import simulate_advection

    config = setup_dir / "stack-io.json"
    config.write_text(json.dumps(STACK_IO_CONFIG))
    cfg = RunConfig(STACK_IO_CONFIG)
    variant = cfg.flip_variant()
    grid = (100, 100)
    common = ["--config", str(config)]

    @functools.cache
    def truth():
        # the in-memory simulation, made once and outside the timed set-up
        return simulate_advection(cfg.simulation(seed=seed)).fields

    def simulated(it_dir):
        return _one(it_dir / "01-simulate", "stack-simulated-*")

    def simulate_check(out):
        stack = _stack(_one(out, "stack-simulated-*"), 30, grid)
        for i, (got, want) in enumerate(zip(stack.frames, truth())):
            if not np.array_equal(got.values, want.values):
                raise CheckFailed(f"simulated frame {i} differs from the in-memory simulation")
        return {}

    def flip_check(out):
        flipped = _stack(_one(out, "stack-flipped-*"), 30, (200, 200))
        for i, (got, want) in enumerate(zip(flipped.frames, truth())):
            if not np.array_equal(got.values, flip_field(want, variant).values):
                raise CheckFailed(f"flipped frame {i} differs from flip_field of its input")
        return {}

    def filter_check(out):
        filtered = _stack(_one(out, "stack-filtered-direct100-*"), 30, grid)
        errors = [mae(t, f) for t, f in zip(truth(), filtered.frames)]
        return {"mae_out": sum(errors) / len(errors)}

    def predict_check(out):
        _stack(_one(out, "stack-predicted-direct100-*"), 3, grid)
        return {}

    def render_check(out):
        pgm = _one(out, "frame-0015-*.pgm").read_bytes()
        header = b"P5\n100 100\n255\n"
        if not pgm.startswith(header) or len(pgm) != len(header) + 100 * 100:
            raise CheckFailed("rendered frame is not a 100x100 8-bit PGM")
        return {}

    return Workload(
        "stack-io",
        [["simulate", *common, "--seed", str(seed), "--out", str(setup_dir / "warm-up")]],
        [Step("simulate", lambda it: [*common, "--seed", str(seed)], simulate_check),
         Step("flip", lambda it: [str(simulated(it)), *common], flip_check),
         Step("filter", lambda it: [str(simulated(it)), *common, "--k", "100"], filter_check),
         Step("predict", lambda it: [str(simulated(it)), *common, "--k", "100",
                                     "--horizon", "3"], predict_check),
         Step("render", lambda it: [str(_one(it / "03-filter", "stack-filtered-*")),
                                    *common, "--frame", "15"], render_check)],
    )


WORKLOADS = {"advection-fit": advection_fit, "storm-radar": storm_radar, "stack-io": stack_io}
