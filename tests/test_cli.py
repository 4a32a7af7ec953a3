import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mirrorspec.cli import main
from mirrorspec.config import ConfigError, PROFILES, RunConfig
from mirrorspec.grid import DEFAULT_FLIP, Field, GridSpec
from mirrorspec.gridstack import GridStack, load_stack, save_stack
from mirrorspec.kalman import FIT_BUDGET
from mirrorspec.motion import MotionConfig
from mirrorspec.simulate import SimulationConfig, simulate_advection


@pytest.fixture
def runner():
    return CliRunner()


def read_runlog(path) -> dict:
    """A run log's JSON.  Fails on ``NaN`` and ``Infinity``: ``json.dumps``
    writes them, but they are not JSON, and no logged figure should be one."""
    def reject(constant):
        raise ValueError(f"{path} holds {constant}, which is not valid JSON")

    return json.loads(Path(path).read_text(), parse_constant=reject)


SMALL_SIM = {
    "grid": {"n1": 24, "n2": 24},
    "seed": 5,
    "simulation": {
        "steps": 8, "noise_alpha": 0.002, "noise_beta": 0.0005, "noise_modes": 21,
    },
    "truncation": {"k": 16},
    "noise": {"sigma2_alpha": 0.002, "sigma2_beta": 0.0005, "sigma2_obs": 0.0},
    "fit": {"enabled": False, "budget": 10},
    "comparison": {
        "models": [
            {"label": "direct16", "k": 16},
            {"label": "flip64", "k": 64, "flip": True},
        ],
        "train_steps": 6,
        "eval_times": [4, 5, 6, 7],
    },
}


def write_config(tmp_path, payload=SMALL_SIM):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_config_profiles_all_valid():
    for name in PROFILES:
        cfg = RunConfig.load(name)
        assert len(cfg.hash) == 12


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig({"grid": {"n1": 10, "n2": 10, "n3": 2}})
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig({"typo_section": {}})
    with pytest.raises(ConfigError, match="unknown key 'grid'"):
        RunConfig({"fit": {"enabled": True, "budget": 40, "grid": [1e-3, 1e-2]}})
    with pytest.raises(ConfigError, match="unknown key 'k_star_factor'"):
        RunConfig({"truncation": {"k": 100, "k_star_factor": 4}})


def test_config_rejects_fit_budget_below_3():
    # a budget of 2 would leave the first grid alone, resolving r to a factor
    # of 3; the least budget adds one refining grid
    with pytest.raises(ConfigError, match="config.fit.budget must be at least 3, got 2"):
        RunConfig({"fit": {"enabled": True, "budget": 2}})


def test_config_defaults_are_those_of_the_code_that_takes_them():
    cfg = RunConfig({})
    assert cfg.simulation() == SimulationConfig()
    assert cfg.motion() == MotionConfig()
    assert cfg.flip_variant() == DEFAULT_FLIP
    assert cfg.data["fit"]["budget"] == FIT_BUDGET
    assert tuple(cfg.data["velocity"]["value"]) == SimulationConfig().velocity


def test_config_hash_covers_numeric_parameters():
    a = RunConfig({"simulation": {"noise_alpha": 0.005}})
    b = RunConfig({"simulation": {"noise_alpha": 0.0051}})
    assert a.hash != b.hash


def test_simulate_writes_stack(runner, tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    stacks = list(out.glob("stack-simulated-*"))
    assert len(stacks) == 1
    assert (stacks[0] / "manifest.json").exists()
    assert len(list(stacks[0].glob("frame_*.npy"))) == 8
    logs = list(out.glob("runlog-simulate-*.json"))
    assert len(logs) == 1
    log = read_runlog(logs[0])
    assert "wall_time_s" in log and "versions" in log


def test_bad_config_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"n1": 7, "n2": 10}}))  # odd dimension
    result = runner.invoke(main, ["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    result = runner.invoke(main, ["simulate", "--config", "nonexistent", "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    # pairs are checked when the config is built, before a command unpacks them
    _, stack = _simulated(runner, tmp_path)
    for commands, override, message in (
        (("filter", "fit", "predict", "evaluate"), {"velocity": {"value": [0.01]}},
         "config.velocity.value: expected two finite numbers, got [0.01]"),
        (("simulate",), {"simulation": {"velocity": [0.01]}},
         "config.simulation.velocity: expected two finite numbers"),
        (("simulate",), {"simulation": {"source_center": [0.1]}},
         "config.simulation.source_center: expected two finite numbers"),
        (("simulate",), {"simulation": {"velocity": [0.01, "0"]}},
         "config.simulation.velocity: expected two finite numbers"),
        (("evaluate",), {"velocity": {"value": [float("nan"), 0.0]}},
         "config.velocity.value: expected two finite numbers"),
        (("render",), {"render": {"scale": [1]}},
         "config.render.scale: expected 'auto' or two finite numbers, got [1]"),
        (("render",), {"render": {"scale": "fixed"}},
         "config.render.scale: expected 'auto' or two finite numbers, got 'fixed'"),
        (("render",), {"render": {"scale": [5, 1]}},
         "config.render.scale: expected min < max, got [5, 1]"),
        (("simulate",), {"simulation": {"noise_modes": 0}},
         "config.simulation: noise_modes must be >= 1 or null, got 0"),
        (("simulate",), {"simulation": {"noise_modes": -5}},
         "config.simulation: noise_modes must be >= 1 or null, got -5"),
        (("simulate",), {"simulation": {"delta": -1}},
         "config.simulation: delta must be finite and positive, got -1.0"),
        (("simulate",), {"simulation": {"delta": 0}},
         "config.simulation: delta must be finite and positive, got 0.0"),
        (("simulate", "evaluate"), {"regions": {"a": {"x_range": 0.5, "y_range": [0, 0.5]}}},
         "config.regions.a.x_range: expected two finite numbers, got 0.5"),
        (("simulate", "evaluate"), {"regions": {"a": ["x_range", "y_range"]}},
         "config.regions.a: need exactly x_range and y_range"),
        (("simulate", "evaluate"), {"regions": ["whole"]}, "config.regions: expected an object"),
        # sections that these commands never read are checked all the same
        (("simulate", "flip", "render", "convert-rain"), {"motion": {"block": 2}},
         "config.motion: block must be >= 4 pixels"),
        (("simulate", "flip", "render", "convert-rain"),
         {"noise": {"sigma2_alpha": -1, "sigma2_beta": 1}},
         "config.noise: sigma2_alpha must be finite and positive, got -1.0"),
    ):
        cfg = write_config(tmp_path, {**SMALL_SIM, **override})
        for command in commands:
            out = tmp_path / f"bad-{command}"
            args = [] if command == "simulate" else [stack]
            result = runner.invoke(main, [command, *args, "--config", cfg, "--out", str(out)])
            assert result.exit_code == 2, (command, override, result.output)
            assert message in result.output, (command, result.output)
            assert not list(out.glob("*"))


@pytest.mark.parametrize("command", ["velocity", "evaluate"])
def test_bad_flip_anchor_exits_2(runner, tmp_path, command):
    # the anchors only lay out what flip writes, yet every command checks them
    _, stack = _simulated(runner, tmp_path)
    cfg = write_config(tmp_path, {**SMALL_SIM, "flip": {"x_anchor": "up"}})
    out = tmp_path / "o"
    result = runner.invoke(main, [command, stack, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "config.flip: x_anchor must be 'right' or 'left', got 'up'" in result.output
    assert not list(out.glob("*"))


def _simulated(runner, tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    return cfg, str(next(out.glob("stack-simulated-*")))


def test_flip_and_render_pipeline(runner, tmp_path):
    cfg, stack = _simulated(runner, tmp_path)
    out = tmp_path / "flip"
    result = runner.invoke(main, ["flip", stack, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    flipped = next(out.glob("stack-flipped-*"))
    manifest = json.loads((flipped / "manifest.json").read_text())
    assert manifest["n1"] == 48 and manifest["n2"] == 48

    rout = tmp_path / "render"
    result = runner.invoke(main, [
        "render", str(flipped), "--config", cfg, "--out", str(rout),
        "--frame", "2", "--scale", "0,20",
    ])
    assert result.exit_code == 0, result.output
    pgm = next(rout.glob("frame-0002-*.pgm"))
    assert pgm.read_bytes().startswith(b"P5\n48 48\n255\n")
    assert pgm.with_suffix(".pgm.scale.json").exists()


def test_render_keeps_the_frames_of_two_stacks_apart(runner, tmp_path):
    # the same frame of two stacks under one config into one --out, as the
    # README's direct/mirrored example does
    cfg = write_config(tmp_path)
    stacks = []
    for seed in ("1", "2"):
        out = tmp_path / f"sim{seed}"
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out),
                                      "--seed", seed])
        assert result.exit_code == 0, result.output
        stacks.append(next(out.glob("stack-simulated-*")))
    rout = tmp_path / "img"

    def render(stack):
        result = runner.invoke(main, ["render", str(stack), "--config", cfg,
                                      "--out", str(rout), "--frame", "1"])
        assert result.exit_code == 0, result.output
        return {p.name: p.read_bytes() for p in rout.iterdir() if p.suffix != ".json"
                or p.name.endswith(".scale.json")}

    render(stacks[0])
    files = render(stacks[1])
    pgms = sorted(rout.glob("frame-0001-*.pgm"))
    assert len(pgms) == 2 and pgms[0].read_bytes() != pgms[1].read_bytes()
    assert all(p.with_suffix(".pgm.scale.json").exists() for p in pgms)
    logs = [read_runlog(p) for p in rout.glob("runlog-render-*.json")]
    assert sorted(log["stack"] for log in logs) == sorted(str(s.resolve()) for s in stacks)
    assert sorted(log["outputs"][0] for log in logs) == sorted(str(p) for p in pgms)
    assert len(files) == 4
    # the first stack again, from a copy: the names follow the frames, not the path
    copy = tmp_path / "copy" / stacks[0].name
    shutil.copytree(stacks[0], copy)
    assert render(copy) == files
    assert len(list(rout.iterdir())) == 6


def test_reversed_render_scale_exits_2(runner, tmp_path):
    cfg, stack = _simulated(runner, tmp_path)
    out = tmp_path / "r"
    result = runner.invoke(main, ["render", stack, "--config", cfg, "--out", str(out),
                                  "--scale", "5,1"])
    assert result.exit_code == 2, result.output
    assert "--scale: render scale must be finite with min < max, got (5.0, 1.0)" in result.output
    assert not list(out.glob("*"))


def test_render_frame_out_of_range(runner, tmp_path):
    cfg, stack = _simulated(runner, tmp_path)
    result = runner.invoke(main, [
        "render", stack, "--config", cfg, "--out", str(tmp_path / "r"), "--frame", "99",
    ])
    assert result.exit_code == 2


def test_filter_and_predict(runner, tmp_path):
    cfg, stack = _simulated(runner, tmp_path)
    out = tmp_path / "filt"
    result = runner.invoke(main, [
        "filter", stack, "--config", cfg, "--out", str(out), "--flip", "true", "--k", "64",
    ])
    assert result.exit_code == 0, result.output
    filtered = next(out.glob("stack-filtered-flip64-*"))
    manifest = json.loads((filtered / "manifest.json").read_text())
    assert manifest["n1"] == 24  # output restricted to the original quadrant
    assert manifest["steps"] == 8

    pout = tmp_path / "pred"
    result = runner.invoke(main, [
        "predict", stack, "--config", cfg, "--out", str(pout), "--horizon", "2",
    ])
    assert result.exit_code == 0, result.output
    predicted = next(pout.glob("stack-predicted-direct16-*"))
    assert json.loads((predicted / "manifest.json").read_text())["steps"] == 2


def test_fit_writes_noise_json(runner, tmp_path):
    payload = dict(SMALL_SIM)
    payload = json.loads(json.dumps(SMALL_SIM))
    del payload["noise"]
    payload["fit"] = {"enabled": True, "budget": 12}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "sim"
    runner_result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
    assert runner_result.exit_code == 0
    stack = str(next(out.glob("stack-simulated-*")))
    result = CliRunner().invoke(main, ["fit", stack, "--config", cfg, "--out", str(tmp_path / "f")])
    assert result.exit_code == 0, result.output
    noise = json.loads(next((tmp_path / "f").glob("noise-*.json")).read_text())
    assert noise["sigma2_alpha"] > 0
    assert "loglik" in noise


def test_evaluate_deterministic_csv(runner, tmp_path):
    cfg, stack = _simulated(runner, tmp_path)
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        result = runner.invoke(main, [
            "evaluate", stack, "--config", cfg, "--out", str(out),
            "--region", "0.0,0.99,0.9,0.99",
        ])
        assert result.exit_code == 0, result.output
        outs.append(next(out.glob("report-*.csv")).read_bytes())
    assert outs[0] == outs[1]
    text = outs[0].decode()
    assert text.splitlines()[0] == "model,time,region,mae"
    assert any("flip64" in line and ",cli," in line for line in text.splitlines())


def test_evaluate_generates_dataset_without_stack(runner, tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "auto"
    result = runner.invoke(main, ["evaluate", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / f"report-{RunConfig.load(cfg).hash}.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluate_logs_the_leakage_of_frames_with_signal_only(runner, tmp_path):
    # a dry (all-zero) first frame has no norm to share out: leakage_fraction
    # is the median over the other training frames, and the log stays JSON
    cfg = write_config(tmp_path, {**SMALL_SIM, "grid": {"n1": 32, "n2": 32}})
    frames = simulate_advection(RunConfig.load(cfg).simulation()).fields
    frames[0] = Field.from_pixels(frames[0].grid, np.zeros(frames[0].grid.shape))
    stack = save_stack(GridStack.from_fields(frames, config_hash="test"), tmp_path / "stack")
    out = tmp_path / "e"
    result = runner.invoke(main, ["evaluate", str(stack), "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    leakage = read_runlog(next(out.glob("runlog-*.json")))["models"]["flip64"]["leakage_fraction"]
    assert 0 < leakage < 1


def test_convert_rain_requires_dbz_units(runner, tmp_path):
    cfg, stack = _simulated(runner, tmp_path)
    result = runner.invoke(main, [
        "convert-rain", stack, "--config", cfg, "--out", str(tmp_path / "rain"),
    ])
    assert result.exit_code == 2  # simulated stack is dimensionless


def test_convert_rain_rejects_a_reflectivity_without_a_finite_rate(runner, tmp_path):
    # 10^(Z/10) overflows above about 3083 dBZ: a fill value of 4000 in frame 1
    frames = [Field(GridSpec(4, 4), np.full(16, 30.0)) for _ in range(3)]
    frames[1] = Field(GridSpec(4, 4), np.where(np.arange(16) == 5, 4000.0, 30.0))
    stack = save_stack(GridStack.from_fields(frames, units="dBZ", config_hash="test"),
                       tmp_path / "dbz")
    out = tmp_path / "rain"
    result = runner.invoke(main, ["convert-rain", str(stack), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "frame 1: the largest reflectivity, 4000 dBZ, has no finite rain rate" in result.output
    assert "Traceback" not in result.output
    assert not list(out.glob("stack-rain-*"))


STORM_SMALL = {
    "dataset": "storm",
    "units": "dBZ",
    "seed": 7,
    "grid": {"n1": 64, "n2": 64},
    "storm": {"steps": 5, "n_blobs": 2, "peak_dbz": 40.0},
    "velocity": {"mode": "estimate", "value": [0.0, 0.0]},
    "motion": {"block": 16, "overlap": 0.5, "search_radius": 6,
               "min_block_energy": 1e-4, "smooth_sigma": 2.0},
}


def test_storm_velocity_and_rain_pipeline(runner, tmp_path):
    cfg = write_config(tmp_path, STORM_SMALL)
    sim_out = tmp_path / "storm"
    result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(sim_out)])
    assert result.exit_code == 0, result.output
    stack = str(next(sim_out.glob("stack-simulated-*")))
    manifest = json.loads((Path(stack) / "manifest.json").read_text())
    assert manifest["units"] == "dBZ"
    assert manifest["steps"] == 5

    vout = tmp_path / "vel"
    result = runner.invoke(main, ["velocity", stack, "--config", cfg, "--out", str(vout)])
    assert result.exit_code == 0, result.output
    vx_stack = next(vout.glob("stack-velocity-x-*"))
    assert json.loads((vx_stack / "manifest.json").read_text())["steps"] == 4
    assert len(list(vout.glob("stack-diffusivity-*"))) == 1
    log = read_runlog(next(vout.glob("runlog-velocity-*.json")))
    assert 0.0 <= log["max_speed"] <= 0.1

    rout = tmp_path / "rain"
    result = runner.invoke(main, ["convert-rain", stack, "--config", cfg, "--out", str(rout)])
    assert result.exit_code == 0, result.output
    rain = next(rout.glob("stack-rain-*"))
    assert json.loads((rain / "manifest.json").read_text())["units"] == "mm/hr"


def _override(base, path, value):
    """A copy of the config ``base`` with the key at the dotted ``path`` set to ``value``."""
    payload = json.loads(json.dumps(base))
    *sections, key = path.split(".")
    node = payload
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    return payload


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, base, path, value, message", [
    ("simulate", SMALL_SIM, "simulation.source_scale", NAN, "expected a finite number, got nan"),
    ("simulate", SMALL_SIM, "simulation.source_amplitude", INF,
     "expected a finite number, got inf"),
    ("simulate", SMALL_SIM, "simulation.noise_beta", NAN, "expected a finite number, got nan"),
    ("simulate", STORM_SMALL, "storm.peak_dbz", NAN, "expected a finite number, got nan"),
    ("simulate", SMALL_SIM, "seed", -5, "must be >= 0, got -5"),
    ("simulate", STORM_SMALL, "storm.n_blobs", -1, "must be >= 0, got -1"),
    ("simulate", STORM_SMALL, "storm.steps", 0, "must be >= 1, got 0"),
    ("filter", SMALL_SIM, "noise.sigma2_alpha", NAN, "expected a finite number, got nan"),
    ("predict", SMALL_SIM, "noise.sigma2_beta", INF, "expected a finite number, got inf"),
    ("filter", SMALL_SIM, "noise.sigma2_obs", NAN, "expected a finite number, got nan"),
    ("velocity", STORM_SMALL, "motion.smooth_sigma", INF, "expected a finite number, got inf"),
    ("simulate", SMALL_SIM, "dataset", "stomr",
     "expected one of ['advection', 'storm'], got 'stomr'"),
    ("evaluate", SMALL_SIM, "dataset", "stomr",
     "expected one of ['advection', 'storm'], got 'stomr'"),
    ("simulate", SMALL_SIM, "velocity.mode", "estimated",
     "expected one of ['constant', 'estimate'], got 'estimated'"),
    ("filter", SMALL_SIM, "velocity.mode", "estimated",
     "expected one of ['constant', 'estimate'], got 'estimated'"),
], ids=["source-scale-nan", "source-amplitude-inf", "noise-beta-nan", "peak-dbz-nan",
        "seed-negative", "n-blobs-negative", "storm-steps-zero", "sigma2-alpha-nan",
        "sigma2-beta-inf", "sigma2-obs-nan", "smooth-sigma-inf", "dataset-simulate", "dataset-evaluate",
        "velocity-mode-simulate", "velocity-mode-filter"])
def test_config_number_out_of_range_exits_2(runner, tmp_path, command, base, path, value,
                                            message):
    args = [] if command == "simulate" else [_simulated(runner, tmp_path)[1]]
    cfg = write_config(tmp_path, _override(base, path, value))
    out = tmp_path / "o"
    result = runner.invoke(main, [command, *args, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"config.{path}" in result.output
    assert message in result.output
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command, base, path", [
    ("simulate", SMALL_SIM, "simulation.source_amplitude"),
    ("evaluate", SMALL_SIM, "simulation.source_amplitude"),
    ("simulate", STORM_SMALL, "storm.peak_dbz"),
], ids=["simulate-advection", "evaluate-advection", "simulate-storm"])
def test_a_dataset_that_overflows_exits_2(runner, tmp_path, command, base, path):
    # a finite config number near the largest float whose frames overflow: the
    # section that set it is at fault, so the run exits 2 naming it, writing nothing
    cfg = write_config(tmp_path, _override(base, path, 1.7e308))
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        result = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"config.{path.split('.')[0]}: field values must be finite" in result.output
    assert "Traceback" not in result.output
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command", ["simulate", "evaluate"])
def test_negative_seed_flag_exits_2(runner, tmp_path, command):
    out = tmp_path / "o"
    result = runner.invoke(main, [command, "--config", write_config(tmp_path), "--seed", "-3",
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "--seed" in result.output
    assert not list(out.glob("*"))


def test_simulate_seed_flag_names_and_logs_the_seed(runner, tmp_path):
    # SMALL_SIM has seed 5: a run with --seed 99 into the same directory must
    # write its own stack and run log, each saying which seed made it
    cfg, out = write_config(tmp_path), tmp_path / "o"
    for flags in ([], ["--seed", "99"]):
        result = runner.invoke(main, ["simulate", "--config", cfg, *flags, "--out", str(out)])
        assert result.exit_code == 0, result.output
    logs = {read_runlog(p)["seed"]: read_runlog(p) for p in out.glob("runlog-simulate-*.json")}
    assert set(logs) == {5, 99}
    for seed, log in logs.items():
        assert log["config"]["seed"] == seed
        stack = load_stack(log["outputs"][0])
        want = simulate_advection(RunConfig(SMALL_SIM).simulation(seed=seed)).fields
        assert all(np.array_equal(g.values, w.values) for g, w in zip(stack.frames, want))
    assert len(list(out.glob("stack-simulated-*"))) == 2


@pytest.mark.parametrize("payload, section", [(SMALL_SIM, "simulation"),
                                              (STORM_SMALL, "storm")], ids=["advection", "storm"])
def test_simulate_steps_flag_names_and_logs_the_steps(runner, tmp_path, payload, section):
    # a run with --steps 3 into the directory of a run without it must write
    # its own stack and run log, each saying how many steps made it
    cfg, out = write_config(tmp_path, payload), tmp_path / "o"
    for flags in ([], ["--steps", "3"]):
        result = runner.invoke(main, ["simulate", "--config", cfg, *flags, "--out", str(out)])
        assert result.exit_code == 0, result.output
    logs = {read_runlog(p)["steps"]: read_runlog(p) for p in out.glob("runlog-simulate-*.json")}
    assert set(logs) == {payload[section]["steps"], 3}
    for steps, log in logs.items():
        assert log["config"][section]["steps"] == steps
        stack = Path(log["outputs"][0])
        assert load_stack(stack).steps == steps
        assert len(list(stack.glob("frame_*.npy"))) == steps
    assert len(list(out.glob("stack-simulated-*"))) == 2


def test_evaluate_seed_applies_to_simulated_data_only(runner, tmp_path):
    _, stack = _simulated(runner, tmp_path)
    cfg, out = write_config(tmp_path), tmp_path / "o"
    result = runner.invoke(main, ["evaluate", stack, "--config", cfg, "--seed", "99",
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "--seed" in result.output
    assert not list(out.glob("*"))
    # without a stack, evaluate simulates the data: its run log records the seed used
    result = runner.invoke(main, ["evaluate", "--config", cfg, "--seed", "99", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert read_runlog(next(out.glob("runlog-evaluate-*.json")))["config"]["seed"] == 99


@pytest.mark.parametrize("key, value", [("smooth_sigma", -1.0), ("min_block_energy", -1e-4)])
def test_negative_motion_setting_exits_2(runner, tmp_path, key, value):
    sim = tmp_path / "storm"
    assert runner.invoke(main, ["simulate", "--config", write_config(tmp_path, STORM_SMALL),
                                "--out", str(sim)]).exit_code == 0
    stack = str(next(sim.glob("stack-simulated-*")))
    payload = json.loads(json.dumps(STORM_SMALL))
    payload["motion"][key] = value
    cfg = write_config(tmp_path, payload)
    for command in ("velocity", "filter"):
        out = tmp_path / command
        result = runner.invoke(main, [command, stack, "--config", cfg, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"config.motion: {key} must be >= 0" in result.output
        assert not list(out.glob("stack-*"))


@pytest.mark.parametrize("delta", [-1.0, 0.0])
def test_stack_with_nonpositive_delta_exits_2(runner, tmp_path, delta):
    # a hand-edited manifest: every command that reads the stack rejects it
    cfg, stack = _simulated(runner, tmp_path)
    manifest_path = Path(stack) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["delta"] = delta
    manifest_path.write_text(json.dumps(manifest))
    for command in ("filter", "predict", "evaluate", "flip"):
        out = tmp_path / f"bad-{command}"
        result = runner.invoke(main, [command, stack, "--config", cfg, "--out", str(out)])
        assert result.exit_code == 2, (command, result.output)
        assert f"delta must be finite and positive, got {delta}" in result.output
        assert not list(out.glob("*"))


def test_simulate_rejects_zero_steps(runner, tmp_path):
    # --steps 0 must not fall back to the storm config's own step count
    cfg = write_config(tmp_path, STORM_SMALL)
    out = tmp_path / "o"
    result = runner.invoke(main, ["simulate", "--config", cfg, "--steps", "0", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "--steps" in result.output
    assert not list(out.glob("stack-simulated-*"))


FIT_SIM = {**{k: v for k, v in SMALL_SIM.items() if k != "noise"},
           "fit": {"enabled": True, "budget": 12}}


@pytest.mark.parametrize("command, flags, message", [
    ("filter", ["--k", "0"], "--k"),
    ("predict", ["--horizon", "0"], "--horizon"),
    ("filter", ["--steps", "1"], "at least 3 training frames"),
    ("fit", ["--steps", "2"], "at least 3 training frames"),
    ("predict", ["--steps", "100"], "exceeds the 8 frames"),
    # a flipped model keeps k // 4 original-domain coefficients
    ("filter", ["--k", "3", "--flip", "true"], "'flip3': k must be at least 4 when flipped"),
])
def test_bad_model_flags_exit_2(runner, tmp_path, command, flags, message):
    cfg = write_config(tmp_path, FIT_SIM)
    sim = tmp_path / "sim"
    assert runner.invoke(main, ["simulate", "--config", cfg, "--out", str(sim)]).exit_code == 0
    stack = str(next(sim.glob("stack-simulated-*")))
    result = runner.invoke(main, [command, stack, "--config", cfg,
                                  "--out", str(tmp_path / "o"), *flags])
    assert result.exit_code == 2, result.output
    assert message in result.output


def test_fit_reports_the_noise_that_filter_uses(runner, tmp_path):
    # estimated velocity: both commands must fit the model with shear diffusivity
    payload = {**STORM_SMALL, "truncation": {"k": 25},
               "fit": {"enabled": True, "budget": 20}}
    cfg = write_config(tmp_path, payload)
    sim = tmp_path / "storm"
    assert runner.invoke(main, ["simulate", "--config", cfg, "--out", str(sim)]).exit_code == 0
    stack = str(next(sim.glob("stack-simulated-*")))
    for command in ("fit", "filter"):
        result = runner.invoke(main, [command, stack, "--config", cfg,
                                      "--out", str(tmp_path / command)])
        assert result.exit_code == 0, result.output
    noise = json.loads(next((tmp_path / "fit").glob("noise-*.json")).read_text())
    log = read_runlog(next((tmp_path / "filter").glob("runlog-filter-*.json")))
    for key in ("sigma2_alpha", "sigma2_beta", "loglik"):
        assert noise[key] == log[key], key


def _second_model(**entry):
    """A comparison whose second model is ``entry``."""
    return {"models": [{"label": "direct16", "k": 16}, entry]}


MODEL_1 = "config.comparison.models[1]"


@pytest.mark.parametrize("comparison, message", [
    ({"train_steps": 1}, "config.comparison: train_steps"),
    ({"train_steps": 2}, "config.comparison: train_steps"),  # the fit needs 3
    ({"eval_times": [4, 8]}, "config.comparison: eval_times"),  # the stack has 8 frames
    ({"eval_times": []}, "config.comparison: eval_times"),
    ({"eval_times": [-1, 4]}, "config.comparison: eval_times"),
    ({"eval_times": [5, 3, 5]}, "config.comparison: eval_times must be distinct, repeated: 5"),
    ({"models": [{"label": "a", "k": 4}, {"label": "a", "k": 8}]},
     "config.comparison: model labels must be unique"),
    ({"models": []}, "config.comparison: models must list at least one model"),
    (_second_model(label="flip64", k=64, flip="false"), f"{MODEL_1}.flip: expected"),
    (_second_model(label="flip64", k=64, flip=1), f"{MODEL_1}.flip: expected"),
    (_second_model(label="w16", k=16, window="true"), f"{MODEL_1}.window: expected"),
    (_second_model(label="d100", k=100.5), f"{MODEL_1}.k: expected"),
    (_second_model(label="d1", k=True), f"{MODEL_1}.k: expected"),
    (_second_model(label="d,16", k=16), f"{MODEL_1}.label: must hold no comma or line break"),
    (_second_model(label="d\n16", k=16), f"{MODEL_1}.label: must hold no comma or line break"),
    (_second_model(label=16, k=16), f"{MODEL_1}.label: expected"),
    (_second_model(k=16), f"{MODEL_1}: missing label"),
], ids=["train-1", "train-2-fit", "beyond-stack", "empty", "negative", "repeated-time",
        "repeated-label", "no-models",
        "flip-string", "flip-int", "window-string", "k-float", "k-bool", "label-comma",
        "label-newline", "label-int", "label-missing"])
def test_evaluate_bad_comparison_exits_2(runner, tmp_path, comparison, message):
    payload = json.loads(json.dumps(FIT_SIM))
    payload["comparison"].update(comparison)
    out = tmp_path / "o"
    result = runner.invoke(main, ["evaluate", "--config", write_config(tmp_path, payload),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not list(out.glob("report-*.csv"))


def test_evaluate_rejects_too_small_k(runner, tmp_path):
    payload = json.loads(json.dumps(SMALL_SIM))
    payload["comparison"]["models"] = [{"label": "direct0", "k": 0}]
    out = tmp_path / "e"
    result = runner.invoke(main, ["evaluate", "--config", write_config(tmp_path, payload),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "config.comparison.models[0]: model 'direct0': k must be at least 1" in result.output
    assert not list(out.glob("report-*.csv"))


def test_fit_diagnostics_reach_the_run_logs(runner, tmp_path):
    cfg = write_config(tmp_path, FIT_SIM)
    sim = tmp_path / "sim"
    assert runner.invoke(main, ["simulate", "--config", cfg, "--out", str(sim)]).exit_code == 0
    stack = str(next(sim.glob("stack-simulated-*")))
    for command in ("evaluate", "filter", "predict", "fit"):
        result = runner.invoke(main, [command, stack, "--config", cfg,
                                      "--out", str(tmp_path / command)])
        assert result.exit_code == 0, result.output
    log = read_runlog(next((tmp_path / "evaluate").glob("runlog-*.json")))
    assert set(log["models"]) == {"direct16", "flip64"}
    for entry in log["models"].values():
        assert entry["n_evaluations"] <= 12
        assert isinstance(entry["converged"], bool)
        assert isinstance(entry["ratio_at_bound"], bool)
        assert entry["ratio"] == pytest.approx(entry["sigma2_beta"] / entry["sigma2_alpha"])
        assert np.isfinite(entry["loglik"])
        assert entry["min_pivot"] > 0
    for command in ("filter", "predict"):
        log = read_runlog(next((tmp_path / command).glob("runlog-*.json")))
        assert isinstance(log["converged"], bool) and 2 <= log["n_evaluations"] <= 12
        assert log["min_pivot"] > 0
    # fit records the same fit as filter: the same model over the same frames
    noise = json.loads(next((tmp_path / "fit").glob("noise-*.json")).read_text())
    fit_log = read_runlog(next((tmp_path / "fit").glob("runlog-fit-*.json")))
    filter_log = read_runlog(next((tmp_path / "filter").glob("runlog-*.json")))
    for key in ("ratio", "ratio_at_bound", "n_scalars", "converged", "n_evaluations"):
        assert noise[key] == fit_log[key] == filter_log[key], key
    assert fit_log["min_pivot"] == filter_log["min_pivot"]  # the fit's last pass
    assert isinstance(noise["ratio_at_bound"], bool)
    assert noise["ratio"] == pytest.approx(noise["sigma2_beta"] / noise["sigma2_alpha"])
    assert noise["n_scalars"] == 15 * 7  # direct16 keeps 15 coefficients; 7 updates


EMPTY_BOX = {"x_range": [0.51, 0.52], "y_range": [0.51, 0.52]}  # between grid points


@pytest.mark.parametrize("route", ["config", "flag"])
def test_evaluate_rejects_a_region_without_grid_points_before_any_model(
        runner, tmp_path, monkeypatch, route):
    def no_models(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr("mirrorspec.cli.run_comparison", no_models)
    payload = {**SMALL_SIM, "grid": {"n1": 32, "n2": 32}}
    flags = []
    if route == "config":
        payload["regions"] = {"whole": {"x_range": [0.0, 0.999], "y_range": [0.0, 0.999]},
                              "empty": EMPTY_BOX}
        name = "empty"
    else:
        flags = ["--region", ",".join(map(str, EMPTY_BOX["x_range"] + EMPTY_BOX["y_range"]))]
        name = "cli"
    out = tmp_path / "e"
    result = runner.invoke(main, ["evaluate", "--config", write_config(tmp_path, payload),
                                  "--out", str(out), *flags])
    assert result.exit_code == 2, result.output
    assert f"region '{name}' holds no point of the 32 x 32 grid" in result.output
    assert not list(out.glob("report-*.csv"))


@pytest.mark.parametrize("command", ["filter", "predict"])
def test_a_pass_without_updates_logs_strict_json(runner, tmp_path, command):
    # one training frame: no update runs, so there is no pivot to record
    cfg, stack = _simulated(runner, tmp_path)
    out = tmp_path / command
    result = runner.invoke(main, [command, stack, "--config", cfg, "--out", str(out),
                                  "--steps", "1", "--k", "64", "--flip", "true"])
    assert result.exit_code == 0, result.output
    log = read_runlog(next(out.glob(f"runlog-{command}-*.json")))
    assert log["min_pivot"] is None
    assert log["loglik"] == 0.0 and 0 <= log["leakage_fraction"] < 1


RUN_LOG_KEYS = {"command", "config_hash", "config", "outputs", "wall_time_s", "versions"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_command_records_the_model_that_evaluate_records(runner, tmp_path):
    # a budget the fits end within, so that each is a converged one
    cfg = write_config(tmp_path, {**FIT_SIM, "fit": {"enabled": True, "budget": 40}})
    sim = tmp_path / "sim"
    assert runner.invoke(main, ["simulate", "--config", cfg, "--out", str(sim)]).exit_code == 0
    stack = str(next(sim.glob("stack-simulated-*")))
    result = runner.invoke(main, ["evaluate", stack, "--config", cfg,
                                  "--out", str(tmp_path / "evaluate")])
    assert result.exit_code == 0, result.output
    models = read_runlog(next((tmp_path / "evaluate").glob("runlog-*.json")))["models"]
    assert "leakage_fraction" in models["flip64"]
    comparison = FIT_SIM["comparison"]
    for spec in comparison["models"]:
        label = spec["label"]
        flags = ["--k", str(spec["k"]), "--flip", str(spec.get("flip", False)).lower(),
                 "--steps", str(comparison["train_steps"])]
        for command in ("fit", "filter", "predict"):
            out = tmp_path / f"{command}-{label}"
            result = runner.invoke(main, [command, stack, "--config", cfg,
                                          "--out", str(out), *flags])
            assert result.exit_code == 0, result.output
            log = read_runlog(next(out.glob(f"runlog-{command}-*.json")))
            assert log["model"] == label
            record = {k: v for k, v in log.items() if k not in RUN_LOG_KEYS | {"model", "horizon"}}
            assert record == models[label], (command, label)
        noise = json.loads(next((tmp_path / f"fit-{label}").glob("noise-*.json")).read_text())
        assert noise == {"model": label, **models[label]}


# 6 frames of 16x16 near 1e160: the squared innovations overflow every filter pass
HUGE = {"grid": {"n1": 16, "n2": 16}, "truncation": {"k": 16}, "fit": {"budget": 12},
        "comparison": {"models": [{"label": "direct16", "k": 16},
                                  {"label": "flip64", "k": 64, "flip": True}],
                       "train_steps": 5, "eval_times": [4, 5]}}
FLIP64 = ["--k", "64", "--flip", "true"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("noise", ["fixed", "fitted"])
@pytest.mark.parametrize("command, flags", [
    ("filter", []), ("filter", FLIP64), ("fit", []), ("fit", FLIP64),
    ("predict", []), ("predict", FLIP64), ("evaluate", []),
], ids=["filter", "filter-flip", "fit", "fit-flip", "predict", "predict-flip", "evaluate"])
def test_a_likelihood_that_overflows_exits_3_and_writes_nothing(runner, tmp_path, command,
                                                                 flags, noise):
    # fixed noise: kf_filter finds the pass's log-likelihood not finite; a fit
    # finds no finite point on its first grid (fit always fits)
    payload = HUGE if noise == "fitted" else {**HUGE, "noise": {"sigma2_alpha": 1e-3,
                                                                "sigma2_beta": 1e-3}}
    cfg = write_config(tmp_path, payload)
    g = GridSpec(16, 16)
    frames = simulate_advection(SimulationConfig(grid=g, steps=6, seed=3)).fields
    stack = save_stack(GridStack.from_fields([Field(g, f.values * 1e160) for f in frames]),
                       tmp_path / "stack")
    out = tmp_path / "o"
    result = runner.invoke(main, [command, str(stack), "--config", cfg, "--out", str(out),
                                  *flags])
    assert result.exit_code == 3, result.output
    assert f"error: {command} failed: " in result.output and "not finite" in result.output
    assert not list(out.glob("*"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent", [140, 150])
@pytest.mark.parametrize("flags", [[], FLIP64], ids=["direct", "flip"])
def test_a_fit_of_huge_frames_names_their_magnitude(runner, tmp_path, flags, exponent):
    # the fit's grid finds finite points, but in the last pass, at the fitted
    # scale, a channel's squared covariance overflows and its pivot is NaN
    cfg = write_config(tmp_path, HUGE)
    g = GridSpec(16, 16)
    frames = simulate_advection(SimulationConfig(grid=g, steps=6, seed=3)).fields
    stack = save_stack(GridStack.from_fields([Field(g, f.values * 10.0**exponent)
                                              for f in frames]), tmp_path / "stack")
    out = tmp_path / "o"
    result = runner.invoke(main, ["fit", str(stack), "--config", cfg, "--out", str(out),
                                  *flags])
    assert result.exit_code == 3, result.output
    assert "error: fit failed: innovation covariance is not positive definite" in result.output
    assert re.search(rf"largest \|observation\| \d\.\d+e\+{exponent}\)", result.output), \
        result.output
    assert not list(out.glob("*"))


def test_models_fitted_and_filtered_into_one_out_keep_their_own_files(runner, tmp_path):
    cfg = write_config(tmp_path, FIT_SIM)
    sim = tmp_path / "sim"
    assert runner.invoke(main, ["simulate", "--config", cfg, "--out", str(sim)]).exit_code == 0
    stack = str(next(sim.glob("stack-simulated-*")))
    out = tmp_path / "o"
    for command in ("fit", "filter"):
        for flags in (["--k", "16"], FLIP64):
            result = runner.invoke(main, [command, stack, "--config", cfg, "--out", str(out),
                                          *flags])
            assert result.exit_code == 0, result.output
    digest = RunConfig.load(cfg).hash
    for stem in ("noise", "runlog-fit", "runlog-filter"):
        logs = {label: json.loads((out / f"{stem}-{label}-{digest}.json").read_text())
                for label in ("direct16", "flip64")}
        assert [log["model"] for log in logs.values()] == ["direct16", "flip64"], stem
    assert len(list(out.glob("stack-filtered-*"))) == 2


def test_evaluate_region_flag_that_clashes_with_a_config_region_exits_2(runner, tmp_path):
    # the flag's region is named cli: one of the config's would be replaced
    payload = {**SMALL_SIM, "regions": {"cli": {"x_range": [0.0, 0.5], "y_range": [0.0, 0.5]}}}
    out = tmp_path / "e"
    result = runner.invoke(main, ["evaluate", "--config", write_config(tmp_path, payload),
                                  "--out", str(out), "--region", "0.5,0.9,0.5,0.9"])
    assert result.exit_code == 2, result.output
    assert "--region adds the region 'cli', which config.regions already names" in result.output
    assert not list(out.glob("*"))
