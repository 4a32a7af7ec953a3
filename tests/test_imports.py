"""No command loads SciPy, and a mirrored ``evaluate`` loads no ``numpy.ma``.

SciPy is a test dependency only: the tests hold the NumPy code to it as an
oracle, so this process has it loaded already.  Each case runs the CLI in a
fresh interpreter and lists the ``scipy`` (and ``numpy.ma``) modules loaded
there, or blocks SciPy in the child so that any import of it raises.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mirrorspec.config import RunConfig
from mirrorspec.grid import GridSpec
from mirrorspec.gridstack import GridStack, save_stack
from mirrorspec.simulate import simulate_advection, synthetic_storm_stack
from test_cli import read_runlog

SRC = Path(__file__).resolve().parents[1] / "src"

# runs the CLI with the given arguments (if any), then prints the loaded
# scipy and numpy.ma modules as the last line of standard output
SCRIPT = """
import json, sys
import mirrorspec, mirrorspec.cli
if sys.argv[1:]:
    mirrorspec.cli.main(sys.argv[1:], standalone_mode=False)
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])))
"""


# runs ``python -m mirrorspec.cli`` with SciPy blocked: a ``None`` entry in
# sys.modules makes any import of scipy or of a subpackage raise ImportError
BLOCKED = """
import runpy, sys
sys.modules["scipy"] = None
runpy.run_module("mirrorspec.cli", run_name="__main__", alter_sys=True)
"""


def run_child(script: str, *cli_args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", script, *cli_args], env=env,
                          capture_output=True, text=True)


def loaded_modules(*cli_args) -> set[str]:
    """The scipy and numpy.ma modules that a CLI run loads."""
    proc = run_child(SCRIPT, *cli_args)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def scipy_modules(*cli_args) -> set[str]:
    return {m for m in loaded_modules(*cli_args) if m.split(".")[0] == "scipy"}


@pytest.fixture
def storm_stack(tmp_path):
    frames = synthetic_storm_stack(GridSpec(48, 48), steps=3, seed=3, n_blobs=2)
    stack = GridStack.from_fields(frames, delta=1.0, units="dBZ", config_hash="test")
    return str(save_stack(stack, tmp_path / "stack"))


def test_import_loads_no_scipy():
    assert scipy_modules() == set()


@pytest.mark.parametrize("command", ["flip", "render", "convert-rain", "velocity"])
def test_command_loads_no_scipy(tmp_path, storm_stack, command):
    # velocity smooths and interpolates its block vectors with small matrices
    out = tmp_path / "out"
    assert scipy_modules(command, storm_stack, "--config", "storm", "--out", str(out)) == set()
    log = read_runlog(next(out.glob(f"runlog-{command}-*.json")))
    assert "scipy" not in log["versions"]


def test_evaluate_on_an_estimated_velocity_loads_no_scipy(tmp_path, storm_stack):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": "storm", "units": "dBZ", "grid": {"n1": 48, "n2": 48},
        "velocity": {"mode": "estimate", "value": [0.0, 0.0]},
        "noise": {"sigma2_alpha": 0.002, "sigma2_beta": 0.0005, "sigma2_obs": 0.0},
        "comparison": {"models": [{"label": "direct16", "k": 16},
                                  {"label": "flip64", "k": 64, "flip": True}],
                       "train_steps": 2, "eval_times": [1, 2]},
    }))
    out = tmp_path / "out"
    # an estimated velocity makes a dense generator, exponentiated by the
    # NumPy Pade approximant in dynamics.matrix_exp
    assert scipy_modules("evaluate", storm_stack, "--config", str(config),
                         "--out", str(out)) == set()
    log = read_runlog(next(out.glob("runlog-evaluate-*.json")))
    assert "scipy" not in log["versions"]


def test_storm_profile_runs_with_scipy_blocked(tmp_path):
    # the README radar chain, each command a process in which SciPy cannot be imported
    def run(*args):
        proc = run_child(BLOCKED, *args, "--config", "storm")
        assert proc.returncode == 0, (args[0], proc.stderr)

    run("simulate", "--out", str(tmp_path / "sim"))
    stack = str(next((tmp_path / "sim").glob("stack-simulated-*")))
    run("velocity", stack, "--out", str(tmp_path / "vel"))
    run("evaluate", stack, "--out", str(tmp_path / "eval"))
    log = read_runlog(next((tmp_path / "eval").glob("runlog-evaluate-*.json")))
    assert set(log["models"]) == {"direct50", "flip200"}
    assert "scipy" not in log["versions"]


def constant_velocity_stack(tmp_path, **config):
    """A config of constant velocity on a 16x16 grid, with ``config`` on top,
    and a stack simulated from it."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"n1": 16, "n2": 16},
        "simulation": {"steps": 6},
        "velocity": {"mode": "constant", "value": [0.01, 0.0]},
        **config,
    }))
    frames = simulate_advection(RunConfig.load(str(path)).simulation()).fields
    stack = save_stack(GridStack.from_fields(frames, config_hash="test"), tmp_path / "stack")
    return str(path), str(stack)


@pytest.mark.parametrize("command,flip", [
    ("filter", False), ("predict", False), ("filter", True), ("predict", True),
], ids=["filter", "predict", "filter-mirrored", "predict-mirrored"])
def test_constant_velocity_filter_with_fixed_noise_loads_no_scipy(tmp_path, command, flip):
    # a model of constant velocity, direct or mirrored, runs its closed-form
    # channels: no Galerkin assembly and no expm; the mirrored band is a
    # matrix product
    config, stack = constant_velocity_stack(tmp_path, noise={
        "sigma2_alpha": 0.002, "sigma2_beta": 0.0005, "sigma2_obs": 0.0})
    out = tmp_path / "out"
    loaded = scipy_modules(command, stack, "--config", config, "--k", "36",
                           "--flip", str(flip).lower(), "--out", str(out))
    assert loaded == set()
    log = read_runlog(next(out.glob(f"runlog-{command}-*.json")))
    assert "scipy" not in log["versions"]


def test_evaluate_with_the_fit_loads_no_scipy(tmp_path):
    # the noise fit is a grid search in kalman, not scipy.optimize; nor does a
    # mirrored model load numpy.ma (a plain np.unique or np.median would)
    comparison = {"models": [{"label": "direct16", "k": 16},
                             {"label": "flip36", "k": 36, "flip": True}],
                  "train_steps": 4, "eval_times": [4, 5]}
    config, stack = constant_velocity_stack(tmp_path, fit={"enabled": True, "budget": 6},
                                            comparison=comparison)
    out = tmp_path / "out"
    assert loaded_modules("evaluate", stack, "--config", config, "--out", str(out)) == set()
    log = read_runlog(next(out.glob("runlog-evaluate-*.json")))
    assert "scipy" not in log["versions"]
    assert all(m["n_evaluations"] > 1 for m in log["models"].values())
