"""Which SciPy modules each command loads.

SciPy is imported inside the functions that call it, so importing the CLI
loads none of it.  Each case runs in a fresh interpreter, because this
process has SciPy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

from mirrorspec.config import RunConfig
from mirrorspec.grid import GridSpec
from mirrorspec.gridstack import GridStack, save_stack
from mirrorspec.simulate import simulate_advection, synthetic_storm_stack

SRC = Path(__file__).resolve().parents[1] / "src"

# runs the CLI with the given arguments (if any), then prints the loaded
# scipy modules as the last line of standard output
SCRIPT = """
import json, sys
import mirrorspec, mirrorspec.cli
if sys.argv[1:]:
    mirrorspec.cli.main(sys.argv[1:], standalone_mode=False)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules(*cli_args) -> set[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *cli_args], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture
def storm_stack(tmp_path):
    frames = synthetic_storm_stack(GridSpec(48, 48), steps=3, seed=3, n_blobs=2)
    stack = GridStack.from_fields(frames, delta=1.0, units="dBZ", config_hash="test")
    return str(save_stack(stack, tmp_path / "stack"))


def test_import_loads_no_scipy():
    assert scipy_modules() == set()


@pytest.mark.parametrize("command", ["flip", "render", "convert-rain"])
def test_command_loads_no_scipy(tmp_path, storm_stack, command):
    out = tmp_path / "out"
    assert scipy_modules(command, storm_stack, "--config", "storm", "--out", str(out)) == set()
    log = json.loads(next(out.glob(f"runlog-{command}-*.json")).read_text())
    assert "scipy" not in log["versions"]


def test_velocity_loads_ndimage_only(tmp_path, storm_stack):
    loaded = scipy_modules("velocity", storm_stack, "--config", "storm",
                           "--out", str(tmp_path / "out"))
    assert "scipy.ndimage" in loaded
    assert "scipy.optimize" not in loaded


def test_evaluate_records_the_scipy_version(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "grid": {"n1": 16, "n2": 16},
        "simulation": {"steps": 6},
        "noise": {"sigma2_alpha": 0.002, "sigma2_beta": 0.0005, "sigma2_obs": 0.0},
        "fit": {"enabled": False, "budget": 10},
        "comparison": {"models": [{"label": "flip36", "k": 36, "flip": True}],
                       "train_steps": 4, "eval_times": [4, 5]},
    }))
    out = tmp_path / "out"
    assert "scipy.linalg" in scipy_modules("evaluate", "--config", str(config), "--out", str(out))
    log = json.loads(next(out.glob("runlog-evaluate-*.json")).read_text())
    assert log["versions"]["scipy"] == scipy.__version__


@pytest.mark.parametrize("command", ["filter", "predict"])
def test_constant_velocity_filter_with_fixed_noise_loads_no_scipy(tmp_path, command):
    # a direct model of constant velocity runs its closed-form pair blocks:
    # no Galerkin assembly, no expm and no scipy.linalg in the filter
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "grid": {"n1": 16, "n2": 16},
        "simulation": {"steps": 6},
        "velocity": {"mode": "constant", "value": [0.01, 0.0]},
        "noise": {"sigma2_alpha": 0.002, "sigma2_beta": 0.0005, "sigma2_obs": 0.0},
    }))
    frames = simulate_advection(RunConfig.load(str(config)).simulation()).fields
    stack = save_stack(GridStack.from_fields(frames, config_hash="test"), tmp_path / "stack")
    out = tmp_path / "out"
    assert scipy_modules(command, str(stack), "--config", str(config), "--k", "36",
                         "--out", str(out)) == set()
    log = json.loads(next(out.glob(f"runlog-{command}-*.json")).read_text())
    assert "scipy" not in log["versions"]
