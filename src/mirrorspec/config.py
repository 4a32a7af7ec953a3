"""Run configuration: one validated JSON document drives every pipeline.

Unknown keys, numbers that are not finite and names outside their choice
(``dataset`` is ``advection`` or ``storm``, ``velocity.mode`` is ``constant``
or ``estimate``) are rejected at every level so typos fail before any compute
starts.  Each default lives in the code that takes it: ``grid``, ``seed`` and
``simulation`` in :class:`~mirrorspec.simulate.SimulationConfig`, ``motion``
in :class:`~mirrorspec.motion.MotionConfig`, ``flip`` in
:data:`~mirrorspec.grid.DEFAULT_FLIP`, ``fit.budget`` in
:data:`~mirrorspec.kalman.FIT_BUDGET` and ``storm`` in the signature of
:func:`~mirrorspec.simulate.synthetic_storm_stack`; ``velocity.value`` is the
drift the advection dataset simulates.  The dataset sections reach those
consumers as they are.  A short hash of the canonical document
tags every output file, making runs reproducible and collision-evident.  A few
named profiles ship with the package for the standard demos; anything else is
a path to a JSON file.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import json
import math
from dataclasses import asdict
from pathlib import Path

from .evaluate import ModelSpec, Region
from .grid import DEFAULT_FLIP, FlipVariant, GridSpec
from .kalman import FIT_BUDGET, MIN_FIT_BUDGET, NoiseParams
from .motion import MotionConfig
from .simulate import SimulationConfig, synthetic_storm_stack

__all__ = ["ConfigError", "RunConfig", "PROFILES"]


class ConfigError(ValueError):
    """Invalid run configuration."""


_SCHEMA = {
    "dataset": {"advection", "storm"},  # a set is a choice of names
    "seed": int,
    "units": str,
    "grid": {"n1": int, "n2": int},
    "simulation": {
        "steps": int,
        "delta": (int, float),
        "velocity": list,
        "source_center": list,
        "source_scale": (int, float),
        "source_amplitude": (int, float),
        "noise_alpha": (int, float),
        "noise_beta": (int, float),
        "noise_modes": (int, type(None)),
    },
    "storm": {"steps": int, "n_blobs": int, "peak_dbz": (int, float)},
    "flip": {"x_anchor": str, "y_anchor": str},  # the layout the flip command writes
    "truncation": {"k": int},
    "noise": {
        "sigma2_alpha": (int, float),
        "sigma2_beta": (int, float),
        "sigma2_obs": (int, float),
    },
    "fit": {"enabled": bool, "budget": int},
    "motion": {
        "block": int,
        "overlap": (int, float),
        "search_radius": int,
        "min_block_energy": (int, float),
        "smooth_sigma": (int, float),
    },
    "velocity": {"mode": {"constant", "estimate"}, "value": list},
    "regions": None,  # free-form mapping name -> {x_range, y_range}
    "comparison": {"models": list, "train_steps": int, "eval_times": list},
    "render": {"scale": (list, str)},
}
# one entry of comparison.models; label and k are required
_MODEL_SCHEMA = {"label": str, "k": int, "flip": bool, "window": bool}


def _as_json(obj) -> dict:
    """The fields of a dataclass as JSON values: tuples become lists."""
    return json.loads(json.dumps(asdict(obj)))


# every default but these few is read from the class or function that takes it
_SIMULATION = _as_json(SimulationConfig())
_DEFAULTS = {
    "dataset": "advection",
    "seed": _SIMULATION.pop("seed"),
    "units": "dimensionless",
    "grid": _SIMULATION.pop("grid"),
    "simulation": _SIMULATION,
    "flip": _as_json(DEFAULT_FLIP),
    "truncation": {"k": 100},
    "fit": {"enabled": True, "budget": FIT_BUDGET},
    "motion": _as_json(MotionConfig()),
    # the drift the advection dataset simulates, so a model knows its physics
    "velocity": {"mode": "constant", "value": list(_SIMULATION["velocity"])},
    "regions": {"whole": {"x_range": [0.0, 0.999], "y_range": [0.0, 0.999]}},
    "render": {"scale": "auto"},
}


def _validate(node, schema, path="config"):
    if schema is None:
        return
    if isinstance(schema, dict):
        if not isinstance(node, dict):
            raise ConfigError(f"{path}: expected an object")
        for key, value in node.items():
            if key not in schema:
                raise ConfigError(f"{path}: unknown key {key!r}")
            _validate(value, schema[key], f"{path}.{key}")
    elif isinstance(schema, set):
        if not (isinstance(node, str) and node in schema):
            raise ConfigError(f"{path}: expected one of {sorted(schema)}, got {node!r}")
    # a JSON true or false is a bool, never a number
    elif not isinstance(node, schema) or (isinstance(node, bool) and schema is not bool):
        raise ConfigError(f"{path}: expected {schema}, got {type(node).__name__}")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"{path}: expected a finite number, got {node}")


def _check_pair(value, path: str, expected: str = "two finite numbers") -> None:
    """Raise ConfigError unless ``value`` is a list of two finite numbers."""
    if not (isinstance(value, list) and len(value) == 2 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in value)):
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")


def _merge(base, override):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


class RunConfig:
    """Validated configuration document with typed accessors."""

    def __init__(self, data: dict):
        _validate(data, _SCHEMA)
        if "regions" in data:
            for name, spec in data["regions"].items():
                if set(spec) != {"x_range", "y_range"}:
                    raise ConfigError(f"config.regions.{name}: need exactly x_range and y_range")
        self.data = _merge(_DEFAULTS, data)
        budget = self.data["fit"]["budget"]
        if budget < MIN_FIT_BUDGET:
            raise ConfigError(f"config.fit.budget must be at least {MIN_FIT_BUDGET}, got {budget}")
        for path, count in (("seed", self.data["seed"]),
                            ("storm.n_blobs", self.data.get("storm", {}).get("n_blobs", 0))):
            if count < 0:
                raise ConfigError(f"config.{path} must be >= 0, got {count}")
        for section, key in (("velocity", "value"), ("simulation", "velocity"),
                             ("simulation", "source_center")):
            _check_pair(self.data[section][key], f"config.{section}.{key}")
        scale = self.data["render"]["scale"]
        if scale != "auto":
            _check_pair(scale, "config.render.scale", "'auto' or two finite numbers")
            if not scale[0] < scale[1]:
                raise ConfigError(f"config.render.scale: expected min < max, got {scale!r}")
        self.flip_variant()
        canon = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        self.hash = hashlib.sha256(canon.encode()).hexdigest()[:12]

    @classmethod
    def load(cls, source: str) -> "RunConfig":
        """Load a named profile or a JSON file path."""
        if source in PROFILES:
            return cls(copy.deepcopy(PROFILES[source]))
        path = Path(source)
        if not path.exists():
            raise ConfigError(
                f"config {source!r} is neither a profile ({', '.join(sorted(PROFILES))}) "
                "nor an existing file"
            )
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        return cls(data)

    def grid(self) -> GridSpec:
        g = self.data["grid"]
        try:
            return GridSpec(g["n1"], g["n2"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config.grid: {exc}") from exc

    def simulation(self, seed=None) -> SimulationConfig:
        """The ``simulation`` section as it is, but for JSON's lists as tuples
        and its whole numbers as floats where the schema takes any number."""
        kw = {key: tuple(v) if isinstance(v, list) else
              float(v) if _SCHEMA["simulation"][key] == (int, float) else v
              for key, v in self.data["simulation"].items()}
        kw["seed"] = self.data["seed"] if seed is None else seed
        try:
            return SimulationConfig(grid=self.grid(), **kw)
        except ValueError as exc:
            raise ConfigError(f"config.simulation: {exc}") from exc

    def flip_variant(self) -> FlipVariant:
        """The anchors of the layout the ``flip`` command writes (no model reads them)."""
        f = self.data["flip"]
        try:
            return FlipVariant(f["x_anchor"], f["y_anchor"])
        except ValueError as exc:
            raise ConfigError(f"config.flip: {exc}") from exc

    def motion(self) -> MotionConfig:
        m = self.data["motion"]
        try:
            return MotionConfig(**m)
        except ValueError as exc:
            raise ConfigError(f"config.motion: {exc}") from exc

    def noise(self) -> NoiseParams | None:
        """Noise variances for a run: the configured ones, else 1e-3 for both
        when the fit is disabled, else None, meaning the run fits them."""
        n = self.data.get("noise")
        if n is None:
            return None if self.data["fit"]["enabled"] else NoiseParams(1e-3, 1e-3)
        try:
            return NoiseParams(**{key: float(v) for key, v in n.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config.noise: {exc}") from exc

    def regions(self) -> dict[str, Region]:
        out = {}
        for name, spec in self.data["regions"].items():
            try:
                out[name] = Region(tuple(spec["x_range"]), tuple(spec["y_range"]))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"config.regions.{name}: {exc}") from exc
        return out

    def model_specs(self) -> list[ModelSpec]:
        comp = self.data.get("comparison")
        if comp is None:
            raise ConfigError("config.comparison is required for this command")
        specs = []
        for i, m in enumerate(comp["models"]):
            path = f"config.comparison.models[{i}]"
            _validate(m, _MODEL_SCHEMA, path)
            missing = sorted({"label", "k"} - set(m))
            if missing:
                raise ConfigError(f"{path}: missing {', '.join(missing)}")
            # a comma or line break in a label would shift the columns of the report CSV
            if set(m["label"]) & set(",\r\n"):
                raise ConfigError(f"{path}.label: must hold no comma or line break, "
                                  f"got {m['label']!r}")
            try:
                specs.append(ModelSpec(**m))
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
        return specs


_STORM = {k: p.default for k, p in inspect.signature(synthetic_storm_stack).parameters.items()}
PROFILES = {
    # 30-step drifting-source benchmark on a 100x100 grid
    "advection": {
        "dataset": "advection",
        "comparison": {
            "models": [
                {"label": "direct100", "k": 100},
                {"label": "flip400", "k": 400, "flip": True},
            ],
            "train_steps": 20,
            "eval_times": [11, 12, 13, 14, 15, 16, 17, 18, 19, 20],
        },
    },
    # whole-domain MAE of windowed models against the mirrored model
    "window-table": {
        "dataset": "advection",
        "comparison": {
            "models": [
                {"label": "window100", "k": 100, "window": True},
                {"label": "window196", "k": 196, "window": True},
                {"label": "window400", "k": 400, "window": True},
                {"label": "flip400", "k": 400, "flip": True},
            ],
            "train_steps": 20,
            "eval_times": [15, 16, 17, 18, 19, 20],
        },
    },
    # quiet-strip MAE: ringing of direct truncation vs the mirrored model
    "gibbs-strip": {
        "dataset": "advection",
        "regions": {
            "whole": {"x_range": [0.0, 0.999], "y_range": [0.0, 0.999]},
            "top-strip": {"x_range": [0.0, 0.99], "y_range": [0.95, 0.99]},
        },
        "comparison": {
            "models": [
                {"label": "direct100", "k": 100},
                {"label": "direct196", "k": 196},
                {"label": "direct400", "k": 400},
                {"label": "flip400", "k": 400, "flip": True},
            ],
            "train_steps": 20,
            "eval_times": [11, 12, 13, 14, 15, 16, 17, 18, 19, 20],
        },
    },
    # synthetic storm entering from the top-left corner at the defaults of
    # synthetic_storm_stack, radar-style pipeline
    "storm": {
        "dataset": "storm",
        "units": "dBZ",
        "seed": _STORM["seed"],
        "storm": {key: _STORM[key] for key in _SCHEMA["storm"]},
        "velocity": {"mode": "estimate", "value": [0.0, 0.0]},
        "truncation": {"k": 50},
        "regions": {
            "whole": {"x_range": [0.0, 0.999], "y_range": [0.0, 0.999]},
            "quiet-quadrant": {"x_range": [0.6, 0.99], "y_range": [0.0, 0.4]},
        },
        "comparison": {
            "models": [
                {"label": "direct50", "k": 50},
                {"label": "flip200", "k": 200, "flip": True},
            ],
            "train_steps": 8,
            "eval_times": [5, 6, 7, 8, 9],
        },
    },
}
