"""What the benchmark (``perfbench/``) reads of the package.

The tracer wraps functions and methods by name and reads fields of their
results, and the workloads import names and build configs; a rename would
otherwise show only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from mirrorspec.config import RunConfig
from mirrorspec.evaluate import ModelSpec, build_pipeline
from mirrorspec.galerkin import DiffusivityField, VelocityField, assemble_transition
from mirrorspec.grid import GridSpec
from mirrorspec.kalman import NoiseParams, default_init, direct_model, estimate_variances, kf_filter
from mirrorspec.spectral import ModeOrdering

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


def test_traced_names_exist():
    tracer = load_tracer()
    for short, names in tracer.TRACED.items():
        module = importlib.import_module(f"mirrorspec.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"mirrorspec.{short}.{name}"
    for short, classes in tracer.TRACED_METHODS.items():
        module = importlib.import_module(f"mirrorspec.{short}")
        for cname, methods in classes.items():
            cls = getattr(module, cname)
            for mname in methods:
                assert callable(getattr(cls, mname, None)), f"mirrorspec.{short}.{cname}.{mname}"


def test_workload_imports_exist():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("mirrorspec") for alias in node.names]
    assert len(imported) >= 5
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_workload_configs_build():
    workloads = load_perfbench("workloads")
    cfg = RunConfig(workloads.STACK_IO_CONFIG)
    assert cfg.flip_variant() is not None
    assert cfg.simulation(seed=101).seed == 101


def test_config_hashes_hold():
    # the hash names every output, so a refactor of the config's defaults that
    # moved one would rename the outputs of the profiles and of the benchmark
    workloads = load_perfbench("workloads")
    hashes = {name: RunConfig.load(name).hash
              for name in ("advection", "gibbs-strip", "storm", "window-table")}
    hashes["{}"] = RunConfig({}).hash
    for name in ("ADVECTION_CONFIG", "STORM_CONFIG", "STACK_IO_CONFIG"):
        hashes[name] = RunConfig(getattr(workloads, name)).hash
    assert hashes == {
        "advection": "c3161c29395c", "gibbs-strip": "fe85093bea79", "storm": "9f0b4bfd75c9",
        "window-table": "a3a09ff39776", "{}": "e280f907e581",
        "ADVECTION_CONFIG": "8c5d5f17a182", "STORM_CONFIG": "a32703729c86",
        "STACK_IO_CONFIG": "4941fd4aef62",
    }


def test_tracer_reads_fit_and_filter_results():
    extras = load_tracer().EXTRAS
    ordering = ModeOrdering(GridSpec(4, 4), 3)

    def factory(params):
        return direct_model(np.eye(ordering.k), params)

    obs = np.random.default_rng(3).normal(size=(5, ordering.k))
    fit = estimate_variances(factory, obs, max_evaluations=40)
    assert extras["kalman.estimate_variances"](fit, factory, obs) == {
        "converged": fit.converged, "evaluations": fit.n_evaluations,
    }
    noise = NoiseParams(1e-3, 1e-3)
    model = factory(noise)
    state0 = default_init(model, obs[0], noise)
    result = kf_filter(model, obs, state0)
    assert extras["kalman.kf_filter"](result, model, obs, state0) == {
        "k": ordering.k, "steps": 5, "update_first": False,
    }


def test_tracer_reads_the_flipped_state_size():
    # the per-K buckets count a flipped model at the size of its band, the
    # coefficients it observes per frame
    pipeline = build_pipeline(GridSpec(16, 16), ModelSpec("flip64", k=64, flip=True))
    noise = NoiseParams(1e-3, 1e-3)
    model = pipeline.factory(noise)
    obs = np.random.default_rng(4).normal(size=(4, pipeline.k))
    state0 = default_init(model, obs[0], noise)
    result = kf_filter(model, obs, state0)
    assert model.parts[-1].index[-6:].tolist() == list(range(15, 21))  # leakage after K = 15
    assert model.k == pipeline.k == 21
    assert load_tracer().EXTRAS["kalman.kf_filter"](result, model, obs, state0) == {
        "k": pipeline.k, "steps": 4, "update_first": False,
    }


def test_tracer_reads_the_diffusivity_field():
    # a zero field without motion skips assembly; an isotropic field is assembled
    extra = load_tracer().EXTRAS["galerkin.assemble_transition"]
    g = GridSpec(8, 8)
    ordering = ModeOrdering(g, 9)
    vel = VelocityField.zero(g)
    x, _ = g.mesh()
    shear = DiffusivityField(g, 0.001 + 0.0005 * np.cos(2 * np.pi * x))
    for dif, assembled in ((DiffusivityField.zero(g), False), (shear, True)):
        gen = assemble_transition(ordering, vel, dif)
        assert gen.any() == assembled
        assert extra(gen, ordering, vel, dif) == {"k": ordering.k, "n": g.n,
                                                  "assembled": assembled}
