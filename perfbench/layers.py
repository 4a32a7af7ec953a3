"""Per-layer metrics derived from the spans of the traced iterations.

``.s`` is busy seconds per iteration, ``.self_s`` the same minus the time of
traced child spans, ``.calls`` calls per iteration.  A layer that does not
run on a workload reads 0.  Floating-point operation counts are computed from
the matrix shapes the code multiplies, and megabytes from the sizes of the
files written or read; neither comes from a hardware counter.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

COMMANDS = ("simulate", "flip", "filter", "predict", "render", "velocity",
            "convert-rain", "evaluate")
# State sizes K of the benchmark's models: direct25 and flip100 on
# advection-fit, direct50 and flip200 on storm-radar, direct100 on stack-io.
STATE_SIZES = (199, 99, 49, 25)

BUSY = ("kalman.estimate_variances", "kalman.kf_filter", "kalman.kf_forecast",
        "galerkin.assemble_transition", "dynamics.build_transition",
        "dynamics.flipped_generator", "spectral.flip_transfer", "spectral.analyze",
        "spectral.synthesize", "grid.flip_field", "grid.unflip", "motion.estimate_velocity",
        "motion.diffusivity_from_velocity", "preprocess.reflectivity_to_rain",
        "gridstack.save_stack", "gridstack.load_stack", "gridstack.render_heatmap",
        "evaluate.ModelPipeline.observations", "evaluate.ModelPipeline.reconstruct",
        "evaluate.mae", "simulate.simulate_advection",
        *(f"cli.{c}" for c in COMMANDS))
CALLS = ("kalman.kf_filter", "spectral.analyze", "spectral.synthesize", "grid.flip_field",
         "motion.estimate_velocity", "gridstack.save_stack", "gridstack.load_stack")
SELF = ("evaluate.build_pipeline", "evaluate.run_comparison", *(f"cli.{c}" for c in COMMANDS))
SETUP_BUSY = ("simulate.simulate_advection", "simulate.synthetic_storm_stack")


def filter_flop(k: int, steps: int, update_first: bool) -> float:
    """Computed flops of one ``kf_filter`` pass on a K-coefficient model.

    Predict (state 2K): ``phi @ p11``, ``phi @ p12`` and ``x @ phi.T`` are
    2K^3 each, ``transition.step`` 2K^2.  Update: Cholesky K^3/3, ``cho_solve``
    on 2K right-hand sides 4K^3, the gain products ``gain @ cov[:k]``,
    ``ap[:, :k] @ gain.T`` and ``(gain @ v) @ gain.T`` 8K^3 each plus
    ``gain @ v`` 4K^3, and 5K^2 of vector work.  Additions of whole
    matrices are left out."""
    predict = 6 * k**3 + 2 * k**2
    update = (1 / 3 + 4 + 8 + 8 + 4 + 8) * k**3 + 5 * k**2
    return (steps - 1) * predict + (steps - 1 + int(update_first)) * update


def assemble_flop(k: int, n: int, assembled: bool) -> float:
    """Computed flops of ``assemble_transition``: the ``test.T @ src`` product,
    2 N K^2 over N grid points; zero when the coefficients vanish and the
    generator returns early."""
    return 2.0 * n * k * k if assembled else 0.0


class SpanSet:
    """Spans of several processes, grouped by span name."""

    def __init__(self, payloads: list[dict]):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.by_name = defaultdict(list)
        self.top_level = 0.0
        self.fit_evals = 0
        for payload in payloads:
            spans = payload["spans"]
            child = defaultdict(float)
            for name, parent, start, end, error, extra in spans:
                if parent >= 0:
                    child[parent] += end - start
                else:
                    self.top_level += end - start
            for index, (name, parent, start, end, error, extra) in enumerate(spans):
                self.busy[name] += end - start
                self.self_time[name] += end - start - child[index]
                self.calls[name] += 1
                self.by_name[name].append((end - start, error, extra or {}))
                if name == "kalman.kf_filter" and self._inside(spans, parent,
                                                               "kalman.estimate_variances"):
                    self.fit_evals += 1

    @staticmethod
    def _inside(spans, parent: int, name: str) -> bool:
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][1]
        return False


def layer_metrics(spans: SpanSet, iterations: int, setup: SpanSet, setups: int,
                  traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    per = 1.0 / iterations
    out = {}
    for name in BUSY:
        out[f"{name}.s"] = (spans.busy[name] * per, "s")
    for name in CALLS:
        out[f"{name}.calls"] = (spans.calls[name] * per, "count")
    for name in SELF:
        out[f"{name}.self_s"] = (spans.self_time[name] * per, "s")
    for name in SETUP_BUSY:
        out[f"setup.{name}.s"] = (setup.busy[name] / setups, "s")
    out["cli.import_s"] = (spans.busy["cli.import"] * per, "s")

    fits = spans.by_name["kalman.estimate_variances"]
    out["kalman.fit_evals"] = (spans.fit_evals * per, "count")
    converged = sum(1 for _, _, extra in fits if extra.get("converged"))
    out["kalman.fit_converged_ratio"] = (converged / len(fits) if fits else 0.0, "ratio")

    passes = spans.by_name["kalman.kf_filter"]
    failed = sum(1 for _, error, _ in passes if error in ("FilterError", "LinAlgError"))
    out["kalman.kf_filter.failed"] = (failed * per, "count")
    for k in STATE_SIZES:
        times = [d for d, _, extra in passes if extra.get("k") == k]
        out[f"kalman.kf_filter.k{k}.call_ms"] = (
            statistics.median(times) * 1e3 if times else 0.0, "ms")
    flop = sum(filter_flop(e["k"], e["steps"], e["update_first"]) for _, _, e in passes if e)
    out["kalman.kf_filter.gflop"] = (flop * per / 1e9, "GFLOP-computed")
    busy = spans.busy["kalman.kf_filter"]
    out["kalman.kf_filter.gflops"] = (flop / busy / 1e9 if busy else 0.0, "GFLOP/s-computed")
    flop = sum(assemble_flop(e["k"], e["n"], e["assembled"])
               for _, _, e in spans.by_name["galerkin.assemble_transition"] if e)
    out["galerkin.assemble_transition.gflop"] = (flop * per / 1e9, "GFLOP-computed")

    for name in ("gridstack.save_stack", "gridstack.load_stack"):
        mb = sum(e.get("bytes", 0) for _, _, e in spans.by_name[name]) / 1e6
        out[f"{name}.mb"] = (mb * per, "MB")
        out[f"{name}.mb_per_s"] = (mb / spans.busy[name] if spans.busy[name] else 0.0, "MB/s")

    traced = statistics.median(traced_walls)
    out["trace.overhead_ratio"] = (traced / statistics.median(untraced_walls) - 1.0, "ratio")
    out["trace.coverage"] = (spans.top_level / sum(traced_walls), "ratio")
    return out
