"""Span recorder for one traced ``mirrorspec`` command.

Run as ``python3 perfbench/tracer.py --spans OUT.json --iteration N -- <cli args>``
with ``src`` on ``PYTHONPATH``.  It times the import of ``mirrorspec.cli``,
wraps the public functions listed in ``TRACED`` at every ``mirrorspec``
module attribute that holds them (``evaluate`` and ``cli`` bind most of them
by name, so wrapping only the defining module misses calls), wraps the click
command callbacks, runs the command, and writes the spans when the process
exits.  Nothing under ``src/`` is modified; the untraced benchmark runs
``python3 -m mirrorspec.cli`` instead.

A span is ``[name, parent, start, end, error, extra]``: ``parent`` is the
index of the enclosing span or -1, times come from ``time.perf_counter``,
``error`` is the exception class name or ``None`` and ``extra`` holds the
counts the benchmark derives work from (state size, steps, bytes).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

# module -> public functions to time.  Classes map to the methods to time.
TRACED = {
    "kalman": ["estimate_variances", "kf_filter", "kf_forecast"],
    "galerkin": ["assemble_transition"],
    "dynamics": ["build_transition", "flipped_generator"],
    "spectral": ["flip_transfer", "analyze", "synthesize"],
    "grid": ["flip_field", "unflip"],
    "motion": ["estimate_velocity", "diffusivity_from_velocity"],
    "preprocess": ["reflectivity_to_rain"],
    "gridstack": ["save_stack", "load_stack", "render_heatmap"],
    "evaluate": ["build_pipeline", "run_comparison", "mae"],
    "simulate": ["simulate_advection", "synthetic_storm_stack"],
}
TRACED_METHODS = {"evaluate": {"ModelPipeline": ["observations", "reconstruct"]}}


def _dir_bytes(path) -> int:
    root = Path(path)
    return sum(p.stat().st_size for p in root.iterdir() if p.is_file())


def _kf_filter_extra(result, model, observations, *args, update_first=False, **kw):
    return {"k": model.k, "steps": len(observations), "update_first": update_first}


def _fit_extra(result, *args, **kw):
    return {"converged": bool(result.converged), "evaluations": result.n_evaluations}


def _assemble_extra(result, ordering, vel, dif, *args, **kw):
    moving = bool(vel.vx.any() or vel.vy.any()) or not dif.is_zero()
    return {"k": ordering.k, "n": ordering.grid.n, "assembled": moving}


def _save_extra(result, stack, path):
    return {"bytes": _dir_bytes(result)}


def _load_extra(result, path):
    return {"bytes": _dir_bytes(path)}


# Counts read after the call returns, outside the timed interval.
EXTRAS = {
    "kalman.kf_filter": _kf_filter_extra,
    "kalman.estimate_variances": _fit_extra,
    "galerkin.assemble_transition": _assemble_extra,
    "gridstack.save_stack": _save_extra,
    "gridstack.load_stack": _load_extra,
}


class SpanRecorder:
    """In-memory spans of one process; single-threaded, so a stack of open
    spans gives each new span its parent."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        extra_fn = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, parent, time.perf_counter(), None, None, None]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if extra_fn is not None:
                span[5] = extra_fn(result, *args, **kwargs)
            return result

        return traced

    def install(self):
        """Wrap every traced function wherever a ``mirrorspec`` module holds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "mirrorspec" or n.startswith("mirrorspec.")]
        for short, names in TRACED.items():
            home = sys.modules[f"mirrorspec.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
        for short, classes in TRACED_METHODS.items():
            home = sys.modules[f"mirrorspec.{short}"]
            for cname, methods in classes.items():
                cls = getattr(home, cname)
                for mname in methods:
                    setattr(cls, mname, self.wrap(f"{short}.{cname}.{mname}", getattr(cls, mname)))
        cli = sys.modules["mirrorspec.cli"]
        for cname, command in cli.main.commands.items():
            command.callback = self.wrap(f"cli.{cname}", command.callback)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("--iteration", type=int, required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    recorder = SpanRecorder()
    start = time.perf_counter()
    import mirrorspec.cli

    recorder.spans.append(["cli.import", -1, start, time.perf_counter(), None, None])
    recorder.install()
    code = 0
    try:
        mirrorspec.cli.main(args=cli_args, prog_name="mirrorspec")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        payload = {"iteration": args.iteration, "command": cli_args[0] if cli_args else "",
                   "spans": recorder.spans}
        Path(args.spans).write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
