"""mirrorspec benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload storm-radar --seed 3 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up generates the workload's inputs
with ``mirrorspec simulate --seed`` (three times; ``setup_s`` is the median).
Then iterations run until ``--seconds`` have passed, at least one.  Every
command of an iteration is a fresh ``python3 -m mirrorspec.cli`` process with
``src`` on ``PYTHONPATH``, so no in-process cache carries work between
commands.  BLAS thread variables are left as found and recorded.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations (``perfbench/tracer.py`` records spans in the
command processes), prints the per-layer metrics, and checks that the traced
and untraced outputs are byte-identical.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record, machine included, goes to the lines before it.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import SpanSet, layer_metrics
from machine import machine_record
from workloads import RECORD, WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
SETUP_REPEATS = 3
MIN_ITERATIONS = 2
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s


@dataclass
class Iteration:
    wall: float
    traced: bool
    directory: Path
    peak_rss_kib: int = 0
    command_walls: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)  # (command, message) per failed operation
    quality: dict = field(default_factory=dict)


class Runner:
    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def argv(self, cli_args: list[str], spans: Path | None, index: int) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "mirrorspec.cli", *cli_args]
        return [sys.executable, str(TRACER), "--spans", str(spans),
                "--iteration", str(index), "--", *cli_args]

    def spawn(self, argv: list[str], log: Path) -> tuple[int, int]:
        """Run one command to completion; returns (exit code, peak RSS in KiB)."""
        with open(log, "wb") as out:
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    cwd=ROOT, env=self.env)
        timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def setup(self, factory, spans_dir: Path | None):
        """Build the workload ``SETUP_REPEATS`` times; returns it and the times."""
        times, workload = [], None
        for r in range(SETUP_REPEATS):
            directory = self.work / f"setup-{r}"
            directory.mkdir(parents=True)
            start = time.perf_counter()
            workload = factory(directory, self.seed)
            for i, cli_args in enumerate(workload.setup_commands):
                spans = None if spans_dir is None else spans_dir / f"setup-{r}-{i}.json"
                code, _ = self.spawn(self.argv(cli_args, spans, -1), directory / f"setup-{i}.log")
                if code != 0:
                    raise SystemExit(f"set-up command {cli_args[0]} exited {code}; "
                                     f"see {directory / f'setup-{i}.log'}")
            times.append(time.perf_counter() - start)
        return workload, times

    def iterate(self, workload, index: int, traced: bool,
                reference: Iteration | None) -> Iteration:
        """Run every command once.  The first iteration's outputs are checked;
        later ones must be byte-identical to them, which also shows that
        tracing changes no output."""
        directory = self.work / f"iter-{index:03d}"
        directory.mkdir(parents=True)
        it = Iteration(0.0, traced, directory)
        ran = []
        start = time.perf_counter()
        for i, step in enumerate(workload.steps, 1):
            out = step.out(directory, i)
            try:
                cli_args = [step.command, *step.args(directory), "--out", str(out)]
            except CheckFailed as exc:
                it.errors.append((step.command, f"not run: {exc}"))
                continue
            spans = directory / f"spans-{i:02d}.json" if traced else None
            spawned = time.perf_counter()
            code, rss = self.spawn(self.argv(cli_args, spans, index), directory / f"{i:02d}.log")
            it.command_walls[step.command] = time.perf_counter() - spawned
            it.peak_rss_kib = max(it.peak_rss_kib, rss)
            if code != 0:
                it.errors.append((step.command, f"exit code {code}"))
            else:
                ran.append((step, out))
        it.wall = time.perf_counter() - start
        for step, out in ran:
            if reference is None:
                try:
                    it.quality.update(step.check(out))
                except Exception as exc:  # any exception in a check fails the operation
                    it.errors.append((step.command, f"check failed: {type(exc).__name__}: {exc}"))
                continue
            differ = differing_files(reference.directory / out.name, out)
            if differ:
                it.errors.append((step.command, f"{'traced ' if traced else ''}output differs "
                                                f"from the first iteration in {differ[:3]}"))
        if reference is not None:
            it.quality = dict(reference.quality)
        return it

    def spans(self, it: Iteration) -> list[dict]:
        return [json.loads(p.read_text()) for p in sorted(it.directory.glob("spans-*.json"))]


def differing_files(expected: Path, got: Path) -> list[str]:
    """Files that differ between two output directories, run logs (which hold
    wall times) aside."""
    def names(directory):
        return {p.relative_to(directory) for p in directory.rglob("*")
                if p.is_file() and not p.name.startswith("runlog-")}

    want, have = names(expected), names(got)
    differ = sorted(str(n) for n in want ^ have)
    return differ + sorted(str(n) for n in want & have
                           if not filecmp.cmp(expected / n, got / n, shallow=False))


def high_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    p = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if p < 1:
        return None
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mirrorspec benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "mirrorspec" / "cli.py").is_file():
        print(f"error: {SRC / 'mirrorspec'} not found; run from a mirrorspec checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # simulate seeds numpy's default_rng, which takes a non-negative integer
    seed = args.seed % 2**31
    trace = bool(args.trace)
    runner = Runner(WORK / f"{args.workload}-seed{seed}-trace{args.trace}", seed)
    shutil.rmtree(runner.work, ignore_errors=True)
    try:
        spans_dir = runner.work / "setup-spans" if trace else None
        if spans_dir:
            spans_dir.mkdir(parents=True)
        workload, setup_times = runner.setup(WORKLOADS[args.workload], spans_dir)
        setup_spans = (SpanSet([json.loads(p.read_text()) for p in sorted(spans_dir.glob("*"))])
                       if trace else None)

        iterations: list[Iteration] = []
        traced_payloads: list[dict] = []
        measure_start = time.perf_counter()
        longest = 0.0
        reference = None
        # at least MIN_ITERATIONS untraced samples, or one traced pair
        while len(iterations) < (2 if trace else MIN_ITERATIONS) or (
                time.perf_counter() - measure_start < args.seconds
                and runner.remaining() > (2 if trace else 1) * longest + 10):
            for traced in (False, True) if trace else (False,):
                it = runner.iterate(workload, len(iterations), traced, reference)
                iterations.append(it)
                longest = max(longest, it.wall)
                if traced:
                    traced_payloads += runner.spans(it)
                if reference is None and not it.errors:
                    reference = it
                else:
                    shutil.rmtree(it.directory)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's files are still there

    untraced_its = [it for it in iterations if not it.traced]
    traced_its = [it for it in iterations if it.traced]
    walls = [it.wall for it in untraced_its]
    attempted = len(iterations) * len(workload.steps)
    failures = [(i, cmd, msg) for i, it in enumerate(iterations) for cmd, msg in it.errors]
    quality = {key: statistics.median(it.quality[key] for it in iterations if key in it.quality)
               for key in ("mae_out", "gibbs_ratio")
               if any(key in it.quality for it in iterations)}

    if trace:
        metrics = layer_metrics(SpanSet(traced_payloads), len(traced_its), setup_spans,
                                SETUP_REPEATS, [it.wall for it in traced_its], walls)
    else:
        metrics = {
            "run_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (statistics.median(it.peak_rss_kib for it in untraced_its) / 1024,
                            "MiB"),
        }
    record = {
        "workload": args.workload,
        "trace": trace,
        "machine": machine_record(seed),
        "workload_record": RECORD[args.workload],
        "setup_s_samples": setup_times,
        "run_s_samples": walls,
        "command_s_samples": [it.command_walls for it in untraced_its],
        "run_s_high_percentile": high_percentile(walls),
        "traced_run_s_samples": [it.wall for it in traced_its],
        "peak_rss_mib_samples": [it.peak_rss_kib / 1024 for it in untraced_its],
        "error_rate": len(failures) / attempted,
        "quality": quality,
        "failures": failures,
        "computed_counts": "kalman.kf_filter.gflop and galerkin.assemble_transition.gflop are "
                           "computed from matrix shapes; gridstack.*.mb from file sizes",
    }
    print(json.dumps(record, indent=1, default=str))
    print(f"{args.workload} seed={seed} trace={int(trace)}: {len(walls)} untraced iteration(s), "
          f"error_rate {record['error_rate']:.4g} ({len(failures)}/{attempted})")
    for name, value in quality.items():
        print(f"  {name:<12} {value:.6g} ({'MAE' if name == 'mae_out' else 'ratio'})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len({(i, cmd) for i, cmd, _ in failures}),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
