"""Text-based persistence for frame stacks and portable-graymap rendering.

A stack is a directory holding ``manifest.json`` plus one CSV file per time
step (``frame_0000.csv`` ...), each with ``n2`` rows of ``n1`` comma-separated
values printed at 17 significant digits, so float64 round-trips exactly.
Row ``i`` is y-index ``i``, column ``j`` is x-index ``j``.

Frames are formatted and parsed by one process per CPU in the affinity mask:
:func:`save_stack` and :func:`load_stack` fork a child for each CPU beyond
the first and deal the frames out round-robin, and a frame that no child
delivers is redone by the calling process, so errors are those of a serial
run. Each frame file is written by ``np.savetxt`` in whichever process owns
it, so the files are byte-identical to a serial write.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn

import numpy as np

from .grid import Field, GridSpec

__all__ = ["GridStack", "StackError", "save_stack", "load_stack", "render_heatmap"]

MANIFEST_KEYS = {"n1", "n2", "steps", "delta", "units", "created", "config_hash"}


class StackError(ValueError):
    """Malformed stack directory or frame file."""


@dataclass
class GridStack:
    grid: GridSpec
    frames: list[Field]
    delta: float = 1.0
    units: str = "dimensionless"
    created: str = ""
    config_hash: str = ""

    def __post_init__(self):
        for i, f in enumerate(self.frames):
            if f.grid != self.grid:
                raise StackError(f"frame {i} grid {f.grid} does not match stack grid {self.grid}")

    @property
    def steps(self) -> int:
        return len(self.frames)

    @classmethod
    def from_fields(cls, frames: list[Field], **kw) -> "GridStack":
        if not frames:
            raise StackError("a stack needs at least one frame")
        return cls(frames[0].grid, list(frames), **kw)


def _frame_name(i: int) -> str:
    return f"frame_{i:04d}.csv"


_LENGTH = struct.Struct("<Q")  # precedes each frame's bytes on a child's pipe


def _each_frame(steps: int, work: Callable[[int], bytes], build: Callable[[bytes], object]) -> list:
    """``[build(work(i)) for i in range(steps)]``, with ``work`` spread over
    the CPUs this process may run on.

    Frame ``i`` belongs to share ``i % shares``, one share per CPU up to the
    frame count. The caller keeps share 0 and forks a child for each other
    share; a child runs ``work`` on its frames in order and sends each result
    back through its own pipe. The caller calls ``build`` in frame order as the
    results arrive, so no more than a frame per child is ever in flight. A
    frame that its child did not deliver (the child failed or could not be
    forked) is computed here with ``work``, which then raises what a serial
    run raises. Every child has been reaped when this returns or raises.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    shares = min(cpus, steps)
    children, pipes = [], {}
    try:
        for share in range(1, shares):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                _run_share(share, shares, steps, work, read_end, write_end, pipes)
            children.append(pid)
            os.close(write_end)
            pipes[share] = open(read_end, "rb")
        results = []
        for i in range(steps):
            share = i % shares
            data = _receive(pipes[share]) if share in pipes else None
            if data is None:
                if share in pipes:
                    pipes.pop(share).close()  # the rest of its share is done here
                data = work(i)
            results.append(build(data))
        return results
    finally:
        for pipe in pipes.values():
            pipe.close()  # a child still writing gets EPIPE and exits
        for pid in children:
            os.waitpid(pid, 0)


def _run_share(share, shares, steps, work, read_end, write_end, pipes) -> NoReturn:
    """A forked child's whole life: send ``work(i)`` for each frame of its
    share, then leave through ``os._exit`` so it never runs the parent's
    cleanup or flushes the parent's stdio buffers."""
    status = 1
    try:
        os.close(read_end)
        for pipe in pipes.values():
            pipe.close()
        with open(write_end, "wb") as out:
            for i in range(share, steps, shares):
                data = work(i)
                out.write(_LENGTH.pack(len(data)))
                out.write(data)
                out.flush()
        status = 0
    finally:
        os._exit(status)


def _receive(pipe) -> bytes | None:
    """One frame's bytes from a child, or None if its pipe ended first."""
    head = pipe.read(_LENGTH.size)
    if len(head) == _LENGTH.size:
        (size,) = _LENGTH.unpack(head)
        data = pipe.read(size)
        if len(data) == size:
            return data
    return None


def save_stack(stack: GridStack, path) -> Path:
    """Write manifest and frames; returns the stack directory."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "n1": stack.grid.n1,
        "n2": stack.grid.n2,
        "steps": stack.steps,
        "delta": stack.delta,
        "units": stack.units,
        "created": stack.created,
        "config_hash": stack.config_hash,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    def write(i: int) -> bytes:
        np.savetxt(root / _frame_name(i), stack.frames[i].pixels(), fmt="%.17g", delimiter=",")
        return b""

    _each_frame(stack.steps, write, lambda data: None)
    return root


def load_stack(path) -> GridStack:
    """Read a stack back, validating the manifest and every frame."""
    root = Path(path)
    mpath = root / "manifest.json"
    if not mpath.exists():
        raise StackError(f"{mpath}: manifest not found")
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as exc:
        raise StackError(f"{mpath}: invalid JSON ({exc})") from exc
    if set(manifest) != MANIFEST_KEYS:
        missing = MANIFEST_KEYS - set(manifest)
        extra = set(manifest) - MANIFEST_KEYS
        raise StackError(f"{mpath}: manifest keys mismatch (missing {missing or '{}'}, extra {extra or '{}'})")
    for key in ("n1", "n2", "steps"):
        if type(manifest[key]) is not int:
            raise StackError(f"{mpath}: {key} must be a JSON integer, got {manifest[key]!r}")
    grid = GridSpec(manifest["n1"], manifest["n2"])
    steps = manifest["steps"]
    if steps < 1:
        raise StackError(f"{mpath}: a stack needs at least one frame, got steps={steps}")
    delta = manifest["delta"]
    if type(delta) not in (int, float) or not 0 < delta < np.inf:
        raise StackError(f"{mpath}: delta must be finite and positive, got {delta!r}")

    def read(i: int) -> bytes:
        fpath = root / _frame_name(i)
        if not fpath.exists():
            raise StackError(f"{fpath}: missing frame {i} of {steps}")
        try:
            pixels = np.loadtxt(fpath, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise StackError(f"{fpath}: parse failure ({exc})") from exc
        if pixels.shape != grid.shape:
            raise StackError(
                f"{fpath}: frame shape {pixels.shape} does not match manifest grid {grid.shape}"
            )
        if not np.isfinite(pixels).all():
            raise StackError(f"{fpath}: frame values must be finite")
        return pixels.tobytes()

    frames = _each_frame(
        steps, read, lambda data: Field.from_pixels(grid, np.frombuffer(data).reshape(grid.shape)))
    return GridStack(
        grid,
        frames,
        delta=float(delta),
        units=str(manifest["units"]),
        created=str(manifest["created"]),
        config_hash=str(manifest["config_hash"]),
    )


def render_heatmap(f: Field, path, scale: tuple[float, float] | None = None) -> Path:
    """Write a binary PGM (P5) with a linear gray scale plus a sidecar
    recording the scale; row order puts y=max at the top of the image.

    An explicit ``scale`` must be two finite numbers ``(min, max)`` with
    ``min < max`` (ValueError otherwise); the auto scale of a constant frame
    spans 1 from its value."""
    path = Path(path)
    pix = f.pixels()
    if scale is None:
        lo, hi = float(pix.min()), float(pix.max())
    else:
        lo, hi = float(scale[0]), float(scale[1])
        if not (np.isfinite([lo, hi]).all() and lo < hi):
            raise ValueError(f"render scale must be finite with min < max, got ({lo}, {hi})")
    span = hi - lo if hi > lo else 1.0
    levels = np.clip(np.round((pix - lo) / span * 255.0), 0, 255).astype(np.uint8)
    levels = levels[::-1, :]  # y increases upward in the rendered image
    header = f"P5\n{f.grid.n1} {f.grid.n2}\n255\n".encode("ascii")
    path.write_bytes(header + levels.tobytes())
    sidecar = path.with_suffix(path.suffix + ".scale.json")
    sidecar.write_text(json.dumps({"min": lo, "max": hi, "rows": "top row is max y"}) + "\n")
    return path
