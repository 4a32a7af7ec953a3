"""Text-based persistence for frame stacks and portable-graymap rendering.

A stack is a directory holding ``manifest.json`` plus one CSV file per time
step (``frame_0000.csv`` ...), each with ``n2`` rows of ``n1`` comma-separated
values printed at 17 significant digits, so float64 round-trips exactly.
Row ``i`` is y-index ``i``, column ``j`` is x-index ``j``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

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
    for i, frame in enumerate(stack.frames):
        np.savetxt(root / _frame_name(i), frame.pixels(), fmt="%.17g", delimiter=",")
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
    grid = GridSpec(int(manifest["n1"]), int(manifest["n2"]))
    steps = int(manifest["steps"])
    if steps < 1:
        raise StackError(f"{mpath}: a stack needs at least one frame, got steps={steps}")
    delta = manifest["delta"]
    if type(delta) not in (int, float) or not 0 < delta < np.inf:
        raise StackError(f"{mpath}: delta must be finite and positive, got {delta!r}")
    frames = []
    for i in range(steps):
        fpath = root / _frame_name(i)
        if not fpath.exists():
            raise StackError(f"{fpath}: missing frame {i} of {manifest['steps']}")
        try:
            pixels = np.loadtxt(fpath, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise StackError(f"{fpath}: parse failure ({exc})") from exc
        if pixels.shape != grid.shape:
            raise StackError(
                f"{fpath}: frame shape {pixels.shape} does not match manifest grid {grid.shape}"
            )
        frames.append(Field.from_pixels(grid, pixels))
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
