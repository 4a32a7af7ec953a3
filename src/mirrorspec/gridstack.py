"""Binary persistence for frame stacks and portable-graymap rendering.

A stack is a directory holding ``manifest.json`` plus one NPY file per time
step (``frame_0000.npy`` ...), each the float64 ``(n2, n1)`` pixel array of
:meth:`Field.pixels` as ``np.save`` writes it, so values round-trip bit for
bit and any NumPy reads a frame with ``np.load``.  Row ``i`` is y-index ``i``,
column ``j`` is x-index ``j``.  :func:`load_stack` refuses a frame that is
missing, not an NPY array (pickled objects included), not float64, of
another shape than the manifest's grid or not finite, naming its file; a
stack of text frames (``frame_0000.csv``) from an earlier version is refused
with a message to run the command that wrote it again.
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
    return f"frame_{i:04d}.npy"


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
        np.save(root / _frame_name(i), frame.pixels())
    return root


def _load_frame(fpath: Path, i: int, steps: int, grid: GridSpec) -> Field:
    if not fpath.exists():
        text = fpath.with_suffix(".csv")
        if text.exists():
            raise StackError(f"{text}: a text frame, which this version no longer reads; "
                             "run the command that wrote the stack again")
        raise StackError(f"{fpath}: missing frame {i} of {steps}")
    try:
        pixels = np.load(fpath, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise StackError(f"{fpath}: parse failure ({exc})") from exc
    if not isinstance(pixels, np.ndarray):
        pixels.close()
        raise StackError(f"{fpath}: parse failure (an .npz archive, not one array)")
    if pixels.dtype != np.float64:
        raise StackError(f"{fpath}: frame dtype {pixels.dtype} is not float64")
    if pixels.shape != grid.shape:
        raise StackError(
            f"{fpath}: frame shape {pixels.shape} does not match manifest grid {grid.shape}"
        )
    if not np.isfinite(pixels).all():
        raise StackError(f"{fpath}: frame values must be finite")
    return Field.from_pixels(grid, pixels)


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
    try:
        grid = GridSpec(manifest["n1"], manifest["n2"])
    except ValueError as exc:
        raise StackError(f"{mpath}: {exc}") from exc
    steps = manifest["steps"]
    if steps < 1:
        raise StackError(f"{mpath}: a stack needs at least one frame, got steps={steps}")
    delta = manifest["delta"]
    if type(delta) not in (int, float) or not 0 < delta < np.inf:
        raise StackError(f"{mpath}: delta must be finite and positive, got {delta!r}")
    return GridStack(
        grid,
        [_load_frame(root / _frame_name(i), i, steps, grid) for i in range(steps)],
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
