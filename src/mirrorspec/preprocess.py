"""Radar unit conversion and the separable Hamming-window baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec

__all__ = ["WindowField", "reflectivity_to_rain", "hamming2d", "apply_window"]


def reflectivity_to_rain(z: Field) -> Field:
    """Reflectivity (dBZ) to rain rate (mm/hr), ``R = (10^(Z/10) / 200)^(5/8)``."""
    return Field(z.grid, (np.power(10.0, z.values / 10.0) / 200.0) ** 0.625)


@dataclass(frozen=True)
class WindowField:
    """Separable taper weights in [0.0064, 1] (corner weight 0.08^2)."""

    grid: GridSpec
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.grid.n,):
            raise ValueError(f"weights must have length {self.grid.n}")
        if w.min() < 0.0064 - 1e-9 or w.max() > 1.0 + 1e-12:
            raise ValueError("window weights outside [0.0064, 1]")
        object.__setattr__(self, "weights", w)


def _hamming_axis(n: int) -> np.ndarray:
    if n < 2:
        raise ValueError("window needs at least 2 points per axis")
    return 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(n) / (n - 1))


def hamming2d(grid: GridSpec) -> WindowField:
    """Outer product of two symmetric 1-D Hamming windows (each divides by
    ``n - 1``, so the weights return to 0.08 at the far edge)."""
    wx = _hamming_axis(grid.n1)
    wy = _hamming_axis(grid.n2)
    return WindowField(grid, np.outer(wy, wx).flatten(order="F"))


def apply_window(f: Field, w: WindowField) -> Field:
    """Elementwise taper."""
    if f.grid != w.grid:
        raise ValueError("field and window grids differ")
    return Field(f.grid, f.values * w.weights)
