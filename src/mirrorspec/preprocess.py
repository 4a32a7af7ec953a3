"""Radar unit conversion and the separable Hamming-window baseline."""

from __future__ import annotations

import numpy as np

from .grid import Field, GridSpec

__all__ = ["reflectivity_to_rain", "hamming2d", "apply_window"]


def reflectivity_to_rain(z: Field) -> Field:
    """Reflectivity (dBZ) to rain rate (mm/hr), ``R = (10^(Z/10) / 200)^(5/8)``;
    ValueError when a rate overflows, above about 3083 dBZ (a fill value, say)."""
    with np.errstate(over="ignore"):
        rain = (np.power(10.0, z.values / 10.0) / 200.0) ** 0.625
    if not np.all(np.isfinite(rain)):
        raise ValueError(f"the largest reflectivity, {z.values.max():g} dBZ, "
                         "has no finite rain rate")
    return Field(z.grid, rain)


def _hamming_axis(n: int) -> np.ndarray:
    return 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(n) / (n - 1))


def hamming2d(grid: GridSpec) -> Field:
    """Outer product of two symmetric 1-D Hamming windows (each divides by
    ``n - 1``, so the weights return to 0.08 at the far edge): taper weights
    in [0.0064, 1], the corner weight being 0.08^2."""
    return Field.from_pixels(grid, np.outer(_hamming_axis(grid.n2), _hamming_axis(grid.n1)))


def apply_window(f: Field, w: Field) -> Field:
    """Elementwise taper of ``f`` by the weights ``w``."""
    if f.grid != w.grid:
        raise ValueError("field and window grids differ")
    return Field(f.grid, f.values * w.values)
