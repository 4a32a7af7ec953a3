"""Grid geometry, field storage, and the double mirror-flip operator.

Fields live on a uniform ``n1 x n2`` grid over ``[0,1)^2``.  The pixel array
``M`` has shape ``(n2, n1)`` with rows indexing ``y`` and columns indexing
``x``; the canonical vector form stacks the columns of ``M``
(``values[j*n2 + i] = M[i, j]``).

Mirror flipping doubles the grid along both axes by pure index reversal,
producing a field whose periodic extension is continuous: the original image
occupies one quadrant and the other three quadrants are its reflections.  The
flip serves the ``flip`` command and the test oracles; the mirrored model
observes the same spectrum on the original grid (``spectral.MirrorBand``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "Field",
    "FlipVariant",
    "DEFAULT_FLIP",
    "flip_field",
    "unflip",
]


@dataclass(frozen=True)
class GridSpec:
    """A uniform grid with ``n1`` points along x and ``n2`` along y.

    Both dimensions must be even (the wavenumber bookkeeping uses the
    half-Nyquist indices ``n1/2`` and ``n2/2``) and at least 2.  Coordinates
    are ``x = j/n1`` and ``y = i/n2``.
    """

    n1: int
    n2: int

    def __post_init__(self):
        for name in ("n1", "n2"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {type(n).__name__}")
            if n < 2:
                raise ValueError(f"{name} must be >= 2, got {n}")
            if n % 2 != 0:
                raise ValueError(f"{name} must be even, got {n}")

    @property
    def n(self) -> int:
        """Total number of grid points."""
        return self.n1 * self.n2

    @property
    def shape(self) -> tuple[int, int]:
        """Shape ``(n2, n1)`` of the pixel array (rows = y, columns = x)."""
        return (self.n2, self.n1)

    def coords_x(self) -> np.ndarray:
        return np.arange(self.n1) / self.n1

    def coords_y(self) -> np.ndarray:
        return np.arange(self.n2) / self.n2

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays ``X, Y`` of shape ``(n2, n1)``."""
        return np.meshgrid(self.coords_x(), self.coords_y())

    def doubled(self) -> "GridSpec":
        return GridSpec(2 * self.n1, 2 * self.n2)


@dataclass(frozen=True)
class Field:
    """A real scalar field on a :class:`GridSpec`, stored column-stacked."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"values must have shape ({self.grid.n},), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_pixels(cls, grid: GridSpec, pixels) -> "Field":
        """Build a field from an ``(n2, n1)`` pixel array."""
        pixels = np.asarray(pixels, dtype=float)
        if pixels.shape != grid.shape:
            raise ValueError(f"pixel array must have shape {grid.shape}, got {pixels.shape}")
        return cls(grid, pixels.flatten(order="F"))

    def pixels(self) -> np.ndarray:
        """The ``(n2, n1)`` pixel array ``M`` with ``M[i, j] = value at (x_j, y_i)``."""
        return self.values.reshape(self.grid.shape, order="F")


@dataclass(frozen=True)
class FlipVariant:
    """Which boundary anchors the mirror along each axis.

    ``(right, bottom)`` reproduces the canonical double flip: mirror across
    the right boundary first (original occupies the low-x half), then across
    the bottom boundary (original occupies the low-y rows).
    """

    x_anchor: str = "right"
    y_anchor: str = "bottom"

    def __post_init__(self):
        if self.x_anchor not in ("right", "left"):
            raise ValueError(f"x_anchor must be 'right' or 'left', got {self.x_anchor!r}")
        if self.y_anchor not in ("bottom", "top"):
            raise ValueError(f"y_anchor must be 'bottom' or 'top', got {self.y_anchor!r}")


DEFAULT_FLIP = FlipVariant()


def _axis_indices(n: int, original_first: bool) -> np.ndarray:
    forward = np.arange(n)
    if original_first:
        return np.concatenate([forward, forward[::-1]])
    return np.concatenate([forward[::-1], forward])


def flip_field(f: Field, variant: FlipVariant = DEFAULT_FLIP) -> Field:
    """Mirror a field across both axes onto the doubled grid.

    The output pixel array is the original bordered by its reflections; every
    sample of the input appears exactly four times and the periodic extension
    of the output has no boundary jumps beyond interior-scale differences.
    """
    rows = _axis_indices(f.grid.n2, variant.y_anchor == "bottom")
    cols = _axis_indices(f.grid.n1, variant.x_anchor == "right")
    return Field.from_pixels(f.grid.doubled(), f.pixels()[np.ix_(rows, cols)])


def unflip(fstar: Field, variant: FlipVariant = DEFAULT_FLIP) -> Field:
    """Restrict a flipped field back to the quadrant holding the original.

    Inverse of :func:`flip_field` in the sense ``unflip(flip_field(f)) == f``.
    """
    half = GridSpec(fstar.grid.n1 // 2, fstar.grid.n2 // 2)  # raises unless both are even
    r0 = 0 if variant.y_anchor == "bottom" else half.n2
    c0 = 0 if variant.x_anchor == "right" else half.n1
    return Field.from_pixels(half, fstar.pixels()[r0 : r0 + half.n2, c0 : c0 + half.n1])
