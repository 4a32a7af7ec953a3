"""Galerkin assembly of the spectral transition generator.

Projecting the advection-diffusion operator with isotropic diffusivity
``D(s) = d(s) I``

    A f = -v(s).grad f + div(D(s) grad f)

onto the retained trigonometric modes yields a dense generator ``P`` driving
``da/dt = P a``.  With ``kt = 2 pi k``, ``kt.D kt = d |kt|^2`` and
``div D = grad d``, the action of ``A`` on a source mode is

    A cos(kt.s) = (v.kt) sin(kt.s) - (kt.D kt) cos(kt.s) - ((div D).kt) sin(kt.s)
    A sin(kt.s) = -(v.kt) cos(kt.s) - (kt.D kt) sin(kt.s) + ((div D).kt) cos(kt.s)

and the generator entry for (test mode i, source mode j) is the grid-mean
inner product of ``A f_j`` with the test function, scaled by the source
weight over the test weight and cosine-squared mass:

    P[i, j] = w_j / (w_i * c_i) * mean(A f_j * f_i)

with ``w = 1`` on the corner set, ``w = 2`` elsewhere, and
``c_k = mean(cos^2(kt.s))``.  Integrals are grid-point means (cell weight
1/N), which is exact for band-limited integrands below Nyquist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .spectral import ModeOrdering

__all__ = [
    "VelocityField",
    "DiffusivityField",
    "normalization_c",
    "psi_entry",
    "assemble_transition",
]

PSI_KINDS = ("A1", "A2", "A3", "A4", "D1", "D2", "D3", "D4")
ASSEMBLY_CHUNK = 128  # source modes per dense block in assemble_transition


def _as_grid_values(grid: GridSpec, values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape == grid.shape:
        arr = arr.flatten(order="F")
    if arr.shape == ():
        arr = np.full(grid.n, float(arr))
    if arr.shape != (grid.n,):
        raise ValueError(f"{name} must have {grid.n} samples, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class VelocityField:
    """Velocity components sampled at grid points, in domain lengths per step."""

    grid: GridSpec
    vx: np.ndarray
    vy: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vx", _as_grid_values(self.grid, self.vx, "vx"))
        object.__setattr__(self, "vy", _as_grid_values(self.grid, self.vy, "vy"))

    @classmethod
    def constant(cls, grid: GridSpec, vx: float, vy: float) -> "VelocityField":
        return cls(grid, np.full(grid.n, float(vx)), np.full(grid.n, float(vy)))

    @classmethod
    def zero(cls, grid: GridSpec) -> "VelocityField":
        return cls.constant(grid, 0.0, 0.0)

    def speed(self) -> np.ndarray:
        return np.hypot(self.vx, self.vy)


def gradient_pixels(grid: GridSpec, pixels: np.ndarray, periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) of a pixel array by central differences.

    Periodic wrap when ``periodic``; otherwise one-sided at the boundaries.
    """
    hx, hy = 1.0 / grid.n1, 1.0 / grid.n2
    if periodic:
        ddx = (np.roll(pixels, -1, axis=1) - np.roll(pixels, 1, axis=1)) / (2 * hx)
        ddy = (np.roll(pixels, -1, axis=0) - np.roll(pixels, 1, axis=0)) / (2 * hy)
    else:
        ddy, ddx = np.gradient(pixels, hy, hx)
    return ddx, ddy


def spectral_gradient_pixels(grid: GridSpec, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of the band-limited interpolant via the FFT."""
    c = np.fft.fft2(pixels)
    kx = np.fft.fftfreq(grid.n1, d=1.0 / grid.n1)
    ky = np.fft.fftfreq(grid.n2, d=1.0 / grid.n2)
    # zero the Nyquist column/row derivative (odd sample count convention)
    kx[grid.n1 // 2] = 0.0
    ky[grid.n2 // 2] = 0.0
    ddx = np.fft.ifft2(c * (2j * np.pi * kx)[None, :]).real
    ddy = np.fft.ifft2(c * (2j * np.pi * ky)[:, None]).real
    return ddx, ddy


@dataclass(frozen=True)
class DiffusivityField:
    """Isotropic diffusivity ``D = d I`` plus its precomputed divergence.

    ``div_dx``/``div_dy`` hold ``div D = grad d`` as used by the Galerkin
    integrands, so callers control how it was formed (finite differences,
    spectral, or analytic).
    """

    grid: GridSpec
    d: np.ndarray
    div_dx: np.ndarray
    div_dy: np.ndarray

    def __post_init__(self):
        for name in ("d", "div_dx", "div_dy"):
            object.__setattr__(self, name, _as_grid_values(self.grid, getattr(self, name), name))

    @classmethod
    def zero(cls, grid: GridSpec) -> "DiffusivityField":
        z = np.zeros(grid.n)
        return cls(grid, z, z, z)

    @classmethod
    def isotropic(cls, grid, d, *, periodic=False, divergence="central"):
        """Build ``d * I`` from a scalar field, computing ``div D`` on the fly."""
        d = _as_grid_values(grid, d, "d")
        pixels = d.reshape(grid.shape, order="F")
        if divergence == "central":
            div_dx, div_dy = gradient_pixels(grid, pixels, periodic)
        elif divergence == "spectral":
            div_dx, div_dy = spectral_gradient_pixels(grid, pixels)
        else:
            raise ValueError(f"unknown divergence method {divergence!r}")
        return cls(grid, d, div_dx.flatten(order="F"), div_dy.flatten(order="F"))

    def is_zero(self) -> bool:
        return not (self.d.any() or self.div_dx.any() or self.div_dy.any())


def normalization_c(k: tuple[int, int], grid: GridSpec) -> float:
    """Discrete mean of ``cos^2(2 pi k.s)`` over the grid.

    1 for the zero mode and the half-Nyquist corners (samples are +/-1),
    1/2 for every other valid mode.
    """
    x, y = grid.mesh()
    c = np.cos(2 * np.pi * (k[0] * x + k[1] * y))
    return float(np.mean(c * c))


def _mode_fields(grid: GridSpec, k) -> tuple[np.ndarray, np.ndarray]:
    x, y = grid.mesh()
    arg = 2 * np.pi * (k[0] * x + k[1] * y)
    return np.cos(arg).flatten(order="F"), np.sin(arg).flatten(order="F")


def psi_entry(kind: str, k, kprime, vel: VelocityField, dif: DiffusivityField) -> float:
    """One Galerkin quadrature entry for source mode ``k``, test mode ``kprime``.

    Advection kinds A1..A4 pair (cos, sin) sources with (cos, sin) tests;
    diffusion kinds D1..D4 likewise.  Signs follow the operator action listed
    in the module docstring.
    """
    if kind not in PSI_KINDS:
        raise ValueError(f"kind must be one of {PSI_KINDS}, got {kind!r}")
    if vel.grid != dif.grid:
        raise ValueError("velocity and diffusivity must share a grid")
    grid = vel.grid
    ktx, kty = 2 * np.pi * k[0], 2 * np.pi * k[1]
    ck, sk = _mode_fields(grid, k)
    ckp, skp = _mode_fields(grid, kprime)
    adv = vel.vx * ktx + vel.vy * kty
    quad = dif.d * (ktx * ktx) + dif.d * (kty * kty)
    divk = dif.div_dx * ktx + dif.div_dy * kty
    integrand = {
        "A1": adv * sk,
        "A2": -adv * ck,
        "A3": adv * sk,
        "A4": -adv * ck,
        "D1": -quad * ck - divk * sk,
        "D2": -quad * sk + divk * ck,
        "D3": -quad * ck - divk * sk,
        "D4": -quad * sk + divk * ck,
    }[kind]
    test = skp if kind in ("A3", "A4", "D3", "D4") else ckp
    return float(np.mean(integrand * test))


def assemble_transition(
    ordering: ModeOrdering,
    vel: VelocityField,
    dif: DiffusivityField,
) -> np.ndarray:
    """Assemble the ``K x K`` generator over the retained modes.

    Entrywise identical to :func:`psi_entry` with the weight/normalization
    scalings applied, but evaluated blockwise with dense products.  Only
    retained rows and columns are ever formed.
    """
    grid = ordering.grid
    if vel.grid != grid or dif.grid != grid:
        raise ValueError("velocity/diffusivity grid does not match the ordering")
    k = ordering.k
    if not (vel.vx.any() or vel.vy.any()) and dif.is_zero():
        return np.zeros((k, k))

    x, y = grid.mesh()
    xf = x.flatten(order="F")
    yf = y.flatten(order="F")
    arg = 2 * np.pi * (xf[:, None] * ordering.kx[None, :] + yf[:, None] * ordering.ky[None, :])
    cos_all = np.cos(arg)
    sin_all = np.sin(arg)
    del arg
    test = np.where(ordering.is_sin[None, :], sin_all, cos_all)

    ktx = 2 * np.pi * ordering.kx
    kty = 2 * np.pi * ordering.ky
    psi = np.empty((k, k))
    for lo in range(0, k, ASSEMBLY_CHUNK):
        hi = min(lo + ASSEMBLY_CHUNK, k)
        a = vel.vx[:, None] * ktx[lo:hi] + vel.vy[:, None] * kty[lo:hi]
        # kt.D kt term by term: d * |kt|^2 would round every entry differently
        quad = (dif.d[:, None] * (ktx[lo:hi] * ktx[lo:hi])
                + dif.d[:, None] * (kty[lo:hi] * kty[lo:hi]))
        divk = dif.div_dx[:, None] * ktx[lo:hi] + dif.div_dy[:, None] * kty[lo:hi]
        cos_b = cos_all[:, lo:hi]
        sin_b = sin_all[:, lo:hi]
        src = np.where(
            ordering.is_sin[lo:hi][None, :],
            -a * cos_b - quad * sin_b + divk * cos_b,
            a * sin_b - quad * cos_b - divk * sin_b,
        )
        psi[:, lo:hi] = test.T @ src
    psi /= grid.n

    scale_row = 1.0 / (ordering.weight * ordering.cnorm)
    return psi * scale_row[:, None] * ordering.weight[None, :]
