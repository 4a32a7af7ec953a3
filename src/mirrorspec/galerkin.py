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

Each such mean is one coefficient field (``v - div D`` by component, or
``d``) times two trigonometric modes, and the product-to-sum identities turn
the two modes into single waves at ``k_i + k_j`` and ``k_i - k_j``.  The grid
mean of a field times a wave is the field's DFT at that wavenumber, taken mod
``(n1, n2)`` as the samples alias it, so :func:`assemble_transition` reads
every entry from three FFTs.  Sigrist, Künsch & Stahel (2015, JRSS-B 77(1))
build their spectral model on the same Fourier-Galerkin structure.
:func:`psi_entry` keeps the pointwise quadrature of single entries.
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
    """Assemble the ``K x K`` generator over the retained modes from the DFT
    of the coefficient fields.

    Mode ``j`` is ``Re(tau_j e^{i theta_j})`` with ``theta_j = 2 pi k_j.s``
    and ``tau_j`` 1 for a cosine, ``-i`` for a sine.  Since ``A`` is real,

        A Re(tau_j e^{i theta_j}) = Re(tau_j h_j e^{i theta_j}),
        h_j = -i (u kt_x + w kt_y) - |kt|^2 d,   (u, w) = v - div D,

    and the product with test mode ``i`` splits by the product-to-sum
    identities into the waves at ``k_i + k_j`` and ``k_i - k_j``:

        mean(f_i A f_j) = 1/2 Re(tau_i tau_j mean(h_j e^{i(theta_i + theta_j)})
                                 + tau_i conj(tau_j) mean(conj(h_j) e^{i(theta_i - theta_j)})).

    On the grid ``x = j/n1``, ``y = i/n2`` the mean of a field times
    ``e^{i 2 pi m.s}`` is the conjugate of its DFT at ``m`` mod ``(n1, n2)``,
    divided by ``N``, so every entry is a gather from the DFTs of ``u``, ``w``
    and ``d``.  The identities are exact at each sample and the modulus is the
    aliasing the grid mean has, so this is the quadrature of :func:`psi_entry`
    entry for entry, up to rounding.  It takes three ``n1 x n2`` FFTs,
    ``O(N log N)``, and ``O(K^2)`` gathers, with no ``N x K`` table.

    ``P[i, j]`` scales the mean by ``w_j / (w_i c_i)``, and ``w_i c_i = 1`` for
    every mode (1 x 1 on the corners, 2 x 1/2 elsewhere), which leaves ``w_j``.
    """
    grid = ordering.grid
    if vel.grid != grid or dif.grid != grid:
        raise ValueError("velocity/diffusivity grid does not match the ordering")
    k = ordering.k
    if not (vel.vx.any() or vel.vy.any()) and dif.is_zero():
        return np.zeros((k, k))

    # column-stacked values reshape to (x, y); the conjugate DFT / N is mean(F e^{+i 2 pi m.s})
    fields = np.stack([vel.vx - dif.div_dx, vel.vy - dif.div_dy, dif.d])
    means = np.fft.fft2(fields.reshape(3, grid.n1, grid.n2)).conj() / grid.n
    kx, ky = ordering.kx, ordering.ky
    at_sum = means[:, (kx[:, None] + kx) % grid.n1, (ky[:, None] + ky) % grid.n2]
    at_dif = means[:, (kx[:, None] - kx) % grid.n1, (ky[:, None] - ky) % grid.n2]
    ktx, kty = 2 * np.pi * kx, 2 * np.pi * ky
    quad = ktx * ktx + kty * kty
    h_sum = -1j * (ktx * at_sum[0] + kty * at_sum[1]) - quad * at_sum[2]
    h_dif = 1j * (ktx * at_dif[0] + kty * at_dif[1]) - quad * at_dif[2]
    tau = np.where(ordering.is_sin, -1j, 1.0)
    mean = 0.5 * (tau[:, None] * (tau * h_sum + tau.conj() * h_dif)).real
    return mean * ordering.weight
