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
every entry from three FFTs, of ``vx``, ``vy`` and ``d``, with ``grad d`` that
of ``d``'s trigonometric interpolant (the DFT of ``d`` times ``2 pi i m``).
Then, while every retained ``|k|`` is at most a quarter of the grid side, the
diffusion keeps the field mean and, for ``d >= 0``, adds no energy (``P / w``
is symmetric and negative semidefinite).  Sigrist, Künsch & Stahel (2015,
JRSS-B 77(1)) build their spectral model on the same Fourier-Galerkin structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .spectral import ModeOrdering

__all__ = [
    "VelocityField",
    "DiffusivityField",
    "assemble_transition",
]


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


@dataclass(frozen=True)
class DiffusivityField:
    """Isotropic diffusivity ``D = d I`` sampled at grid points.

    The Galerkin assembly needs ``div D = grad d`` as well; it takes the
    gradient of ``d``'s trigonometric interpolant from the DFT of ``d`` it
    computes anyway (:func:`assemble_transition`), so no caller chooses a
    difference rule."""

    grid: GridSpec
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _as_grid_values(self.grid, self.d, "d"))

    @classmethod
    def zero(cls, grid: GridSpec) -> "DiffusivityField":
        return cls(grid, np.zeros(grid.n))

    def is_zero(self) -> bool:
        return not self.d.any()


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
    aliasing the grid mean has, so this is the grid quadrature of the module
    docstring entry for entry, up to rounding.  It takes three ``n1 x n2`` FFTs,
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
    fields = np.stack([vel.vx, vel.vy, dif.d])
    means = np.fft.fft2(fields.reshape(3, grid.n1, grid.n2)).conj() / grid.n
    # (u, w) = v - grad d, grad d that of d's trigonometric interpolant:
    # mean(-(dd/dx) e^{+i 2 pi m.s}) = 2 pi i m_x mean(d e^{+i 2 pi m.s}).  A Nyquist
    # wave cos(pi n x) has zero slope at every sample, so its index gets m = 0
    mx, my = (np.fft.fftfreq(n, 1.0 / n) for n in (grid.n1, grid.n2))
    mx[mx == -grid.n1 / 2] = 0.0
    my[my == -grid.n2 / 2] = 0.0
    means[0] += 2j * np.pi * mx[:, None] * means[2]
    means[1] += 2j * np.pi * my * means[2]
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
