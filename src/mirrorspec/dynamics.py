"""Discrete-time transitions: matrix exponential, closed form and conjugation.

A ``K x K`` generator ``P`` over original-domain coefficients conjugates onto
the flipped domain as ``H P pinv(H)``, the dense reference that tests hold the
mirrored model to: on the least-squares coefficients of its observations
(:func:`mirrorspec.evaluate.build_pipeline`) that conjugation is ``P`` itself.
A generator turns into the one-step transition ``Phi = exp(delta P)``, which
:mod:`mirrorspec.kalman` augments with the forcing coefficients.  An estimated
velocity makes ``P`` dense; :func:`matrix_exp` exponentiates it in NumPy by
scaling and squaring with the degree-13 Pade approximant (Higham 2005, SIAM J.
Matrix Anal. Appl. 26(4)); the storm profile's generators (``K = 49``, 1-norm
about 1) need no squaring.

With a constant velocity ``v`` and a constant diffusivity ``d`` every Fourier
mode is an eigenfunction of the operator, so ``exp(delta P)`` is known in
closed form: each cos/sin pair rotates by ``omega = delta 2 pi v.k`` and decays
by ``exp(-delta d |2 pi k|^2)``, and each corner mode (no sine partner on the
grid) only decays.  :func:`mode_step` gives that map per coefficient and
:func:`block_transition` as the scalar channels the filter runs: a pair as
one complex coefficient ``cos + i sin`` times ``rho e^{i omega}``, a corner
as a real one times its decay.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import ModeOrdering

__all__ = [
    "matrix_exp",
    "flipped_generator",
    "build_transition",
    "mode_step",
    "block_transition",
]


# Higham (2005), Table 2.3: the largest 1-norm for which the degree-13 Pade
# approximant of exp is accurate to double precision
THETA_13 = 5.371920351148152
# coefficients c_0..c_13 of the approximant's numerator p(x) (the denominator
# is p(-x)), c_j = (26-j)! 13! / (26! j! (13-j)!); c_0 = 1 makes exp(0) = I exactly
PADE_13 = tuple(math.factorial(26 - j) * math.factorial(13)
                / (math.factorial(26) * math.factorial(j) * math.factorial(13 - j))
                for j in range(14))


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the degree-13 Pade
    approximant (Higham 2005, Algorithm 2.3, the ``m = 13`` branch only).

    ``A`` is scaled by ``2^-s`` so that its 1-norm is at most ``THETA_13``;
    with ``U`` and ``V`` the odd and even parts of the approximant's numerator,
    ``R = (V - U)^-1 (V + U)`` approximates ``exp(2^-s A)``, which is then
    squared ``s`` times.  Built from ``A^2``, ``A^4`` and ``A^6``: six matrix
    products and one LU solve, plus one product per squaring.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of non-finite input")
    norm = np.linalg.norm(a, 1)
    s = int(np.ceil(np.log2(norm / THETA_13))) if norm > THETA_13 else 0
    a = a / 2.0**s
    b = PADE_13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def flipped_generator(p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Conjugate a generator onto the flipped ordering: ``H P pinv(H) = H P (H'H)^-1 H'``."""
    k = h.shape[1]
    if np.shape(p) != (k, k):
        raise ValueError(f"generator must be {k} x {k} to match the flip transfer, "
                         f"got shape {np.shape(p)}")
    return h @ p @ np.linalg.solve(h.T @ h, h.T)


def build_transition(p: np.ndarray, delta: float) -> np.ndarray:
    """Exponentiate a generator over one time step: ``Phi = exp(delta P)``."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return matrix_exp(delta * p)


def _rotation(ordering: ModeOrdering, velocity, delta: float, d: float):
    """The per-coefficient angle ``omega`` (zero for a corner) and decay of one step."""
    vx, vy = velocity
    omega = delta * 2 * np.pi * (vx * ordering.kx + vy * ordering.ky)
    omega[ordering.weight == 1.0] = 0.0
    decay = np.exp(-delta * d * (2 * np.pi) ** 2 * (ordering.kx**2 + ordering.ky**2))
    return omega, decay


def mode_step(ordering: ModeOrdering, velocity, delta: float,
              d: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The exact one-step map of constant velocity ``(vx, vy)`` and constant
    diffusivity ``d`` as ``(own, cross)`` per coefficient: coefficient ``i``
    becomes ``own[i] a[i] + cross[i] a[partner[i]]``, i.e. ``cos' = c cos - s sin``
    and ``sin' = s cos + c sin`` with ``(c, s)`` the rotation by ``omega`` scaled
    by the decay.  Equals ``expm(delta P)`` of the assembled generator."""
    omega, decay = _rotation(ordering, velocity, delta, d)
    sign = np.where(ordering.is_sin, 1.0, -1.0)
    return decay * np.cos(omega), decay * sign * np.sin(omega)


def block_transition(ordering: ModeOrdering, velocity, delta: float,
                     d: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`mode_step` as the scalar channels ``(index, imag, lam)`` of
    :class:`~mirrorspec.kalman.Channels`: the ``P`` cos/sin pairs first,
    channel ``c`` holding ``a[index[c]] + i a[imag[c]]`` (cos + i sin) with
    ``lam[c] = decay e^{i omega}``, then the corners, ``a[index[c]]`` with
    ``lam[c]`` their real decay.  ``lam z`` is the pair's rotation:
    ``cos' + i sin' = decay (cos omega + i sin omega)(cos + i sin)``."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    omega, decay = _rotation(ordering, velocity, delta, d)
    position = np.arange(ordering.k)
    corner = ordering.partner == position
    cos = position[~corner & ~ordering.is_sin]
    corners = position[corner]
    lam = np.concatenate([decay[cos] * np.exp(1j * omega[cos]), decay[corners]])
    return np.concatenate([cos, corners]), ordering.partner[cos], lam
