"""Discrete-time transitions: matrix exponential, closed form and conjugation.

A ``K x K`` generator ``P`` over original-domain coefficients conjugates onto
the flipped domain as ``H P pinv(H)``, the dense reference that tests hold
``kalman.flipped_model`` to.  A generator turns into the one-step transition
``Phi = exp(delta P)``, which :mod:`mirrorspec.kalman` augments with the
forcing coefficients.

With a constant velocity ``v`` and a constant diffusivity ``d`` every Fourier
mode is an eigenfunction of the operator, so ``exp(delta P)`` is known in
closed form: each cos/sin pair rotates by ``omega = delta 2 pi v.k`` and decays
by ``exp(-delta d |2 pi k|^2)``, and each corner mode (no sine partner on the
grid) only decays.  :func:`mode_step` gives that map per coefficient and
:func:`block_transition` as the 2x2 pair and 1x1 corner blocks the filter runs.
"""

from __future__ import annotations

import numpy as np

from .spectral import FlipTransfer, ModeOrdering

__all__ = [
    "matrix_exp",
    "flipped_generator",
    "build_transition",
    "mode_step",
    "block_transition",
]


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring (Pade core via scipy)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of non-finite input")
    import scipy.linalg

    return scipy.linalg.expm(a)


def flipped_generator(p: np.ndarray, transfer: FlipTransfer) -> np.ndarray:
    """Conjugate a generator onto the flipped-domain ordering: ``H P pinv(H)``."""
    k = transfer.original_ordering.k
    if np.shape(p) != (k, k):
        raise ValueError(f"generator must be {k} x {k} to match the flip transfer, "
                         f"got shape {np.shape(p)}")
    return transfer.matrix @ p @ transfer.pinv()


def build_transition(p: np.ndarray, delta: float) -> np.ndarray:
    """Exponentiate a generator over one time step: ``Phi = exp(delta P)``."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return matrix_exp(delta * p)


def mode_step(ordering: ModeOrdering, velocity, delta: float,
              d: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The exact one-step map of constant velocity ``(vx, vy)`` and constant
    diffusivity ``d`` as ``(own, cross)`` per coefficient: coefficient ``i``
    becomes ``own[i] a[i] + cross[i] a[partner[i]]``, i.e. ``cos' = c cos - s sin``
    and ``sin' = s cos + c sin`` with ``(c, s)`` the rotation by ``omega`` scaled
    by the decay.  Equals ``expm(delta P)`` of the assembled generator."""
    vx, vy = velocity
    omega = delta * 2 * np.pi * (vx * ordering.kx + vy * ordering.ky)
    omega[ordering.weight == 1.0] = 0.0
    decay = np.exp(-delta * d * (2 * np.pi) ** 2 * (ordering.kx**2 + ordering.ky**2))
    sign = np.where(ordering.is_sin, 1.0, -1.0)
    return decay * np.cos(omega), decay * sign * np.sin(omega)


def block_transition(ordering: ModeOrdering, velocity, delta: float,
                     d: float = 0.0) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`mode_step` as the ``(index, phi)`` batches of a block-diagonal
    transition: ``(P, 2)`` cos/sin positions with their ``(P, 2, 2)`` blocks,
    then ``(C, 1)`` corner positions with their ``(C, 1, 1)`` blocks."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    own, cross = mode_step(ordering, velocity, delta, d)
    position = np.arange(ordering.k)
    corner = ordering.partner == position
    pairs = position[~corner & ~ordering.is_sin]
    pairs = np.column_stack([pairs, ordering.partner[pairs]])
    # rows: (cos', sin') of each pair from its (cos, sin)
    phi = np.stack([np.column_stack([own[pairs[:, 0]], cross[pairs[:, 0]]]),
                    np.column_stack([cross[pairs[:, 1]], own[pairs[:, 1]]])], axis=1)
    corners = position[corner]
    return [(pairs, phi), (corners[:, None], own[corners][:, None, None])]
