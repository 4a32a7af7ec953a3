"""Discrete-time transitions: matrix exponential and conjugation.

A ``K x K`` generator ``P`` over original-domain coefficients conjugates onto
the flipped domain as ``H P pinv(H)``, the dense reference that tests hold
``kalman.flipped_model`` to.  A generator turns into the one-step transition
``Phi = exp(delta P)``, which :mod:`mirrorspec.kalman` augments with the
forcing coefficients.
"""

from __future__ import annotations

import numpy as np

from .spectral import FlipTransfer

__all__ = [
    "matrix_exp",
    "flipped_generator",
    "build_transition",
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
