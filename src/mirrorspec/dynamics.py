"""Discrete-time transitions: matrix exponential, conjugation, augmentation.

A generator ``P`` over original-domain coefficients conjugates onto the
flipped domain as ``H P pinv(H)``, the dense reference that tests hold
``kalman.flipped_model`` to.  A generator turns into a one-step transition
``Phi = exp(delta P)``, and the augmented transition over ``(alpha, beta)`` is

    G = [[Phi, I],
         [0,   I]]

so one step maps ``(alpha, beta) -> (Phi alpha + beta, beta)``: the forcing
coefficients accumulate into the state as a random walk with constant mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .galerkin import TransitionGenerator
from .spectral import FlipTransfer

__all__ = [
    "DiscreteTransition",
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


def flipped_generator(gen: TransitionGenerator, transfer: FlipTransfer) -> TransitionGenerator:
    """Conjugate a generator onto the flipped-domain ordering: ``H P pinv(H)``."""
    if transfer.original_ordering != gen.ordering:
        raise ValueError("flip transfer and generator use different orderings")
    h = transfer.matrix
    return TransitionGenerator(transfer.flipped_ordering, h @ gen.matrix @ transfer.pinv())


@dataclass(frozen=True)
class DiscreteTransition:
    """One-step transition ``Phi = exp(delta * P)`` plus its augmentation."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
            raise ValueError("phi must be square")
        object.__setattr__(self, "phi", phi)

    @property
    def k(self) -> int:
        return self.phi.shape[0]

    @cached_property
    def augmented(self) -> np.ndarray:
        k = self.k
        g = np.zeros((2 * k, 2 * k))
        g[:k, :k] = self.phi
        g[:k, k:] = np.eye(k)
        g[k:, k:] = np.eye(k)
        return g

    def step(self, theta: np.ndarray) -> np.ndarray:
        """Apply the augmented transition to a stacked ``(alpha, beta)`` vector."""
        k = self.k
        out = np.empty_like(theta)
        out[:k] = self.phi @ theta[:k] + theta[k:]
        out[k:] = theta[k:]
        return out


def build_transition(gen: TransitionGenerator, delta: float) -> DiscreteTransition:
    """Exponentiate a generator over one time step."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return DiscreteTransition(matrix_exp(delta * gen.matrix))
