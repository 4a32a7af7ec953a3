"""Real Fourier basis, wavenumber bookkeeping, transforms, and flip transfer.

A field on an ``n1 x n2`` grid decomposes as

    f(s) = sum_{k in K1} a_k^c cos(2 pi k.s)
           + 2 sum_{k in K2} (a_k^c cos(2 pi k.s) + a_k^s sin(2 pi k.s))

where ``K1`` holds the four self-conjugate corner modes
``{(0,0), (0,n2/2), (n1/2,0), (n1/2,n2/2)}`` (cosine only; the sine vanishes
at every sample) and ``K2`` holds one representative of every remaining
conjugate pair, so that ``|K1| + 2 |K2| = n1*n2`` real degrees of freedom.

The coefficient vector is laid out in three segments
``[cos over K1 | cos over K2 | sin over K2]``.  Truncation retains modes in
ascending ``||k||_2`` order (lexicographic tie-break), always keeping a
cos/sin pair together.

Analysis and synthesis run through the FFT; an explicit basis matrix and the
normal-equation least-squares path exist for verification.  The factor 2 on
``K2`` terms is a synthesis-side weight: analysis stores the plain projection
``(1/N) <f, cos>``, and the weight appears in the basis-matrix columns, so
``synthesize(a) == basis_matrix @ a`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DEFAULT_FLIP, Field, FlipVariant, GridSpec, flip_vector_indices

__all__ = [
    "WavenumberSets",
    "ModeOrdering",
    "SpectralState",
    "FlipTransfer",
    "build_wavenumbers",
    "analyze",
    "synthesize",
    "basis_matrix",
    "flip_transfer",
    "mirror_phase",
]

BASIS_CHUNK = 64  # basis columns evaluated per block in basis_matrix


@dataclass(frozen=True)
class WavenumberSets:
    """The index sets ``K1`` and ``K2`` for a grid, in a fixed order."""

    grid: GridSpec
    k1_list: tuple[tuple[int, int], ...]
    k2_list: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.k1_list) + 2 * len(self.k2_list) != self.grid.n:
            raise ValueError("wavenumber sets do not account for all degrees of freedom")


def build_wavenumbers(grid: GridSpec) -> WavenumberSets:
    """Enumerate ``K1`` and ``K2`` for a grid.

    ``K2`` takes each conjugate pair's representative with
    ``0 <= k1 <= n1/2`` and ``-n2/2 < k2 <= n2/2``: every ``k2`` for interior
    ``k1``, and ``k2 = 1 .. n2/2 - 1`` on the self-conjugate columns
    ``k1 = 0`` and ``k1 = n1/2``.  Listed in ``(k1, k2)`` lexicographic order.
    """
    h1, h2 = grid.n1 // 2, grid.n2 // 2
    k1_list = ((0, 0), (0, h2), (h1, 0), (h1, h2))
    k2 = []
    for kx in range(0, h1 + 1):
        if kx in (0, h1):
            k2.extend((kx, ky) for ky in range(1, h2))
        else:
            k2.extend((kx, ky) for ky in range(-h2 + 1, h2 + 1))
    k2.sort()
    return WavenumberSets(grid, k1_list, tuple(k2))


class ModeOrdering:
    """A truncation of the full coefficient layout.

    ``retained`` lists the kept coefficient indices (positions in the full
    ``[cos K1 | cos K2 | sin K2]`` layout of length ``N``) as a prefix of the
    low-frequency ordering: modes sorted by ``(||k||^2, k1, k2)``, each
    ``K2`` mode contributing its cos and sin coefficient together.  The
    coefficient vectors themselves (``SpectralState.alpha``) follow the
    layout order, i.e. ``sorted(retained)``.

    Requested sizes that would split a cos/sin pair are rounded down to the
    largest admissible prefix.
    """

    def __init__(self, sets: WavenumberSets, n_coeffs: int | None = None):
        grid = sets.grid
        m1, m2 = len(sets.k1_list), len(sets.k2_list)
        total = m1 + 2 * m2

        modes = list(sets.k1_list) + list(sets.k2_list)
        coeff_groups = []  # per mode: tuple of layout positions
        for pos in range(m1):
            coeff_groups.append((pos,))
        for i in range(m2):
            coeff_groups.append((m1 + i, m1 + m2 + i))

        order = sorted(
            range(len(modes)),
            key=lambda i: (modes[i][0] ** 2 + modes[i][1] ** 2, modes[i][0], modes[i][1]),
        )

        if n_coeffs is None:
            n_coeffs = total
        if n_coeffs < 1:
            raise ValueError(f"n_coeffs must be >= 1, got {n_coeffs}")
        n_coeffs = min(n_coeffs, total)

        prefix: list[int] = []
        for mi in order:
            group = coeff_groups[mi]
            if len(prefix) + len(group) > n_coeffs:
                break
            prefix.extend(group)

        self.sets = sets
        self.grid = grid
        self.retained = tuple(prefix)
        self.indices = np.sort(np.asarray(prefix, dtype=int))
        self.k = len(prefix)

        # per-coefficient metadata in layout (alpha) order
        kx = np.empty(self.k, dtype=int)
        ky = np.empty(self.k, dtype=int)
        is_sin = np.zeros(self.k, dtype=bool)
        for out, pos in enumerate(self.indices):
            if pos < m1:
                kx[out], ky[out] = sets.k1_list[pos]
            elif pos < m1 + m2:
                kx[out], ky[out] = sets.k2_list[pos - m1]
            else:
                kx[out], ky[out] = sets.k2_list[pos - m1 - m2]
                is_sin[out] = True
        in_k1 = self.indices < m1
        self.kx = kx
        self.ky = ky
        self.is_sin = is_sin
        self.weight = np.where(in_k1, 1.0, 2.0)
        self.cnorm = np.where(in_k1, 1.0, 0.5)
        # FFT cell of mode k and of its conjugate partner
        self._row = ky % grid.n2
        self._col = kx % grid.n1
        self._row_neg = (-ky) % grid.n2
        self._col_neg = (-kx) % grid.n1
        self._self_paired = (self._row == self._row_neg) & (self._col == self._col_neg)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModeOrdering):
            return NotImplemented
        return self.sets == other.sets and self.retained == other.retained

    def __hash__(self):
        return hash((self.sets, self.retained))

    def __repr__(self):
        return f"ModeOrdering(grid=({self.grid.n1}, {self.grid.n2}), k={self.k})"


@dataclass(frozen=True)
class SpectralState:
    """Coefficient vector in a given ordering's layout."""

    ordering: ModeOrdering
    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != (self.ordering.k,):
            raise ValueError(f"alpha must have shape ({self.ordering.k},), got {alpha.shape}")
        if not np.all(np.isfinite(alpha)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "alpha", alpha)


def analyze(f: Field, ordering: ModeOrdering) -> SpectralState:
    """Project a field onto the retained modes (FFT fast path).

    Equals the least-squares fit over the retained subspace because the basis
    columns are mutually orthogonal on the grid; with full retention,
    ``synthesize(analyze(f))`` reproduces ``f`` to rounding.
    """
    if f.grid != ordering.grid:
        raise ValueError(f"field grid {f.grid} does not match ordering grid {ordering.grid}")
    c = np.fft.fft2(f.pixels()) / f.grid.n
    vals = c[ordering._row, ordering._col]
    alpha = np.where(ordering.is_sin, -vals.imag, vals.real)
    return SpectralState(ordering, alpha)


def synthesize(state: SpectralState) -> Field:
    """Evaluate the (possibly truncated) expansion on its grid."""
    ordering = state.ordering
    grid = ordering.grid
    c = np.zeros(grid.shape, dtype=complex)
    z = np.where(ordering.is_sin, -1j * state.alpha, state.alpha + 0j)
    sp = ordering._self_paired
    np.add.at(c, (ordering._row[sp], ordering._col[sp]), z[sp])
    np.add.at(c, (ordering._row[~sp], ordering._col[~sp]), z[~sp])
    np.add.at(c, (ordering._row_neg[~sp], ordering._col_neg[~sp]), np.conj(z[~sp]))
    pixels = np.fft.ifft2(c * grid.n).real
    return Field.from_pixels(grid, pixels)


def basis_matrix(ordering: ModeOrdering) -> np.ndarray:
    """Dense ``N x K`` matrix: every retained basis function at every grid point.

    Columns follow the coefficient layout and carry the synthesis weight
    (2 on ``K2`` columns), so ``synthesize(a).values == basis_matrix(ordering) @ a.alpha``.
    """
    grid = ordering.grid
    x, y = grid.mesh()
    xf = x.flatten(order="F")
    yf = y.flatten(order="F")
    out = np.empty((grid.n, ordering.k))
    for lo in range(0, ordering.k, BASIS_CHUNK):
        hi = min(lo + BASIS_CHUNK, ordering.k)
        arg = 2.0 * np.pi * (
            xf[:, None] * ordering.kx[lo:hi] + yf[:, None] * ordering.ky[lo:hi]
        )
        block = np.where(ordering.is_sin[lo:hi], np.sin(arg), np.cos(arg))
        out[:, lo:hi] = block * ordering.weight[lo:hi]
    return out


@dataclass(frozen=True)
class FlipTransfer:
    """Linear map ``H`` from original-domain to flipped-domain coefficients.

    ``H`` has full column rank; ``pinv(H) @ H = I`` is asserted at
    construction to 1e-10.
    """

    original_ordering: ModeOrdering
    flipped_ordering: ModeOrdering
    matrix: np.ndarray

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse via the normal equations."""
        h = self.matrix
        return np.linalg.solve(h.T @ h, h.T)


def flip_transfer(
    grid: GridSpec,
    ordering: ModeOrdering,
    flipped_ordering: ModeOrdering,
    variant: FlipVariant = DEFAULT_FLIP,
) -> FlipTransfer:
    """Build ``H = pinv(F*) R F`` restricted to the retained columns.

    Column ``j`` is the flipped-domain analysis of the flipped ``j``-th basis
    field, so with full retention on both sides
    ``synthesize*(H a) == flip_field(synthesize(a))`` exactly.
    """
    if ordering.grid != grid:
        raise ValueError("ordering is not defined on the given grid")
    if flipped_ordering.grid != grid.doubled():
        raise ValueError("flipped ordering must live on the doubled grid")
    fmat = basis_matrix(ordering)
    flipped_cols = fmat[flip_vector_indices(grid, variant), :]
    dg = grid.doubled()
    pix = flipped_cols.reshape((dg.n2, dg.n1, ordering.k), order="F")
    c = np.fft.fft2(pix, axes=(0, 1)) / dg.n
    vals = c[flipped_ordering._row, flipped_ordering._col, :]
    h = np.where(flipped_ordering.is_sin[:, None], -vals.imag, vals.real)
    gram = h.T @ h
    hdag_h = np.linalg.solve(gram, gram)  # fails loudly if rank-deficient
    if not np.allclose(hdag_h, np.eye(ordering.k), atol=1e-10):
        raise AssertionError("flip transfer lost column rank")
    return FlipTransfer(ordering, flipped_ordering, h)


def mirror_phase(ordering: ModeOrdering) -> np.ndarray:
    """Half-sample phase of each retained mode relative to the mirror anchors.

    A flipped field is even about axes lying half a sample off the grid, so
    its complex coefficient at mode ``k`` equals ``exp(i phi_k)`` times a real
    number with ``phi_k = pi (k1/n1 + k2/n2)``.  Rotating coefficients by
    ``-phi_k`` therefore zeroes the sine branch exactly for any flipped field.
    """
    return np.pi * (
        ordering.kx / ordering.grid.n1 + ordering.ky / ordering.grid.n2
    )
