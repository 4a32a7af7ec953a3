"""Real Fourier basis, its mode table, transforms, and the mirror band.

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
cos/sin pair together.  :class:`ModeOrdering` is the one table of that
decision: built from one sort, it says which coefficients a budget keeps,
where each sits in the layout, its mode, and its cos/sin partner.

Analysis and synthesis run through the FFT, and the reference flip transfer
``H`` is built from them and the flip.  The factor 2 on ``K2`` terms is a
synthesis-side weight: analysis stores the plain projection ``(1/N) <f, cos>``,
and ``synthesize`` of a unit vector is its basis column times the weight.  The
tests hold both transforms and ``H`` to the explicit ``N x K`` basis matrix,
``basis_matrix`` in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, GridSpec, flip_field

__all__ = [
    "ModeOrdering",
    "MirrorBand",
    "analyze",
    "synthesize",
    "flip_transfer",
]


class ModeOrdering:
    """The coefficient layout of a grid, truncated to a budget.

    The full layout is ``[cos K1 | cos K2 | sin K2]``: ``K1`` lists the corners
    ``(0, 0), (0, n2/2), (n1/2, 0), (n1/2, n2/2)`` and ``K2`` one representative
    of every other conjugate pair, ``0 <= k1 <= n1/2`` and ``-n2/2 < k2 <= n2/2``
    (only ``k2 = 1 .. n2/2 - 1`` on the self-conjugate columns ``k1 = 0`` and
    ``k1 = n1/2``), in ``(k1, k2)`` lexicographic order.

    ``retained`` lists the kept layout positions as a prefix of the modes
    sorted by ``(||k||^2, k1, k2)``, each ``K2`` mode contributing its cos and
    sin coefficient together; a budget that would split a pair is rounded down.
    The coefficient vector (what :func:`analyze` returns) follows the layout order,
    ``indices = sorted(retained)``, and ``kx``, ``ky``, ``is_sin``, ``weight``
    and ``partner`` (the position of each coefficient's cos/sin
    partner in that vector, itself for a corner) describe its entries.
    """

    def __init__(self, grid: GridSpec, n_coeffs: int | None = None):
        n_coeffs = grid.n if n_coeffs is None else n_coeffs
        if n_coeffs < 1:
            raise ValueError(f"n_coeffs must be >= 1, got {n_coeffs}")
        h1, h2 = grid.n1 // 2, grid.n2 // 2
        kx, ky = np.meshgrid(np.arange(h1 + 1), np.arange(1 - h2, h2 + 1), indexing="ij")
        in_k2 = ((kx > 0) & (kx < h1)) | ((ky > 0) & (ky < h2))
        m2 = int(in_k2.sum())
        # mode i's cos coefficient sits at layout position i, a K2 mode's sin at i + m2
        mode_x = np.concatenate([[0, 0, h1, h1], kx[in_k2]])
        mode_y = np.concatenate([[0, h2, 0, h2], ky[in_k2]])
        size = np.where(np.arange(4 + m2) < 4, 1, 2)
        norm2 = mode_x**2 + mode_y**2
        # a mode takes at least one coefficient, so every kept mode's ||k||^2 is at
        # most the n_coeffs-th smallest, read off the cumulative histogram of
        # ||k||^2: only the modes within that bound are sorted
        near = np.flatnonzero(norm2 <= np.searchsorted(np.cumsum(np.bincount(norm2)), n_coeffs))
        order = near[np.lexsort((mode_y[near], mode_x[near], norm2[near]))]
        kept = order[np.cumsum(size[order]) <= n_coeffs]
        retained = np.column_stack([kept, np.where(kept < 4, -1, kept + m2)]).ravel()
        retained = retained[retained >= 0]

        self.grid = grid
        self.retained = tuple(retained.tolist())
        self.indices = np.sort(retained)
        self.k = len(self.retained)
        self.kx = np.concatenate([mode_x, mode_x[4:]])[self.indices]
        self.ky = np.concatenate([mode_y, mode_y[4:]])[self.indices]
        in_k1 = self.indices < 4
        self.is_sin = self.indices >= 4 + m2
        self.weight = np.where(in_k1, 1.0, 2.0)
        partner = self.indices + np.where(in_k1, 0, np.where(self.is_sin, -m2, m2))
        self.partner = np.searchsorted(self.indices, partner)
        # FFT cell of mode k and of its conjugate partner
        self._row = self.ky % grid.n2
        self._col = self.kx % grid.n1
        self._row_neg = (-self.ky) % grid.n2
        self._col_neg = (-self.kx) % grid.n1

    def __repr__(self):
        return f"ModeOrdering(grid=({self.grid.n1}, {self.grid.n2}), k={self.k})"


def analyze(f: Field, ordering: ModeOrdering) -> np.ndarray:
    """Project a field onto the retained modes (FFT fast path).

    Equals the least-squares fit over the retained subspace because the basis
    columns are mutually orthogonal on the grid; with full retention,
    ``synthesize(ordering, analyze(f, ordering))`` reproduces ``f`` to rounding.
    """
    if f.grid != ordering.grid:
        raise ValueError(f"field grid {f.grid} does not match ordering grid {ordering.grid}")
    c = np.fft.fft2(f.pixels()) / f.grid.n
    vals = c[ordering._row, ordering._col]
    return np.where(ordering.is_sin, -vals.imag, vals.real)


def synthesize(ordering: ModeOrdering, alpha: np.ndarray) -> Field:
    """Evaluate the (possibly truncated) expansion ``alpha`` on its grid.

    A kept mode's cos and sin coefficients share one FFT cell, so each cell is
    written once: ``a_cos - i a_sin`` at the mode's cell, found from its cos
    coefficient and the sine at its ``partner``, and the conjugate at the
    mirrored cell.  A corner is its own partner and mirror, with no sine."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (ordering.k,):
        raise ValueError(f"alpha must have shape ({ordering.k},), got {alpha.shape}")
    grid = ordering.grid
    cos = ~ordering.is_sin
    partner = ordering.partner[cos]
    z = alpha[cos] - 1j * np.where(ordering.is_sin[partner], alpha[partner], 0.0)
    c = np.zeros(grid.shape, dtype=complex)
    c[ordering._row_neg[cos], ordering._col_neg[cos]] = np.conj(z)
    c[ordering._row[cos], ordering._col[cos]] = z
    c *= grid.n
    c += 0.0  # a signed zero becomes +0.0, so a zero expansion synthesizes +0.0 pixels
    pixels = np.fft.ifft2(c).real
    return Field.from_pixels(grid, pixels)


def flip_transfer(grid: GridSpec, ordering: ModeOrdering, star: ModeOrdering) -> np.ndarray:
    """The ``star.k x ordering.k`` matrix ``H = pinv(F*) R F`` from
    original-domain coefficients to those of ``star`` on the doubled grid.

    Column ``j`` is the doubled-grid analysis of the flipped ``j``-th basis
    field, ``analyze(flip_field(synthesize(ordering, e_j)), star)``, so with
    full retention on both sides
    ``synthesize(star, H a) == flip_field(synthesize(ordering, a))`` exactly.
    ``H`` must have full column rank: a ValueError names the rank found when
    ``star`` keeps too few modes for that.
    """
    if ordering.grid != grid:
        raise ValueError("ordering is not defined on the given grid")
    if star.grid != grid.doubled():
        raise ValueError("flipped ordering must live on the doubled grid")
    h = np.column_stack([analyze(flip_field(synthesize(ordering, e)), star)
                         for e in np.eye(ordering.k)])
    rank = np.linalg.matrix_rank(h)
    if rank < ordering.k:
        raise ValueError(f"flip transfer lost column rank: rank {rank} of K = {ordering.k} "
                         f"(star keeps {star.k} coefficients)")
    return h


def _dct_matrix(m: int) -> np.ndarray:
    """The orthonormal ``m x m`` DCT-II matrix: ``C @ x`` is ``scipy.fft.dct(x, norm="ortho")``."""
    k = np.arange(m)[:, None]
    c = np.sqrt(2.0 / m) * np.cos(np.pi * k * (2 * np.arange(m) + 1) / (2 * m))
    c[0] /= np.sqrt(2.0)
    return c


class MirrorBand:
    """The mirrored model's observations: the orthonormal 2-D DCT-II of a frame
    at the indices ``(|k_y|, |k_x|)`` of the modes that ``k_star``
    coefficients keep on the doubled grid, scaled by ``1/sqrt(2 n)`` (the
    constant mode by ``sqrt(2)`` more).

    A flipped frame is even about two half-sample axes, so its doubled-grid
    coefficient at ``k`` is ``exp(i phi_k)``, ``phi_k = pi (k_x/N1 + k_y/N2)`` on
    the ``N1 x N2`` doubled grid, times the DCT-II one (Makhoul 1980, IEEE
    TASSP 28(1); Martucci 1994, IEEE TSP 42(5)): the band coordinates have the
    norm of ``analyze(flip_field(f), star)`` when ``star`` keeps both modes
    ``(k_x, +-k_y)`` of each index.  A budget that splits such a pair at its
    edge gets the whole pair.

    The 2-D DCT-II is separable, so the band keeps only the DCT-II rows it
    reads: ``C_x`` holds the distinct ``cols`` along x and ``C_y`` the distinct
    ``rows`` along y, and band index ``s`` sits at ``(ix[s], iy[s])`` among
    them.  On the column-stacked values reshaped to ``F`` (``n1 x n2``),
    ``observe`` is ``scale * (C_x F C_y')[ix, iy]`` and ``reconstruct``, the
    inverse DCT of the band, is ``C_x' M C_y`` with ``M[ix, iy] = coeffs / scale``
    and zero elsewhere.  No array is ``n`` wide.
    """

    def __init__(self, grid: GridSpec, k_star: int):
        star = ModeOrdering(grid.doubled(), k_star)
        inside = (star.kx < grid.n1) & (np.abs(star.ky) < grid.n2)  # the doubled Nyquist is 0
        self.grid = grid
        # one integer key per (|k_y|, k_x), kx < n1; np.unique imports numpy.ma
        # unless it returns the inverse
        key, _ = np.unique(np.abs(star.ky[inside]) * grid.n1 + star.kx[inside],
                           return_inverse=True)
        self.rows, self.cols = np.divmod(key, grid.n1)
        self.k = len(self.rows)
        self.scale = np.where(self.rows + self.cols > 0, 1.0, np.sqrt(2.0)) / np.sqrt(2 * grid.n)
        ux, self._ix = np.unique(self.cols, return_inverse=True)
        uy, self._iy = np.unique(self.rows, return_inverse=True)
        self._dct_x = _dct_matrix(grid.n1)[ux]
        self._dct_y = _dct_matrix(grid.n2)[uy]

    def observe(self, f: Field) -> np.ndarray:
        fxy = f.values.reshape(self.grid.n1, self.grid.n2)  # fxy[x, y]
        return self.scale * (self._dct_x @ fxy @ self._dct_y.T)[self._ix, self._iy]

    def transfer(self, ordering: ModeOrdering) -> np.ndarray:
        """``H_S`` (``k x ordering.k``): the band coordinates of each basis column,
        ``observe`` of ``synthesize(ordering, e_j)`` for every unit vector
        ``e_j``, from 1-D DCT projections.

        Band coordinate ``s`` is ``scale[s]`` times the DCT-II rows
        ``C_x[ix[s]]`` along x and ``C_y[iy[s]]`` along y applied to the field,
        and by the angle-sum identities a basis column ``w cos|sin(a_x + a_y)``,
        with ``a_x = 2 pi k_x x`` and ``a_y = 2 pi k_y y``, is a sum of two
        products of a function of ``x`` and one of ``y``.  So each entry is a
        sum of two products of the 1-D projections ``C_x @ cos|sin(a_x)`` and
        ``C_y @ cos|sin(a_y)``: the same sums in another order, exact up to
        rounding.  That costs ``O((|C_x| n1 + |C_y| n2) K + dim S K)`` with no
        ``n x K`` basis table.
        """
        if ordering.grid != self.grid:
            raise ValueError("ordering is not defined on the band's grid")
        ax = 2.0 * np.pi * np.outer(self.grid.coords_x(), ordering.kx)
        ay = 2.0 * np.pi * np.outer(self.grid.coords_y(), ordering.ky)
        cx, sx = (self._dct_x @ np.cos(ax))[self._ix], (self._dct_x @ np.sin(ax))[self._ix]
        cy, sy = (self._dct_y @ np.cos(ay))[self._iy], (self._dct_y @ np.sin(ay))[self._iy]
        h = np.where(ordering.is_sin, sx * cy + cx * sy, cx * cy - sx * sy)
        return h * self.scale[:, None] * ordering.weight

    def reconstruct(self, coeffs: np.ndarray) -> Field:
        m = np.zeros((len(self._dct_x), len(self._dct_y)))
        m[self._ix, self._iy] = coeffs / self.scale
        return Field(self.grid, (self._dct_x.T @ m @ self._dct_y).ravel())
