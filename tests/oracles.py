"""Reference operators that only tests use."""

import numpy as np
import scipy.sparse as sparse

from mirrorspec.grid import DEFAULT_FLIP, FlipVariant, GridSpec, flip_vector_indices


def flip_matrix(grid: GridSpec, variant: FlipVariant = DEFAULT_FLIP) -> sparse.csr_matrix:
    """The sparse ``4N x N`` permutation-like matrix ``R`` of the double flip.

    ``R @ f.values == flip_field(f).values`` for every field ``f``; each row
    holds a single 1 and each column sums to 4.  For an ``(n1, n2)`` grid it
    equals the Kronecker product of the two single-axis extension matrices,
    x-factor first (the factor order is fixed by the column-stacking
    convention, validated against the worked 2x2 example in the tests).
    """
    n = grid.n
    cols = flip_vector_indices(grid, variant)
    data = np.ones(4 * n)
    return sparse.csr_matrix((data, (np.arange(4 * n), cols)), shape=(4 * n, n))
