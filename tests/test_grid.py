import numpy as np
import pytest
import scipy.sparse as sparse

from mirrorspec.grid import (
    DEFAULT_FLIP,
    Field,
    FlipVariant,
    GridSpec,
    flip_field,
    unflip,
)
from oracles import flip_matrix


def reflect_flip_oracle(pixels, variant=DEFAULT_FLIP):
    """Index-reflection oracle: place each source pixel at its four mirror
    positions by explicit per-pixel loops, independent of the implementation."""
    n2, n1 = pixels.shape
    out = np.zeros((2 * n2, 2 * n1))
    for i in range(n2):
        for j in range(n1):
            if variant.y_anchor == "bottom":
                rows = (i, 2 * n2 - 1 - i)
            else:
                rows = (n2 - 1 - i, n2 + i)
            if variant.x_anchor == "right":
                cols = (j, 2 * n1 - 1 - j)
            else:
                cols = (n1 - 1 - j, n1 + j)
            for r in rows:
                for c in cols:
                    out[r, c] = pixels[i, j]
    return out


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(3, 4)
    with pytest.raises(ValueError):
        GridSpec(4, 0)
    g = GridSpec(4, 6)
    assert g.n == 24
    assert g.shape == (6, 4)
    assert np.allclose(g.coords_x(), [0, 0.25, 0.5, 0.75])


def test_field_vectorization_roundtrip():
    g = GridSpec(4, 2)
    rng = np.random.default_rng(0)
    m = rng.normal(size=g.shape)
    f = Field.from_pixels(g, m)
    assert np.array_equal(f.pixels(), m)
    # column stacking: values[j*n2 + i] == M[i, j]
    for j in range(g.n1):
        for i in range(g.n2):
            assert f.values[j * g.n2 + i] == m[i, j]


def test_field_rejects_nonfinite():
    g = GridSpec(2, 2)
    with pytest.raises(ValueError):
        Field(g, np.array([1.0, np.nan, 0.0, 0.0]))


def test_flip_2x2_worked_example():
    # column-stacked y = (y1, y2, y3, y4) on a 2x2 grid
    g = GridSpec(2, 2)
    f = Field(g, np.array([1.0, 2.0, 3.0, 4.0]))
    flipped = flip_field(f)
    expected = np.array([1, 2, 2, 1, 3, 4, 4, 3, 3, 4, 4, 3, 1, 2, 2, 1], dtype=float)
    assert np.array_equal(flipped.values, expected)


def test_flip_constant_field():
    g = GridSpec(6, 4)
    f = Field(g, np.full(g.n, 2.5))
    flipped = flip_field(f)
    assert flipped.grid == GridSpec(12, 8)
    assert np.array_equal(flipped.values, np.full(4 * g.n, 2.5))


def test_flip_single_pixel_against_reflection_oracle():
    g = GridSpec(4, 4)
    m = np.zeros(g.shape)
    m[1, 2] = 1.0
    flipped = flip_field(Field.from_pixels(g, m))
    assert np.array_equal(flipped.pixels(), reflect_flip_oracle(m))
    # exactly four mirror positions
    hits = np.argwhere(flipped.pixels() != 0)
    assert sorted(map(tuple, hits)) == [(1, 2), (1, 5), (6, 2), (6, 5)]


@pytest.mark.parametrize("variant", [
    FlipVariant("right", "bottom"),
    FlipVariant("right", "top"),
    FlipVariant("left", "bottom"),
    FlipVariant("left", "top"),
])
def test_flip_variants_match_oracle(variant):
    rng = np.random.default_rng(3)
    g = GridSpec(6, 4)
    m = rng.normal(size=g.shape)
    flipped = flip_field(Field.from_pixels(g, m), variant)
    assert np.array_equal(flipped.pixels(), reflect_flip_oracle(m, variant))


def test_flip_matrix_2x2_is_kronecker_of_extension_blocks():
    g = GridSpec(2, 2)
    ext = np.array([[1, 0], [0, 1], [0, 1], [1, 0]], dtype=float)  # [I2, J2]^T
    r = flip_matrix(g).toarray()
    assert np.array_equal(r, np.kron(ext, ext))


def test_flip_matrix_structure_and_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n1 = 2 * rng.integers(1, 9)
        n2 = 2 * rng.integers(1, 9)
        g = GridSpec(int(n1), int(n2))
        r = flip_matrix(g)
        assert r.shape == (4 * g.n, g.n)
        dense = r.toarray()
        assert np.array_equal((dense == 1).sum(axis=1), np.ones(4 * g.n))
        assert np.array_equal(dense.sum(axis=0), np.full(g.n, 4.0))
        m = rng.normal(size=g.shape)
        f = Field.from_pixels(g, m)
        assert np.array_equal(r @ f.values, flip_field(f).values)
        assert np.array_equal(r @ f.values, reflect_flip_oracle(m).flatten(order="F"))


def test_flip_matrix_rtr_is_4i():
    g = GridSpec(4, 6)
    r = flip_matrix(g)
    assert (r.T @ r - 4 * sparse.identity(g.n)).nnz == 0


def test_flip_matrix_agrees_elementwise_on_4x4():
    rng = np.random.default_rng(11)
    g = GridSpec(4, 4)
    r = flip_matrix(g)
    for _ in range(100):
        m = rng.normal(size=g.shape)
        assert np.array_equal(r @ m.flatten(order="F"),
                              reflect_flip_oracle(m).flatten(order="F"))


@pytest.mark.parametrize("variant", [
    FlipVariant("right", "bottom"),
    FlipVariant("right", "top"),
    FlipVariant("left", "bottom"),
    FlipVariant("left", "top"),
])
def test_unflip_inverts_flip(variant):
    rng = np.random.default_rng(5)
    g = GridSpec(6, 4)
    f = Field(g, rng.normal(size=g.n))
    assert np.array_equal(unflip(flip_field(f, variant), variant).values, f.values)


def test_unflip_worked_example():
    g = GridSpec(4, 4)
    flipped = np.array([
        [1, 3, 3, 1],
        [2, 4, 4, 2],
        [2, 4, 4, 2],
        [1, 3, 3, 1],
    ], dtype=float)
    out = unflip(Field.from_pixels(g, flipped))
    assert np.array_equal(out.pixels(), np.array([[1, 3], [2, 4]], dtype=float))


def test_unflip_nonsymmetric_extracts_quadrant():
    rng = np.random.default_rng(13)
    g = GridSpec(4, 4)
    m = rng.normal(size=g.shape)
    out = unflip(Field.from_pixels(g, m), FlipVariant("left", "top"))
    assert np.array_equal(out.pixels(), m[2:, 2:])


def test_double_flip_doubles_again():
    rng = np.random.default_rng(17)
    g = GridSpec(2, 4)
    f = Field(g, rng.normal(size=g.n))
    twice = flip_field(flip_field(f))
    assert twice.grid == GridSpec(8, 16)
    assert np.array_equal(twice.pixels(),
                          reflect_flip_oracle(reflect_flip_oracle(f.pixels())))


def test_seam_continuity():
    rng = np.random.default_rng(19)
    g = GridSpec(8, 6)
    m = rng.normal(size=g.shape)
    fl = flip_field(Field.from_pixels(g, m)).pixels()
    interior = max(np.abs(np.diff(m, axis=0)).max(), np.abs(np.diff(m, axis=1)).max())
    # wrap-around pairs and internal seam pairs along every grid line
    seams = [
        np.abs(fl[0, :] - fl[-1, :]).max(),
        np.abs(fl[:, 0] - fl[:, -1]).max(),
        np.abs(fl[g.n2 - 1, :] - fl[g.n2, :]).max(),
        np.abs(fl[:, g.n1 - 1] - fl[:, g.n1]).max(),
    ]
    assert max(seams) <= interior


def test_flip_energy_quadruples():
    rng = np.random.default_rng(23)
    g = GridSpec(4, 8)
    f = Field(g, rng.normal(size=g.n))
    assert np.isclose(flip_field(f).values.sum(), 4 * f.values.sum(), rtol=0, atol=1e-12)
