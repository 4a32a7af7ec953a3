import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mirrorspec.grid import DEFAULT_FLIP, Field, FlipVariant, GridSpec, flip_field, unflip
from mirrorspec.spectral import (
    MirrorBand,
    ModeOrdering,
    analyze,
    flip_transfer,
    synthesize,
)
from oracles import band_analysis, basis_matrix, dense_flip_transfer


def enumerate_k2_bruteforce(n1, n2):
    """Pick one representative per conjugate pair of the full wavenumber
    lattice, skipping the four self-conjugate corners."""
    seen = set()
    reps = []
    corners = {(0, 0), (0, n2 // 2), (n1 // 2, 0), (n1 // 2, n2 // 2)}
    for a in range(n1):
        for b in range(n2):
            if (a, b) in seen:
                continue
            neg = ((-a) % n1, (-b) % n2)
            seen.add((a, b))
            seen.add(neg)
            # canonical (k1, k2) with k1 in [0, n1/2], k2 in (-n2/2, n2/2]
            k1 = a if a <= n1 // 2 else a - n1
            k2 = b if b <= n2 // 2 else b - n2
            if k1 < 0:
                k1, k2 = -k1, -k2
            if (k1, k2) in corners:
                continue
            if k1 == 0 or k1 == n1 // 2:
                k2 = abs(k2) if k2 != n2 // 2 else k2
            reps.append((k1, k2))
    return reps


def lstsq_analyze_oracle(field, ordering):
    """Normal-equation least squares against the explicit basis matrix."""
    f = basis_matrix(ordering)
    return np.linalg.solve(f.T @ f, f.T @ field.values)


def reference_ordering(grid, n_coeffs=None):
    """The mode table built mode by mode: list K1 and K2, sort the modes in
    Python by ``(||k||^2, k1, k2)``, take whole cos/sin groups while they fit,
    and pair coefficients through a ``(kx, ky)`` dictionary."""
    h1, h2 = grid.n1 // 2, grid.n2 // 2
    k1_list = [(0, 0), (0, h2), (h1, 0), (h1, h2)]
    k2_list = []
    for kx in range(0, h1 + 1):
        if kx in (0, h1):
            k2_list.extend((kx, ky) for ky in range(1, h2))
        else:
            k2_list.extend((kx, ky) for ky in range(-h2 + 1, h2 + 1))
    k2_list.sort()
    m1, m2 = len(k1_list), len(k2_list)
    assert m1 + 2 * m2 == grid.n
    modes = k1_list + k2_list
    groups = [(pos,) for pos in range(m1)] + [(m1 + i, m1 + m2 + i) for i in range(m2)]
    order = sorted(range(len(modes)),
                   key=lambda i: (modes[i][0] ** 2 + modes[i][1] ** 2, modes[i][0], modes[i][1]))
    n_coeffs = grid.n if n_coeffs is None else min(n_coeffs, grid.n)
    retained = []
    for mi in order:
        if len(retained) + len(groups[mi]) > n_coeffs:
            break
        retained.extend(groups[mi])
    indices = np.sort(np.asarray(retained, dtype=int))
    layout = modes + k2_list
    kx, ky = np.array([layout[pos] for pos in indices], dtype=int).reshape(-1, 2).T
    partner = np.arange(len(indices))
    by_mode = {}
    for i in range(len(indices)):
        by_mode.setdefault((kx[i], ky[i]), []).append(i)
    for pair in by_mode.values():
        if len(pair) == 2:
            partner[pair[0]], partner[pair[1]] = pair[1], pair[0]
    return SimpleNamespace(retained=tuple(retained), indices=indices, kx=kx, ky=ky,
                           is_sin=indices >= m1 + m2, partner=partner)


def table_grids():
    """Every even square size 2-24 with every budget from 1 to past N and
    None, then 64, 100 and 200 at budgets around their edges and the shipped ones."""
    for n in range(2, 25, 2):
        for k in [*range(1, n * n + 3), None]:
            yield GridSpec(n, n), k
    for n1, n2 in ((2, 8), (6, 4), (10, 6), (4, 12)):
        for k in [*range(1, n1 * n2 + 2), None]:
            yield GridSpec(n1, n2), k
    for n in (64, 100, 200):
        for k in (1, 2, 5, 6, 25, 50, 99, 100, 196, 199, 200, 400, 800, n * n - 1, n * n, None):
            yield GridSpec(n, n), k


def test_mode_table_matches_the_reference_construction():
    cases = 0
    for grid, k in table_grids():
        table, ref = ModeOrdering(grid, k), reference_ordering(grid, k)
        assert table.retained == ref.retained, (grid, k)
        assert table.k == len(ref.retained)
        for name in ("indices", "kx", "ky", "is_sin", "partner"):
            assert np.array_equal(getattr(table, name), getattr(ref, name)), (grid, k, name)
        cases += 1
    assert cases > 600


def full_sort_ordering(grid, n_coeffs):
    """The mode table with every mode of the grid sorted by one ``lexsort``
    on ``(||k||^2, k1, k2)``, whole cos/sin groups taken while they fit."""
    h1, h2 = grid.n1 // 2, grid.n2 // 2
    kx, ky = np.meshgrid(np.arange(h1 + 1), np.arange(1 - h2, h2 + 1), indexing="ij")
    in_k2 = ((kx > 0) & (kx < h1)) | ((ky > 0) & (ky < h2))
    m2 = int(in_k2.sum())
    mode_x = np.concatenate([[0, 0, h1, h1], kx[in_k2]])
    mode_y = np.concatenate([[0, h2, 0, h2], ky[in_k2]])
    size = np.where(np.arange(4 + m2) < 4, 1, 2)
    order = np.lexsort((mode_y, mode_x, mode_x**2 + mode_y**2))
    kept = order[np.cumsum(size[order]) <= n_coeffs]
    retained = [p for mode in kept.tolist() for p in ((mode,) if mode < 4 else (mode, mode + m2))]
    indices = np.sort(retained)
    sin = indices >= 4 + m2
    cos_mode = np.where(sin, indices - m2, indices)
    partner = np.searchsorted(indices, np.where(indices < 4, indices,
                                                np.where(sin, indices - m2, indices + m2)))
    return SimpleNamespace(retained=tuple(retained), indices=indices, kx=mode_x[cos_mode],
                           ky=mode_y[cos_mode], is_sin=sin, weight=np.where(indices < 4, 1.0, 2.0),
                           partner=partner)


@pytest.mark.parametrize("grid", [GridSpec(100, 100), GridSpec(200, 200), GridSpec(100, 60),
                                  GridSpec(36, 200), GridSpec(60, 100).doubled()], ids=str)
def test_partial_sort_keeps_the_full_sort_table(grid):
    """The constructor sorts only the modes within the ``n_coeffs``-th smallest
    ``||k||^2``; the table must be the one a sort of every mode gives, also at
    budgets that split a cos/sin pair, end inside a run of equal ``||k||^2``,
    or exceed the grid (k* = 200, 400, 800 are the 100x100 mirror bands)."""
    splits = 0
    for k in (*range(1, 60), 99, 100, 199, 200, 399, 400, 799, 800, grid.n - 1, grid.n, grid.n + 7):
        table, oracle = ModeOrdering(grid, k), full_sort_ordering(grid, k)
        assert table.retained == oracle.retained, k
        assert table.k == len(oracle.retained)
        for name in ("indices", "kx", "ky", "is_sin", "weight", "partner"):
            assert np.array_equal(getattr(table, name), getattr(oracle, name)), (k, name)
        splits += table.k < min(k, grid.n)
    assert splits > 10


def test_mode_table_rejects_an_empty_budget():
    with pytest.raises(ValueError, match="n_coeffs"):
        ModeOrdering(GridSpec(4, 4), 0)


def corners_and_pairs(grid):
    """The ``K1`` modes (the ``weight == 1`` rows) and ``K2`` modes (the modes
    of the ``is_sin`` rows) of the full table, in layout order."""
    table = ModeOrdering(grid)
    corner = table.weight == 1.0
    return (list(zip(table.kx[corner].tolist(), table.ky[corner].tolist())),
            list(zip(table.kx[table.is_sin].tolist(), table.ky[table.is_sin].tolist())))


def test_wavenumbers_4x4():
    k1, k2 = corners_and_pairs(GridSpec(4, 4))
    assert k1 == [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert len(k2) == 6
    assert 4 + 2 * 6 == 16
    assert set(k2) == set(enumerate_k2_bruteforce(4, 4))


def test_wavenumbers_2x2():
    k1, k2 = corners_and_pairs(GridSpec(2, 2))
    assert k1 == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert k2 == []


def test_wavenumbers_100x100():
    _, k2 = corners_and_pairs(GridSpec(100, 100))
    assert 4 + 2 * len(k2) == 10000


@pytest.mark.parametrize("n1,n2", [(2, 4), (6, 4), (8, 8), (6, 10)])
def test_wavenumbers_match_bruteforce(n1, n2):
    _, pairs = corners_and_pairs(GridSpec(n1, n2))
    assert set(pairs) == set(enumerate_k2_bruteforce(n1, n2))
    assert len(pairs) == len(set(pairs))
    for k1, k2 in pairs:
        assert 0 <= k1 <= n1 // 2
        assert -n2 // 2 < k2 <= n2 // 2


def test_ordering_prefix_and_pairing():
    g = GridSpec(8, 8)
    full = ModeOrdering(g)
    assert full.k == 64
    trunc = ModeOrdering(g, 9)
    assert trunc.k == 9  # (0,0) + four cos/sin pairs
    smaller = ModeOrdering(g, 10)
    assert smaller.k == 9  # cannot split a pair
    assert trunc.retained == ModeOrdering(g, 9).retained
    assert full.retained[: trunc.k] == trunc.retained
    # norms along the prefix are non-decreasing
    norms = [full.kx[list(full.indices).index(p)] ** 2
             + full.ky[list(full.indices).index(p)] ** 2 for p in full.retained]
    assert all(a <= b for a, b in zip(norms[:-1:2], norms[2::2]))


def test_analyze_single_cosine_mode():
    g = GridSpec(8, 8)
    x, _ = g.mesh()
    f = Field.from_pixels(g, np.cos(2 * np.pi * x))
    ordering = ModeOrdering(g)
    alpha = analyze(f, ordering)
    expected = np.zeros(ordering.k)
    (pos,) = np.where((ordering.kx == 1) & (ordering.ky == 0) & ~ordering.is_sin)
    expected[pos] = 0.5
    assert np.allclose(alpha, expected, atol=1e-12)
    oracle = lstsq_analyze_oracle(f, ordering)
    assert np.allclose(alpha, oracle, atol=1e-10)


def test_analyze_constant_field():
    g = GridSpec(6, 4)
    f = Field(g, np.ones(g.n))
    ordering = ModeOrdering(g)
    alpha = analyze(f, ordering)
    (pos,) = np.where((ordering.kx == 0) & (ordering.ky == 0))
    assert np.isclose(alpha[pos[0]], 1.0, atol=1e-13)
    mask = np.ones(ordering.k, dtype=bool)
    mask[pos] = False
    assert np.abs(alpha[mask]).max() < 1e-13


def test_roundtrip_and_lstsq_oracle_6x4():
    rng = np.random.default_rng(2)
    g = GridSpec(6, 4)
    f = Field(g, rng.normal(size=g.n))
    ordering = ModeOrdering(g)
    alpha = analyze(f, ordering)
    assert np.allclose(alpha, lstsq_analyze_oracle(f, ordering), atol=1e-10)
    back = synthesize(ordering, alpha)
    assert np.abs(back.values - f.values).max() <= 1e-9 * max(1.0, np.abs(f.values).max())
    # truncated projection is still the least-squares fit on the subspace
    truncated = ModeOrdering(g, 9)
    assert np.allclose(
        analyze(f, truncated), lstsq_analyze_oracle(f, truncated), atol=1e-10
    )


def test_synthesize_unit_constant():
    g = GridSpec(4, 4)
    ordering = ModeOrdering(g)
    alpha = np.zeros(ordering.k)
    (pos,) = np.where((ordering.kx == 0) & (ordering.ky == 0))
    alpha[pos] = 1.0
    out = synthesize(ordering, alpha)
    assert np.allclose(out.values, 1.0, atol=1e-13)


def test_synthesize_rejects_a_vector_of_another_ordering():
    ordering = ModeOrdering(GridSpec(4, 4), 9)
    with pytest.raises(ValueError, match=r"alpha must have shape \(9,\), got \(16,\)"):
        synthesize(ordering, np.zeros(16))


def test_synthesize_matches_basis_matrix():
    rng = np.random.default_rng(4)
    g = GridSpec(6, 8)
    for k in (1, 9, g.n):
        ordering = ModeOrdering(g, k)
        alpha = rng.normal(size=ordering.k)
        f = synthesize(ordering, alpha)
        assert np.allclose(f.values, basis_matrix(ordering) @ alpha, atol=1e-10)


def test_basis_orthogonality_2x2_and_8x8():
    for n in (2, 8):
        g = GridSpec(n, n)
        ordering = ModeOrdering(g)
        f = basis_matrix(ordering)
        gram = f.T @ f
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-9
        # (1/N) F^T F over the weight is the identity: w^2 c = w with c = mean(cos^2)
        scale = 1.0 / (g.n * ordering.weight)
        assert np.allclose(np.diag(gram) * scale, 1.0, atol=1e-12)


def test_basis_nyquist_column_alternates():
    g = GridSpec(8, 8)
    ordering = ModeOrdering(g)
    f = basis_matrix(ordering)
    (pos,) = np.where((ordering.kx == 0) & (ordering.ky == 4) & ~ordering.is_sin)
    col = f[:, pos[0]].reshape(g.shape, order="F")
    _, i = np.meshgrid(np.arange(g.n1), np.arange(g.n2))
    assert np.allclose(col, (-1.0) ** i, atol=1e-12)


def test_parseval_consistency():
    rng = np.random.default_rng(6)
    g = GridSpec(8, 6)
    f = Field(g, rng.normal(size=g.n))
    ordering = ModeOrdering(g)
    a = analyze(f, ordering)
    k1 = ordering.weight == 1.0
    energy = np.sum(a[k1] ** 2) + 2 * np.sum(a[~k1] ** 2)
    assert np.isclose(energy, np.mean(f.values**2), rtol=1e-9)


def test_truncation_error_monotone():
    rng = np.random.default_rng(8)
    g = GridSpec(10, 8)
    f = Field(g, rng.normal(size=g.n))
    errs = []
    for k in (1, 5, 11, 23, 41, g.n):
        ordering = ModeOrdering(g, k)
        recon = synthesize(ordering, analyze(f, ordering))
        errs.append(np.linalg.norm(f.values - recon.values))
    assert all(a >= b - 1e-12 for a, b in zip(errs[:-1], errs[1:]))
    assert errs[-1] < 1e-9


@pytest.mark.parametrize("variant", [
    DEFAULT_FLIP,
    FlipVariant("left", "top"),
])
def test_mirror_symmetry_sine_sparsity(variant):
    # After rotating out the half-sample mirror phase, flipped fields have an
    # exactly zero sine branch: Im(c_k * exp(-i phi_k)) == 0.
    rng = np.random.default_rng(10)
    g = GridSpec(6, 4)
    ordering = ModeOrdering(g.doubled())
    # the half-sample phase of each mode relative to the mirror anchors
    phase = np.pi * (ordering.kx / ordering.grid.n1 + ordering.ky / ordering.grid.n2)
    for _ in range(10):
        f = Field(g, rng.normal(size=g.n))
        a = analyze(flip_field(f, variant), ordering)
        cos_idx = ~ordering.is_sin
        c = np.zeros(ordering.k // 1, dtype=complex)
        # rebuild complex coefficients c_k = alpha_c - i alpha_s per mode
        modes = {}
        for i in range(ordering.k):
            key = (ordering.kx[i], ordering.ky[i])
            modes.setdefault(key, [0.0, 0.0, 0.0])[2 if ordering.is_sin[i] else 1] = a[i]
            modes[key][0] = phase[i]
        scale = np.abs(a).max() + 1e-30
        for ph, ac, asin in modes.values():
            rotated = (ac - 1j * asin) * np.exp(-1j * ph)
            assert abs(rotated.imag) <= 1e-9 * max(1.0, scale)
        assert cos_idx.any()


@pytest.mark.parametrize("variant", [
    FlipVariant(x, y) for x in ("right", "left") for y in ("bottom", "top")
], ids=lambda v: f"{v.x_anchor}-{v.y_anchor}")
def test_mirror_band_is_the_doubled_grid_truncation(variant):
    # k* = 65 keeps both (k_x, +-k_y) of every doubled-grid mode it holds, so the
    # band is exactly the truncation of the flipped field, whatever the anchors
    rng = np.random.default_rng(14)
    g = GridSpec(12, 8)
    star = ModeOrdering(g.doubled(), 65)
    band = MirrorBand(g, 65)
    assert (star.k, band.k) == (65, 21)
    for _ in range(5):
        f = Field(g, rng.normal(size=g.n))
        alpha = analyze(flip_field(f, variant), star)
        y = band.observe(f)
        want = unflip(synthesize(star, alpha), variant)
        assert np.abs(band.reconstruct(y).values - want.values).max() <= 1e-12
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(alpha), rel=1e-12)


def test_mirror_band_completes_a_split_pair():
    # k* = 64 keeps one of the two doubled-grid modes (k_x, +-k_y) at its edge;
    # the band holds their shared DCT-II index, so it holds the whole pair
    g = GridSpec(12, 8)
    star = ModeOrdering(g.doubled(), 64)
    band = MirrorBand(g, 64)
    assert band.k == MirrorBand(g, 65).k == 21 and star.k == 63
    f = Field(g, np.random.default_rng(15).normal(size=g.n))
    alpha = analyze(flip_field(f), star)
    assert np.linalg.norm(band.observe(f)) > np.linalg.norm(alpha)


def test_mirror_band_transfer_observes_the_basis_columns():
    rng = np.random.default_rng(16)
    g = GridSpec(12, 8)
    ordering = ModeOrdering(g, 16)
    band = MirrorBand(g, 65)
    a = rng.normal(size=ordering.k)
    y = band.observe(synthesize(ordering, a))
    assert np.abs(band.transfer(ordering) @ a - y).max() <= 1e-12
    with pytest.raises(ValueError):  # the transposed grid has as many points
        band.transfer(ModeOrdering(GridSpec(8, 12), 16))


def test_flip_transfer_constant_maps_to_constant():
    g = GridSpec(4, 4)
    ordering = ModeOrdering(g)
    ordering_star = ModeOrdering(g.doubled())
    h = flip_transfer(g, ordering, ordering_star)
    alpha = np.zeros(ordering.k)
    (pos,) = np.where((ordering.kx == 0) & (ordering.ky == 0))
    alpha[pos] = 1.0
    mapped = h @ alpha
    (pos_star,) = np.where((ordering_star.kx == 0) & (ordering_star.ky == 0))
    expected = np.zeros(ordering_star.k)
    expected[pos_star] = 1.0
    assert np.allclose(mapped, expected, atol=1e-12)


def test_flip_transfer_full_retention_equivalence():
    rng = np.random.default_rng(12)
    g = GridSpec(4, 4)
    ordering = ModeOrdering(g)
    ordering_star = ModeOrdering(g.doubled())
    h = flip_transfer(g, ordering, ordering_star)
    for _ in range(50):
        alpha = rng.normal(size=ordering.k)
        via_h = synthesize(ordering_star, h @ alpha)
        direct = flip_field(synthesize(ordering, alpha))
        assert np.abs(via_h.values - direct.values).max() <= 1e-9


def test_flip_transfer_pinv_property():
    g = GridSpec(4, 4)
    ordering = ModeOrdering(g)
    ordering_star = ModeOrdering(g.doubled())
    h = flip_transfer(g, ordering, ordering_star)
    assert isinstance(h, np.ndarray) and h.shape == (ordering_star.k, ordering.k)
    # the normal-equation pseudo-inverse of flipped_generator
    pinv = np.linalg.solve(h.T @ h, h.T)
    assert np.abs(pinv @ h - np.eye(ordering.k)).max() <= 1e-10
    # brute-force SVD pseudo-inverse oracle
    assert np.allclose(pinv, np.linalg.pinv(h), atol=1e-10)


@pytest.mark.parametrize("shape", [(8, 12), (12, 8)])
@pytest.mark.parametrize("k", [1, 7, 20, None], ids=["k1", "k7", "k20", "full"])
def test_flip_transfer_equals_the_basis_table_oracle(shape, k):
    # synthesis, flip and analysis against the basis table's rows gathered by
    # the flip's index map and one fft2, with K* = 4K
    g = GridSpec(*shape)
    ordering = ModeOrdering(g, k)
    star = ModeOrdering(g.doubled(), 4 * ordering.k)
    h = flip_transfer(g, ordering, star)
    assert h.shape == (star.k, ordering.k)
    assert np.abs(h - dense_flip_transfer(g, ordering, star)).max() <= 1e-12


def test_analyze_grid_mismatch():
    f = Field(GridSpec(4, 4), np.zeros(16))
    ordering = ModeOrdering(GridSpec(6, 4))
    with pytest.raises(ValueError):
        analyze(f, ordering)


@pytest.mark.parametrize("shape, k_star", [
    ((12, 8), 64),  # splits the pair (k_x, +-k_y) at the band edge
    ((12, 8), 65),
    ((16, 16), 36),
    ((24, 16), 100),
    ((10, 30), 400),
])
def test_mirror_band_matrix_equals_scipy_dctn(shape, k_star):
    import scipy.fft

    rng = np.random.default_rng(17)
    g = GridSpec(*shape)
    band = MirrorBand(g, k_star)
    ordering = ModeOrdering(g, k_star // 4)
    f = Field(g, rng.normal(size=g.n))
    want = scipy.fft.dctn(f.pixels(), norm="ortho")[band.rows, band.cols] * band.scale
    assert np.abs(band.observe(f) - want).max() <= 1e-12
    cols = basis_matrix(ordering).reshape((*g.shape, ordering.k), order="F")
    want = scipy.fft.dctn(cols, axes=(0, 1), norm="ortho")[band.rows, band.cols]
    assert np.abs(band.transfer(ordering) - want * band.scale[:, None]).max() <= 1e-12
    y = rng.normal(size=band.k)
    c = np.zeros(g.shape)
    c[band.rows, band.cols] = y / band.scale
    want = Field.from_pixels(g, scipy.fft.idctn(c, norm="ortho"))
    assert np.abs(band.reconstruct(y).values - want.values).max() <= 1e-12


BAND_BUDGETS = pytest.mark.parametrize("shape, k_star", [
    ((100, 100), 100),  # the flip100, flip200 and flip400 budgets
    ((100, 100), 200),
    ((100, 100), 400),
    ((24, 10), 200),
])


@BAND_BUDGETS
def test_transfer_equals_the_basis_matrix_oracle(shape, k_star):
    g = GridSpec(*shape)
    band = MirrorBand(g, k_star)
    ordering = ModeOrdering(g, k_star // 4)
    want = band_analysis(band) @ basis_matrix(ordering)
    assert np.abs(band.transfer(ordering) - want).max() <= 1e-13


@BAND_BUDGETS
def test_observe_equals_the_analysis_matrix_oracle(shape, k_star):
    g = GridSpec(*shape)
    band = MirrorBand(g, k_star)
    f = Field(g, np.random.default_rng(18).normal(size=g.n))
    assert np.abs(band.observe(f) - band_analysis(band) @ f.values).max() <= 1e-12


@BAND_BUDGETS
def test_reconstruct_equals_the_analysis_matrix_oracle(shape, k_star):
    g = GridSpec(*shape)
    band = MirrorBand(g, k_star)
    y = np.random.default_rng(19).normal(size=band.k)
    want = (y / band.scale**2) @ band_analysis(band)
    assert np.abs(band.reconstruct(y).values - want).max() <= 1e-12


def test_mirror_band_memory_stays_below_one_analysis_matrix():
    # the dense dim S x n analysis matrix alone is 16.6 MiB at k* = 800 on 100x100
    g = GridSpec(100, 100)
    f = Field(g, np.random.default_rng(20).normal(size=g.n))

    def run():
        band = MirrorBand(g, 800)
        band.reconstruct(band.observe(f))

    run()  # BLAS set-up before the measurement
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
