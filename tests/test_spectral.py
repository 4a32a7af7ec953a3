import numpy as np
import pytest

from mirrorspec.grid import DEFAULT_FLIP, Field, FlipVariant, GridSpec, flip_field, unflip
from mirrorspec.spectral import (
    MirrorBand,
    ModeOrdering,
    SpectralState,
    analyze,
    basis_matrix,
    build_wavenumbers,
    flip_transfer,
    mirror_phase,
    synthesize,
)


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


def test_wavenumbers_4x4():
    sets = build_wavenumbers(GridSpec(4, 4))
    assert sets.k1_list == ((0, 0), (0, 2), (2, 0), (2, 2))
    assert len(sets.k2_list) == 6
    assert 4 + 2 * 6 == 16
    assert set(sets.k2_list) == set(enumerate_k2_bruteforce(4, 4))


def test_wavenumbers_2x2():
    sets = build_wavenumbers(GridSpec(2, 2))
    assert sets.k1_list == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert sets.k2_list == ()


def test_wavenumbers_100x100():
    sets = build_wavenumbers(GridSpec(100, 100))
    assert 4 + 2 * len(sets.k2_list) == 10000


@pytest.mark.parametrize("n1,n2", [(2, 4), (6, 4), (8, 8), (6, 10)])
def test_wavenumbers_match_bruteforce(n1, n2):
    sets = build_wavenumbers(GridSpec(n1, n2))
    assert set(sets.k2_list) == set(enumerate_k2_bruteforce(n1, n2))
    assert len(sets.k2_list) == len(set(sets.k2_list))
    for k1, k2 in sets.k2_list:
        assert 0 <= k1 <= n1 // 2
        assert -n2 // 2 < k2 <= n2 // 2


def test_ordering_prefix_and_pairing():
    sets = build_wavenumbers(GridSpec(8, 8))
    full = ModeOrdering(sets)
    assert full.k == 64
    trunc = ModeOrdering(sets, 9)
    assert trunc.k == 9  # (0,0) + four cos/sin pairs
    smaller = ModeOrdering(sets, 10)
    assert smaller.k == 9  # cannot split a pair
    assert trunc.retained == ModeOrdering(sets, 9).retained
    assert full.retained[: trunc.k] == trunc.retained
    # norms along the prefix are non-decreasing
    norms = [full.kx[list(full.indices).index(p)] ** 2
             + full.ky[list(full.indices).index(p)] ** 2 for p in full.retained]
    assert all(a <= b for a, b in zip(norms[:-1:2], norms[2::2]))


def test_analyze_single_cosine_mode():
    g = GridSpec(8, 8)
    x, _ = g.mesh()
    f = Field.from_pixels(g, np.cos(2 * np.pi * x))
    ordering = ModeOrdering(build_wavenumbers(g))
    state = analyze(f, ordering)
    expected = np.zeros(ordering.k)
    (pos,) = np.where((ordering.kx == 1) & (ordering.ky == 0) & ~ordering.is_sin)
    expected[pos] = 0.5
    assert np.allclose(state.alpha, expected, atol=1e-12)
    oracle = lstsq_analyze_oracle(f, ordering)
    assert np.allclose(state.alpha, oracle, atol=1e-10)


def test_analyze_constant_field():
    g = GridSpec(6, 4)
    f = Field(g, np.ones(g.n))
    ordering = ModeOrdering(build_wavenumbers(g))
    state = analyze(f, ordering)
    (pos,) = np.where((ordering.kx == 0) & (ordering.ky == 0))
    assert np.isclose(state.alpha[pos[0]], 1.0, atol=1e-13)
    mask = np.ones(ordering.k, dtype=bool)
    mask[pos] = False
    assert np.abs(state.alpha[mask]).max() < 1e-13


def test_roundtrip_and_lstsq_oracle_6x4():
    rng = np.random.default_rng(2)
    g = GridSpec(6, 4)
    f = Field(g, rng.normal(size=g.n))
    ordering = ModeOrdering(build_wavenumbers(g))
    state = analyze(f, ordering)
    assert np.allclose(state.alpha, lstsq_analyze_oracle(f, ordering), atol=1e-10)
    back = synthesize(state)
    assert np.abs(back.values - f.values).max() <= 1e-9 * max(1.0, np.abs(f.values).max())
    # truncated projection is still the least-squares fit on the subspace
    truncated = ModeOrdering(ordering.sets, 9)
    assert np.allclose(
        analyze(f, truncated).alpha, lstsq_analyze_oracle(f, truncated), atol=1e-10
    )


def test_synthesize_unit_constant():
    g = GridSpec(4, 4)
    ordering = ModeOrdering(build_wavenumbers(g))
    alpha = np.zeros(ordering.k)
    (pos,) = np.where((ordering.kx == 0) & (ordering.ky == 0))
    alpha[pos] = 1.0
    out = synthesize(SpectralState(ordering, alpha))
    assert np.allclose(out.values, 1.0, atol=1e-13)


def test_synthesize_matches_basis_matrix():
    rng = np.random.default_rng(4)
    g = GridSpec(6, 8)
    sets = build_wavenumbers(g)
    for k in (1, 9, g.n):
        ordering = ModeOrdering(sets, k)
        alpha = rng.normal(size=ordering.k)
        f = synthesize(SpectralState(ordering, alpha))
        assert np.allclose(f.values, basis_matrix(ordering) @ alpha, atol=1e-10)


def test_basis_orthogonality_2x2_and_8x8():
    for n in (2, 8):
        g = GridSpec(n, n)
        ordering = ModeOrdering(build_wavenumbers(g))
        f = basis_matrix(ordering)
        gram = f.T @ f
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-9
        # (1/N) F^T F corrected by weight/normalization is the identity
        scale = 1.0 / (g.n * ordering.weight**2 * ordering.cnorm)
        assert np.allclose(np.diag(gram) * scale, 1.0, atol=1e-12)


def test_basis_nyquist_column_alternates():
    g = GridSpec(8, 8)
    ordering = ModeOrdering(build_wavenumbers(g))
    f = basis_matrix(ordering)
    (pos,) = np.where((ordering.kx == 0) & (ordering.ky == 4) & ~ordering.is_sin)
    col = f[:, pos[0]].reshape(g.shape, order="F")
    _, i = np.meshgrid(np.arange(g.n1), np.arange(g.n2))
    assert np.allclose(col, (-1.0) ** i, atol=1e-12)


def test_parseval_consistency():
    rng = np.random.default_rng(6)
    g = GridSpec(8, 6)
    f = Field(g, rng.normal(size=g.n))
    ordering = ModeOrdering(build_wavenumbers(g))
    a = analyze(f, ordering).alpha
    k1 = ordering.weight == 1.0
    energy = np.sum(a[k1] ** 2) + 2 * np.sum(a[~k1] ** 2)
    assert np.isclose(energy, np.mean(f.values**2), rtol=1e-9)


def test_truncation_error_monotone():
    rng = np.random.default_rng(8)
    g = GridSpec(10, 8)
    f = Field(g, rng.normal(size=g.n))
    sets = build_wavenumbers(g)
    errs = []
    for k in (1, 5, 11, 23, 41, g.n):
        ordering = ModeOrdering(sets, k)
        recon = synthesize(analyze(f, ordering))
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
    ordering = ModeOrdering(build_wavenumbers(g.doubled()))
    phase = mirror_phase(ordering)
    for _ in range(10):
        f = Field(g, rng.normal(size=g.n))
        a = analyze(flip_field(f, variant), ordering).alpha
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
    star = ModeOrdering(build_wavenumbers(g.doubled()), 65)
    band = MirrorBand(g, 65)
    assert (star.k, band.k) == (65, 21)
    for _ in range(5):
        f = Field(g, rng.normal(size=g.n))
        alpha = analyze(flip_field(f, variant), star).alpha
        y = band.observe(f)
        want = unflip(synthesize(SpectralState(star, alpha)), variant)
        assert np.abs(band.reconstruct(y).values - want.values).max() <= 1e-12
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(alpha), rel=1e-12)


def test_mirror_band_completes_a_split_pair():
    # k* = 64 keeps one of the two doubled-grid modes (k_x, +-k_y) at its edge;
    # the band holds their shared DCT-II index, so it holds the whole pair
    g = GridSpec(12, 8)
    star = ModeOrdering(build_wavenumbers(g.doubled()), 64)
    band = MirrorBand(g, 64)
    assert band.k == MirrorBand(g, 65).k == 21 and star.k == 63
    f = Field(g, np.random.default_rng(15).normal(size=g.n))
    alpha = analyze(flip_field(f), star).alpha
    assert np.linalg.norm(band.observe(f)) > np.linalg.norm(alpha)


def test_mirror_band_transfer_observes_the_basis_columns():
    rng = np.random.default_rng(16)
    g = GridSpec(12, 8)
    ordering = ModeOrdering(build_wavenumbers(g), 16)
    band = MirrorBand(g, 65)
    a = rng.normal(size=ordering.k)
    y = band.observe(synthesize(SpectralState(ordering, a)))
    assert np.abs(band.transfer(ordering) @ a - y).max() <= 1e-12


def test_flip_transfer_constant_maps_to_constant():
    g = GridSpec(4, 4)
    ordering = ModeOrdering(build_wavenumbers(g))
    ordering_star = ModeOrdering(build_wavenumbers(g.doubled()))
    transfer = flip_transfer(g, ordering, ordering_star)
    alpha = np.zeros(ordering.k)
    (pos,) = np.where((ordering.kx == 0) & (ordering.ky == 0))
    alpha[pos] = 1.0
    mapped = transfer.matrix @ alpha
    (pos_star,) = np.where((ordering_star.kx == 0) & (ordering_star.ky == 0))
    expected = np.zeros(ordering_star.k)
    expected[pos_star] = 1.0
    assert np.allclose(mapped, expected, atol=1e-12)


def test_flip_transfer_full_retention_equivalence():
    rng = np.random.default_rng(12)
    g = GridSpec(4, 4)
    ordering = ModeOrdering(build_wavenumbers(g))
    ordering_star = ModeOrdering(build_wavenumbers(g.doubled()))
    transfer = flip_transfer(g, ordering, ordering_star)
    for _ in range(50):
        alpha = rng.normal(size=ordering.k)
        via_h = synthesize(SpectralState(ordering_star, transfer.matrix @ alpha))
        direct = flip_field(synthesize(SpectralState(ordering, alpha)))
        assert np.abs(via_h.values - direct.values).max() <= 1e-9


def test_flip_transfer_pinv_property():
    g = GridSpec(4, 4)
    ordering = ModeOrdering(build_wavenumbers(g))
    ordering_star = ModeOrdering(build_wavenumbers(g.doubled()))
    transfer = flip_transfer(g, ordering, ordering_star)
    h = transfer.matrix
    assert np.abs(transfer.pinv() @ h - np.eye(ordering.k)).max() <= 1e-10
    # brute-force SVD pseudo-inverse oracle
    assert np.allclose(transfer.pinv(), np.linalg.pinv(h), atol=1e-10)


def test_analyze_grid_mismatch():
    f = Field(GridSpec(4, 4), np.zeros(16))
    ordering = ModeOrdering(build_wavenumbers(GridSpec(6, 4)))
    with pytest.raises(ValueError):
        analyze(f, ordering)
